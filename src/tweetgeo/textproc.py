"""Tweet-style tokenization and vocabulary construction.

Tokenizer rules (deterministic, self-contained):
  * lowercase everything
  * URLs collapse to the sentinel ``<url>``, @mentions to ``<user>``
  * hashtags stay single tokens, ``#`` included
  * runs of word characters form one token; runs of more than 3 of the same
    character inside a word are collapsed to 3 ("sooooo" -> "sooo")
  * every other non-space character (punctuation, emoji) is its own token
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import DataError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

URL_SENTINEL = "<url>"
USER_SENTINEL = "<user>"
MIN_COUNT = 10   # the paper's vocabulary frequency cutoff

# one flat alternation, matched in C by findall: URL, mention, hashtag, word,
# any other non-space character, tried in that order at each position
_TOKEN_RE = re.compile(r"https?://\S+|www\.\S+|@\w+|\#\w+|\w+|\S", re.UNICODE)
_RUN_RE = re.compile(r"(.)\1{3,}", re.UNICODE)
_HAS_RUN_RE = re.compile(r"(.)\1\1\1", re.UNICODE)   # finds what _RUN_RE finds, in half the time


def ranked_by_frequency(values: Iterable, min_count: int = 1) -> list:
    """The distinct values seen at least `min_count` times, most frequent
    first, ties ascending: the order of vocabularies, category maps and country labels.
    `values` may also be a Counter of the values."""
    counts = Counter(values)
    kept = sorted(v for v, c in counts.items() if c >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)   # a stable sort: ties stay ascending
    return kept


def _squeeze_runs(token: str) -> str:
    return _RUN_RE.sub(lambda m: m.group(1) * 3, token)


def tokenize(text: str) -> list[str]:
    """Split text into tokens; deterministic, empty string -> empty list."""
    low = text.lower()
    tokens = _TOKEN_RE.findall(low)
    # without these the text holds no mention, no URL and no run to squeeze
    if not ("@" in low or "://" in low or "www." in low or _HAS_RUN_RE.search(low)):
        return tokens
    out = []
    for tok in tokens:
        if tok.startswith(("http://", "https://", "www.")):
            out.append(URL_SENTINEL)
        elif tok[0] == "@" and len(tok) > 1:
            out.append(USER_SENTINEL)
        elif len(tok) > 3:
            out.append(_squeeze_runs(tok))
        else:
            out.append(tok)
    return out


@dataclass
class Vocabulary:
    """token <-> index mapping with reserved PAD=0 and UNK=1 slots.

    Stored tokens all reached ``min_count`` occurrences in the corpus the
    vocabulary was built from; indices >= 2 are assigned in descending
    frequency order, ties lexicographic.
    """

    index_to_token: list[str]
    min_count: int
    token_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.index_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("indices 0 and 1 are reserved for PAD and UNK")
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, UNK_INDEX)

    @property
    def content_tokens(self) -> list[str]:
        return self.index_to_token[2:]


def build_vocab(token_streams: Iterable[Iterable[str]], min_count: int = MIN_COUNT) -> Vocabulary:
    """Count tokens across all streams and keep those with frequency >= min_count."""
    kept = ranked_by_frequency(chain.from_iterable(token_streams), min_count)
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + kept, min_count=min_count)


def vocab_from_ids(tokens: list[str], ids: np.ndarray,
                   min_count: int = MIN_COUNT) -> tuple[Vocabulary, np.ndarray]:
    """`build_vocab` of the token stream tokens[ids], counted as ids: `tokens`
    must be in code-point order, so that ascending ids break frequency ties as
    lexicographic order does. Also returns each token id's vocabulary index,
    UNK for a token below min_count."""
    counts = np.bincount(ids, minlength=len(tokens))
    kept = np.flatnonzero(counts >= min_count)
    kept = kept[np.argsort(-counts[kept], kind="stable")]
    index = np.full(len(tokens), UNK_INDEX, dtype=np.int64)
    index[kept] = np.arange(2, len(kept) + 2)
    vocab = Vocabulary([PAD_TOKEN, UNK_TOKEN] + [tokens[i] for i in kept.tolist()],
                       min_count=min_count)
    return vocab, index


def vocab_to_bytes(vocab: Vocabulary) -> bytes:
    """Serialized vocabulary: a two-line header (min_count, size), then one
    token per line in index order. Vocabulary files and model bundles share it.
    A token containing a line break is refused, as it could not be read back."""
    for t in vocab.index_to_token:
        if "\n" in t or "\r" in t:
            raise ValueError(f"vocabulary token {t!r} contains a line break")
    lines = [f"min_count={vocab.min_count}", f"size={len(vocab)}"] + vocab.index_to_token
    return ("\n".join(lines) + "\n").encode("utf-8")


def vocab_from_bytes(payload: bytes, source: str = "vocabulary") -> Vocabulary:
    """Inverse of `vocab_to_bytes`; a bad header, a short token list or a
    malformed token list raises DataError naming `source`."""
    try:
        lines = payload.decode("utf-8").split("\n")
        min_count = int(lines[0].removeprefix("min_count="))
        size = int(lines[1].removeprefix("size="))
    except (IndexError, ValueError) as e:
        raise DataError(f"{source}: bad vocabulary header") from e
    tokens = lines[2:2 + size]
    if len(tokens) != size:
        raise DataError(f"{source}: vocabulary truncated: header says {size}, found {len(tokens)}")
    try:
        return Vocabulary(tokens, min_count=min_count)
    except ValueError as e:
        raise DataError(f"{source}: {e}") from e


def save_vocab(vocab: Vocabulary, path):
    with open(path, "wb") as f:
        f.write(vocab_to_bytes(vocab))


def load_vocab(path) -> Vocabulary:
    with open(path, "rb") as f:
        return vocab_from_bytes(f.read(), str(path))
