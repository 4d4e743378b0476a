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
from dataclasses import dataclass, field

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


def ranked(keys, floor=1) -> np.ndarray:
    """The indices whose key is at least `floor`, largest key first, ties in ascending
    index: the order of vocabularies, category maps, country labels and the IGR cut.
    Over a token dictionary in code-point order, ascending index is lexicographic."""
    keys = np.asarray(keys)
    kept = np.flatnonzero(keys >= floor)
    return kept[np.argsort(-keys[kept], kind="stable")]


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
    """token <-> index mapping with reserved PAD=0 and UNK=1 slots. Stored tokens
    all reached ``min_count`` occurrences in the corpus the vocabulary was built
    from; `build_vocab` and STACKING+'s IGR cut (`bayes.fit_stacking`) order them."""

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


def build_vocab(tokens: list[str], ids: np.ndarray, min_count: int = MIN_COUNT) -> Vocabulary:
    """The tokens of the stream tokens[ids] seen at least min_count times, most frequent
    first, ties in token order (lexicographic for a `columns.token_columns` dictionary)."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    kept = ranked(np.bincount(ids, minlength=len(tokens)), min_count)
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + [tokens[i] for i in kept.tolist()], min_count)


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
