import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tweetgeo.cnn import DEFAULT_MAX_LENS, CnnConfig, encode_features
from tweetgeo.encode import build_category_maps
from tweetgeo.ingest import Record
from tweetgeo.textproc import (PAD_INDEX, PAD_TOKEN, UNK_INDEX, UNK_TOKEN,
                               Vocabulary, build_vocab,
                               load_vocab, save_vocab, tokenize, vocab_from_ids,
                               vocab_to_bytes)

from oracles import tokenize_scan


def encode_tokens(tokens, vocab, max_len):
    """The text field's ids as the CNN encodes them, for tokens that each
    tokenize to themselves: truncated to max_len, then right-padded with PAD."""
    cfg = CnnConfig(windows=(1,), max_lens={**DEFAULT_MAX_LENS, "text": max_len})
    feats = encode_features([Record("u", text=" ".join(tokens))], vocab,
                            build_category_maps([]), cfg)
    return feats.tokens["text"][0].tolist()


def test_tokenize_lowercase_whitespace():
    assert tokenize("Hello NYC") == ["hello", "nyc"]


def test_tokenize_twitter_entities():
    assert tokenize("@bob check https://t.co/x #NYC!!") == \
        ["<user>", "check", "<url>", "#nyc", "!", "!"]


def test_tokenize_collapses_long_runs():
    assert tokenize("sooooo coool") == ["sooo", "coool"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation_and_emoji_single_chars():
    assert tokenize("a,b") == ["a", ",", "b"]
    assert tokenize("nice \U0001F600\U0001F600") == ["nice", "\U0001F600", "\U0001F600"]


def test_tokenize_www_url():
    assert tokenize("see www.example.com now") == ["see", "<url>", "now"]


@pytest.mark.parametrize("text, tokens", [
    ("wwww.x.com", ["www", ".", "x", ".", "com"]),
    ("http:// x", ["http", ":", "/", "/", "x"]),
    ("@", ["@"]),
    ("#", ["#"]),
    ("!!!!", ["!", "!", "!", "!"]),
    ("@aaaa", ["<user>"]),
    ("#yaaaay", ["#yaaay"]),
    ("İİİİ", ["i", "\u0307"] * 4),
    ("__init__", ["__init__"]),
])
def test_tokenize_edge_cases(text, tokens):
    assert tokenize(text) == tokens == tokenize_scan(text)


# pieces that start or end URLs, mentions, hashtags and words, characters
# whose lowercase form is longer or differs, and emoji; each may repeat
TOKEN_PIECES = list("@#:/.wWhHtTpPsS_!a1 \n") + [
    "http", "https", "www", "://", "İ", "ß", "Σ", "ς", "\u212a", "ǅ", "\u0307",
    "\U0001F600"]


@given(st.lists(st.tuples(st.sampled_from(TOKEN_PIECES), st.integers(1, 5)), max_size=16)
       .map(lambda runs: "".join(piece * n for piece, n in runs)))
def test_tokenize_matches_scan_oracle(s):
    assert tokenize(s) == tokenize_scan(s)


@given(st.text(max_size=80))
def test_tokenize_deterministic_and_spaceless(s):
    toks = tokenize(s)
    assert toks == tokenize(s) == tokenize_scan(s)
    assert all(t and not t.isspace() for t in toks)


def test_build_vocab_cutoff_and_order():
    streams = [["a"] * 12 + ["b"] * 10 + ["c"] * 9]
    v = build_vocab(streams, min_count=10)
    assert v.index_to_token == [PAD_TOKEN, UNK_TOKEN, "a", "b"]


def test_build_vocab_frequency_then_lexicographic():
    streams = [["z"] * 5 + ["a"] * 5 + ["m"] * 7]
    v = build_vocab(streams, min_count=5)
    assert v.index_to_token[2:] == ["m", "a", "z"]


def test_build_vocab_empty():
    assert build_vocab([], min_count=10).index_to_token == [PAD_TOKEN, UNK_TOKEN]


def test_build_vocab_matches_counting_oracle(rng):
    # independent frequency filter over a synthetic corpus
    tokens = [f"t{int(i)}" for i in rng.integers(0, 40, size=2000)]
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    expected = {t for t, c in counts.items() if c >= 30}
    v = build_vocab([tokens], min_count=30)
    assert set(v.content_tokens) == expected


@settings(max_examples=200)
@given(stream=st.lists(st.sampled_from(["b", "a", "é", "e\u0301", "Z", "aa", "<url>", "#a"]),
                       max_size=40), min_count=st.integers(1, 4))
def test_vocab_from_ids_is_build_vocab_of_the_decoded_ids(stream, min_count):
    tokens = sorted(set(stream))
    ids = np.array([tokens.index(t) for t in stream], dtype=np.int32)
    vocab, index = vocab_from_ids(tokens, ids, min_count)
    want = build_vocab([stream], min_count=min_count)
    assert vocab.index_to_token == want.index_to_token and vocab.min_count == min_count
    assert index.tolist() == [want.index(t) for t in tokens]


def test_vocab_round_trip_property():
    v = build_vocab([["x", "x", "y", "y", "zz", "zz"]], min_count=2)
    for i, tok in enumerate(v.index_to_token):
        assert v.token_to_index[tok] == i


def test_encode_known_unknown_padding():
    v = build_vocab([["a"] * 10, ["b"] * 10], min_count=10)
    assert encode_tokens(["a", "zzz"], v, 4) == [2, UNK_INDEX, PAD_INDEX, PAD_INDEX]


def test_encode_empty_and_truncation():
    v = build_vocab([["a"] * 10], min_count=10)
    assert encode_tokens([], v, 3) == [0, 0, 0]
    out = encode_tokens(["a"] * 40, v, 30)
    assert out == [2] * 30


def test_encode_requires_positive_length():
    v = build_vocab([], min_count=1)
    with pytest.raises(ValueError):
        encode_tokens(["a"], v, 0)


@given(st.lists(st.sampled_from(["a", "b", "q", "zz"]), max_size=20))
def test_encode_indices_always_in_range(tokens):
    v = build_vocab([["a"] * 10, ["b"] * 10], min_count=5)
    out = encode_tokens(tokens, v, 8)
    assert len(out) == 8
    assert all(0 <= i < len(v) for i in out)


def test_vocab_file_roundtrip(tmp_path):
    v = build_vocab([["béta"] * 3, ["alpha"] * 4], min_count=2)
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.index_to_token == v.index_to_token
    assert loaded.min_count == v.min_count
    header = path.read_text(encoding="utf-8").splitlines()[:2]
    assert header == [f"min_count={v.min_count}", f"size={len(v)}"]


def test_vocab_reserved_indices_enforced():
    with pytest.raises(ValueError):
        Vocabulary(["a", "b"], min_count=1)


def test_load_vocab_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("not-a-header\nsize=2\n<pad>\n<unk>\n")
    with pytest.raises(Exception, match="header"):
        load_vocab(bad_header)
    truncated = tmp_path / "t.txt"
    truncated.write_text("min_count=1\nsize=5\n<pad>\n<unk>\na\n")
    with pytest.raises(Exception, match="truncated"):
        load_vocab(truncated)


@pytest.mark.parametrize("token", ["tz=Zone\nX", "tz=Zone\rX"])
def test_vocab_to_bytes_refuses_line_breaks(token):
    with pytest.raises(ValueError, match="line break"):
        vocab_to_bytes(Vocabulary([PAD_TOKEN, UNK_TOKEN, token], min_count=1))
