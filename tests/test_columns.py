"""The training split as token-id columns: they decode to the tokens they
replace, and `train --model stacking|stacking+` refuses a column file that is
missing, damaged, inconsistent or written for another train.jsonl."""

import dataclasses
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record
from tweetgeo import columns, ingest
from tweetgeo.bayes import BASE_FIELDS, base_tokens
from tweetgeo.cli import main
from tweetgeo.columns import token_columns
from tweetgeo.synth import SynthSpec, write_corpus

# mentions, URLs, hashtags, letter runs, combining marks and line breaks
TEXT = st.text(alphabet=st.sampled_from("ab Z#@:/.wwwé́İ!1\n\r"), max_size=14)
RECORDS = st.lists(st.builds(
    make_record, text=TEXT, user_description=TEXT, profile_location=TEXT, user_name=TEXT,
    tweet_lang=TEXT, user_lang=TEXT, tz=TEXT, posted=st.integers(0, 10**6),
    city_id=st.one_of(st.none(), st.integers(-2, 2)), country=st.sampled_from(["", "US", "GB"])),
    max_size=6)


@settings(max_examples=100, deadline=None)
@given(records=RECORDS)
def test_token_columns_decode_to_the_base_tokens(records):
    cols = token_columns(records)
    assert len(cols) == len(records)
    assert cols.tokens == sorted(set(cols.tokens))   # code-point order, each token once
    assert cols.indptr.dtype == np.int64 and cols.ids.dtype == np.int32
    seen = set()
    for b in BASE_FIELDS:
        indptr, ids = cols.base(b)
        for i, r in enumerate(records):
            row = ids[indptr[i]:indptr[i + 1]].tolist()
            assert [cols.tokens[j] for j in row] == base_tokens(r, b)
            seen.update(row)
    assert seen == set(range(len(cols.tokens)))
    for field, (values, codes) in cols.labels.items():
        assert codes.dtype == np.int32
        assert [values[c] for c in codes] == [getattr(r, field) for r in records]


@pytest.fixture(scope="module")
def prep(tmp_path_factory):
    root = tmp_path_factory.mktemp("columns")
    write_corpus(SynthSpec(n_cities=4, n_countries=2, n_users=200, seed=8),
                 root / "raw.jsonl", root / "cities.csv")
    assert main(["prepare", "--data", str(root / "raw.jsonl"),
                 "--city-table", str(root / "cities.csv"), "--out-dir", str(root / "prep"),
                 "--dev-users", "10", "--min-count", "1"]) == 0
    return root / "prep"


def _in_memory(prep):
    return token_columns(ingest.read_jsonl(prep / "train.jsonl")[0])


def test_load_columns_gives_back_what_prepare_wrote(prep):
    cols, loaded = _in_memory(prep), columns.load_columns(prep)
    assert isinstance(loaded.ids, np.memmap)
    assert loaded.tokens == cols.tokens and loaded.labels.keys() == cols.labels.keys()
    for a, b in ((loaded.indptr, cols.indptr), (loaded.ids, cols.ids),
                 *((loaded.labels[f][1], cols.labels[f][1]) for f in cols.labels)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert all(loaded.labels[f][0] == cols.labels[f][0] for f in cols.labels)


def _flip(path, at):
    """Flip the low bit of byte at(bytes) of a file."""
    data = bytearray(path.read_bytes())
    data[at(bytes(data))] ^= 0x01
    path.write_bytes(bytes(data))


def _rewritten(**change):
    """A damage that rewrites every column file consistently, checksums
    included, from columns with `change` applied."""
    def damage(prep):
        cols = _in_memory(prep)
        columns.save_columns(dataclasses.replace(cols, **{k: f(cols) for k, f in change.items()}),
                             prep)
    return damage


def _relabeled(field, codes):
    return _rewritten(**{"labels": lambda c: {**c.labels, field: (c.labels[field][0],
                                                                   codes(c.labels[field][1]))}})


def _swapped(indptr):
    indptr = indptr.copy()
    i = int(np.flatnonzero(np.diff(indptr) > 0)[1])   # a row that holds a token
    indptr[i], indptr[i + 1] = indptr[i + 1], indptr[i]
    return indptr


# case -> (damage of a copied prepared directory, the file the error names)
DAMAGES = {
    **{f"truncated-{name}": (lambda prep, name=name: (prep / name).write_bytes(
        (prep / name).read_bytes()[:-5]), name) for name in columns.FILES},
    **{f"flipped-{name}": (lambda prep, name=name: _flip(prep / name, lambda b: len(b) - 2),
                           name) for name in columns.FILES},
    # flips that leave valid JSON: "tl=" becomes "ul=" in a token; the row count changes
    "flipped-token": (lambda prep: _flip(prep / columns.MANIFEST,
                                         lambda b: b.index(b'"tl=') + 1), columns.MANIFEST),
    "flipped-row-count": (lambda prep: _flip(prep / columns.MANIFEST, lambda b: b.index(
        b",", b.index(b'"rows":')) - 1), columns.MANIFEST),
    "flipped-npy-header": (lambda prep: _flip(prep / columns.IDS, lambda b: 12), columns.IDS),
    "ids-int64": (_rewritten(ids=lambda c: c.ids.astype(np.int64)), columns.IDS),
    "ids-2d": (_rewritten(ids=lambda c: c.ids.reshape(1, -1)), columns.IDS),
    "labels-short": (_relabeled("city_id", lambda codes: codes[:-1]), "train_city_id.npy"),
    "id-at-dictionary-size": (_rewritten(ids=lambda c: np.where(
        np.arange(c.ids.size) == 7, len(c.tokens), c.ids).astype(np.int32)), columns.IDS),
    "negative-id": (_rewritten(ids=lambda c: np.where(
        np.arange(c.ids.size) == 7, -1, c.ids).astype(np.int32)), columns.IDS),
    "label-index-past-its-values": (_relabeled(
        "country_code", lambda codes: np.full_like(codes, 2)), "train_country_code.npy"),
    "non-monotone-indptr": (_rewritten(indptr=lambda c: _swapped(c.indptr)), columns.INDPTR),
    "another-train-jsonl": (lambda prep: (prep / "train.jsonl").write_bytes(
        b"".join((prep / "train.jsonl").read_bytes().splitlines(keepends=True)[1:])),
        columns.MANIFEST),
}


@pytest.mark.parametrize("model", ["stacking", "stacking+"])
@pytest.mark.parametrize("case", list(DAMAGES))
def test_train_refuses_bad_columns_naming_the_file(prep, tmp_path, capsys, case, model):
    damage, name = DAMAGES[case]
    bad = tmp_path / "prep"
    shutil.copytree(prep, bad)
    damage(bad)
    capsys.readouterr()
    rc = main(["train", "--prep-dir", str(bad), "--task", "city", "--model", model,
               "--out", str(tmp_path / "m.gtlm")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"error: {bad / name}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "m.gtlm").exists()
