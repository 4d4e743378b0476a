"""The train and dev splits as token-id columns: they decode to the tokens
they replace, and `train` refuses a column file that is missing, damaged,
inconsistent or written for another split file: stacking those of the
training split, the CNN those of the dev split too."""

import dataclasses
import gc
import json
import shutil
import tracemalloc

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


def test_token_columns_leaves_no_cyclic_garbage():
    # eval and predict build columns for every chunk of records: a dictionary
    # in a reference cycle would hold its token strings until the collector
    # ran, not until the columns are built
    records = [make_record(text=f"w{i} x{i % 7}", tz=f"z{i % 3}") for i in range(50)]
    gc.collect()
    gc.disable()
    try:
        token_columns(records)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_token_columns_memory_grows_with_its_arrays_not_its_token_strings():
    # each record's tokens become ids as they are made; holding 1,024 records'
    # token strings at a time grew the peak about 4x as fast as the arrays
    small = [make_record(text=" ".join(f"word{i}" for i in range(40)),
                         user_description=" ".join(f"about{i}" for i in range(15)),
                         profile_location="Paris, France", user_name="bob", tz="Europe/Paris")]

    def peak_and_array_bytes(copies):
        records = small * copies
        tracemalloc.start()
        try:
            cols = token_columns(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, cols.ids.nbytes + cols.indptr.nbytes

    (peak_lo, arrays_lo), (peak_hi, arrays_hi) = map(peak_and_array_bytes, (300, 3000))
    assert peak_hi - peak_lo <= 3 * (arrays_hi - arrays_lo) + (64 << 10)


@pytest.fixture(scope="module")
def prep(tmp_path_factory):
    root = tmp_path_factory.mktemp("columns")
    write_corpus(SynthSpec(n_cities=4, n_countries=2, n_users=200, seed=8),
                 root / "raw.jsonl", root / "cities.csv")
    assert main(["prepare", "--data", str(root / "raw.jsonl"),
                 "--city-table", str(root / "cities.csv"), "--out-dir", str(root / "prep"),
                 "--dev-users", "10", "--min-count", "1"]) == 0
    return root / "prep"


def _in_memory(prep, split="train"):
    return token_columns(ingest.read_jsonl(prep / f"{split}.jsonl")[0])


def test_load_columns_gives_back_what_prepare_wrote(prep):
    for split in ("train", "dev"):
        cols, loaded = _in_memory(prep, split), columns.load_columns(prep, split)
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


def _damages(split):
    """case -> (damage of a copied prepared directory, the file the error
    names), for the column files of a split."""
    manifest, indptr, ids = columns.files(split)[:3]

    def rewritten(**change):
        # rewrites every column file of the split consistently, checksums
        # included, from columns with `change` applied
        def damage(prep):
            cols = _in_memory(prep, split)
            columns.save_columns(dataclasses.replace(
                cols, **{k: f(cols) for k, f in change.items()}), prep, split)
        return damage

    def relabeled(field, codes):
        return rewritten(labels=lambda c: {**c.labels, field: (c.labels[field][0],
                                                               codes(c.labels[field][1]))})

    def swapped(indptr):
        indptr = indptr.copy()
        i = int(np.flatnonzero(np.diff(indptr) > 0)[1])   # a row that holds a token
        indptr[i], indptr[i + 1] = indptr[i + 1], indptr[i]
        return indptr

    def resealed_without(key):
        # a manifest that lacks `key` but matches its own checksum
        def damage(prep):
            body = json.loads((prep / manifest).read_bytes())
            del body["manifest_sha256"], body[key]
            (prep / manifest).write_bytes(columns._canonical(
                {**body, "manifest_sha256": columns._sha256(columns._canonical(body))}))
        return damage

    def source_changed(prep):
        path = prep / f"{split}.jsonl"
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[1:]))

    return {
        **{f"truncated-{name}": (lambda prep, name=name: (prep / name).write_bytes(
            (prep / name).read_bytes()[:-5]), name) for name in columns.files(split)},
        **{f"flipped-{name}": (lambda prep, name=name: _flip(prep / name, lambda b: len(b) - 2),
                               name) for name in columns.files(split)},
        # flips that leave valid JSON: "tl=" becomes "ul=" in a token; the row count changes
        "flipped-token": (lambda prep: _flip(prep / manifest, lambda b: b.index(b'"tl=') + 1),
                          manifest),
        "flipped-row-count": (lambda prep: _flip(prep / manifest, lambda b: b.index(
            b",", b.index(b'"rows":')) - 1), manifest),
        "flipped-npy-header": (lambda prep: _flip(prep / ids, lambda b: 12), ids),
        "ids-int64": (rewritten(ids=lambda c: c.ids.astype(np.int64)), ids),
        "ids-2d": (rewritten(ids=lambda c: c.ids.reshape(1, -1)), ids),
        "labels-short": (relabeled("city_id", lambda codes: codes[:-1]),
                         f"{split}_city_id.npy"),
        "id-at-dictionary-size": (rewritten(ids=lambda c: np.where(
            np.arange(c.ids.size) == 7, len(c.tokens), c.ids).astype(np.int32)), ids),
        "negative-id": (rewritten(ids=lambda c: np.where(
            np.arange(c.ids.size) == 7, -1, c.ids).astype(np.int32)), ids),
        "label-index-past-its-values": (relabeled(
            "country_code", lambda codes: np.full_like(codes, 2)), f"{split}_country_code.npy"),
        "non-monotone-indptr": (rewritten(indptr=lambda c: swapped(c.indptr)), indptr),
        f"another-{split}-jsonl": (source_changed, manifest),
        "manifest-without-tokens": (resealed_without("tokens"), manifest),
    }


DAMAGES = {split: _damages(split) for split in ("train", "dev")}
CNN_FLAGS = ["--embed-dim", "8", "--windows", "2", "--filters", "4", "--max-epochs", "1"]


def _assert_refused(prep, tmp_path, capsys, split, case, model):
    damage, name = DAMAGES[split][case]
    bad = tmp_path / "prep"
    shutil.copytree(prep, bad)
    damage(bad)
    capsys.readouterr()
    rc = main(["train", "--prep-dir", str(bad), "--task", "city", "--model", model,
               "--out", str(tmp_path / "m.gtlm"), *(CNN_FLAGS if model == "cnn" else ())])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"error: {bad / name}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "m.gtlm").exists()


# both models read the training split's columns
@pytest.mark.parametrize("model", ["stacking", "stacking+", "cnn"])
@pytest.mark.parametrize("case", list(DAMAGES["train"]))
def test_train_refuses_bad_columns_naming_the_file(prep, tmp_path, capsys, case, model):
    _assert_refused(prep, tmp_path, capsys, "train", case, model)


@pytest.mark.parametrize("case", list(DAMAGES["dev"]))
def test_cnn_train_refuses_bad_dev_columns_naming_the_file(prep, tmp_path, capsys, case):
    _assert_refused(prep, tmp_path, capsys, "dev", case, "cnn")
