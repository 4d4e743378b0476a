"""Relations between two runs that hold with no oracle: each stage's output
does not depend on the order of its input lines, nor on how `eval` and
`predict` chunk them. A rerun repeats the same order, so rerun-identity
tests cannot catch an order or hashing bug; these can."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tweetgeo import cli, columns
from tweetgeo.cli import main
from tweetgeo.synth import SynthSpec, write_corpus

PREP_FILES = ("train.jsonl", "dev.jsonl", "test.jsonl", "cities.csv", "vocab.txt",
              "category_maps.json", "stats.csv", *columns.files("train"), *columns.files("dev"))
EVAL_FILES = ("metrics_summary.csv", "per_class_pr.csv", "calibration.csv")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    # 40 cities over 600 users: a STACKING+ bundle scores many distinct float64
    # confidences, whose per-bin sums once depended on the order of the lines
    root = tmp_path_factory.mktemp("invariance")
    write_corpus(SynthSpec(n_cities=40, n_countries=5, n_users=600, noise_vocab_size=200,
                           seed=3), root / "raw.jsonl", root / "cities.csv")
    assert _prepare(root / "raw.jsonl", root, root / "prep") == 0
    for model in ("cnn", "stacking+"):
        assert main(["train", "--prep-dir", str(root / "prep"), "--task", "city",
                     "--model", model, "--out", str(root / f"{model}.gtlm"), "--seed", "1",
                     "--embed-dim", "16", "--windows", "2,3", "--filters", "8",
                     "--max-epochs", "2", "--min-count", "1"]) == 0
    return root


def _prepare(data: Path, root: Path, out: Path) -> int:
    return main(["prepare", "--data", str(data), "--city-table", str(root / "cities.csv"),
                 "--out-dir", str(out), "--min-count", "1", "--dev-users", "20"])


def _eval(work: Path, test: Path, out: Path) -> dict:
    assert main(["eval", "--model-file", str(work / "stacking+.gtlm"), "--test", str(test),
                 "--out-dir", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in EVAL_FILES}


@settings(max_examples=3, deadline=None)
@given(order=st.randoms(use_true_random=False))
def test_prepare_ignores_the_order_of_raw_lines(work, order):
    lines = (work / "raw.jsonl").read_bytes().splitlines(keepends=True)
    order.shuffle(lines)
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "raw.jsonl").write_bytes(b"".join(lines))
        assert _prepare(Path(d) / "raw.jsonl", work, Path(d) / "prep") == 0
        for name in PREP_FILES:
            assert (Path(d) / "prep" / name).read_bytes() == \
                (work / "prep" / name).read_bytes(), name


@settings(max_examples=4, deadline=None)
@given(model=st.sampled_from(["cnn", "stacking+"]), order=st.randoms(use_true_random=False))
def test_predict_rows_follow_their_records(work, model, order):
    # permuting the input permutes the output rows and leaves each row's bytes
    lines = (work / "prep" / "test.jsonl").read_bytes().splitlines(keepends=True)
    perm = list(range(len(lines)))
    order.shuffle(perm)
    with tempfile.TemporaryDirectory() as d:
        rows = {}
        for name, input_lines in (("same", lines), ("permuted", [lines[i] for i in perm])):
            (Path(d) / "in.jsonl").write_bytes(b"".join(input_lines))
            assert main(["predict", "--model-file", str(work / f"{model}.gtlm"),
                         "--input", str(Path(d) / "in.jsonl"),
                         "--out", str(Path(d) / "out.jsonl")]) == 0
            rows[name] = (Path(d) / "out.jsonl").read_bytes().splitlines()
    assert len(rows["same"]) == len(lines)
    assert rows["permuted"] == [rows["same"][i] for i in perm]


@pytest.mark.parametrize("arrangement", ["reversed", "two-chunks"])
def test_eval_ignores_the_order_and_chunking_of_test_lines(work, tmp_path, monkeypatch,
                                                           arrangement):
    test = work / "prep" / "test.jsonl"
    whole = _eval(work, test, tmp_path / "whole")
    lines = test.read_bytes().splitlines(keepends=True)
    if arrangement == "reversed":
        test = tmp_path / "reversed.jsonl"
        test.write_bytes(b"".join(reversed(lines)))
    else:
        sizes = []
        score = cli._probabilities
        monkeypatch.setattr(cli, "_probabilities",
                            lambda b, records: sizes.append(len(records)) or score(b, records))
        monkeypatch.setattr(cli, "PREDICT_CHUNK", len(lines) // 2 + 1)
    assert _eval(work, test, tmp_path / arrangement) == whole
    if arrangement == "two-chunks":
        assert sizes == [len(lines) // 2 + 1, len(lines) - len(lines) // 2 - 1]
