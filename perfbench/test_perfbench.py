"""Self-tests for the benchmark's own code: input determinism and noise, the
prior baseline, the self-time arithmetic, the traced layer metrics, and the
metric names in BENCHMARK.json."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tweetgeo import cli, geo, ingest, textproc

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = dataclasses.replace(
    workloads.INGEST_PREDICT,
    corpus=dataclasses.replace(workloads.INGEST_PREDICT.corpus, tweets=300, noise_vocab=50))


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = workloads.write_inputs(TINY, 7, tmp_path / "a")
    workloads.write_inputs(TINY, 7, tmp_path / "b")
    workloads.write_inputs(TINY, 8, tmp_path / "c")
    assert workloads.input_digest(tmp_path / "a") == workloads.input_digest(tmp_path / "b")
    assert workloads.input_digest(tmp_path / "a") != workloads.input_digest(tmp_path / "c")
    assert a.planted_malformed > 0
    assert len(set(a.valid_users)) < len(a.valid_users)   # repeated (user, city) tweets


def test_planted_lines_are_exactly_the_rejected_ones(tmp_path):
    info = workloads.write_inputs(TINY, 3, tmp_path)
    lines = (tmp_path / "raw.jsonl").read_text(encoding="utf-8").splitlines()
    kept = []
    for line in lines:
        try:
            kept.append(ingest.parse_record(line, require_coords=False).user_id)
        except ingest.RecordSkip:
            pass
    assert len(lines) - len(kept) == info.planted_malformed
    assert kept == info.valid_users
    _, skipped = ingest.read_jsonl(tmp_path / "raw.jsonl")
    assert skipped == info.planted_malformed


def test_noise_moves_city_tokens_to_neighbours_only(tmp_path):
    workloads.write_inputs(TINY, 4, tmp_path)
    recs, _ = ingest.read_jsonl(tmp_path / "raw.jsonl")
    table = geo.load_city_table(tmp_path / "cities.csv")
    index = {c.city_id: i for i, c in enumerate(table.cities)}
    moved = kept = 0
    for r in recs:
        c = index[geo.nearest_city((r.lat, r.lon), table)]
        text = f"{r.text} {r.user_description} {r.profile_location}"
        for m in re.finditer(r"\b(?:sig|loc)(\d+)", text):   # synth draws some tz at random
            d = (int(m.group(1)) - c) % workloads.N_CITIES
            assert d in (0, 1, workloads.N_CITIES - 1)
            moved += d != 0
            kept += d == 0
    assert 0.15 < moved / (moved + kept) < 0.35   # CONFUSE is 0.25


def test_prior_shares_rank_the_training_split_cities(tmp_path):
    def write(name, cities):
        with open(tmp_path / name, "w", encoding="utf-8") as f:
            f.writelines(json.dumps({"city_id": c}) + "\n" for c in cities)
    write("train.jsonl", [1, 1, 1, 2, 2, 3, 4, 5, 6, 7])
    write("test.jsonl", [1, 2, 7, 8])
    top1, top5 = run.prior_shares(tmp_path)
    assert top1 == pytest.approx(0.25)
    assert top5 == pytest.approx(0.5)   # 1 and 2 rank in the top five, 7 and 8 do not


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(1, 3), (2, 4), (9, 12)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracing.covered([(5, 6), (1, 2)], 0.0, 10.0) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("parent", 0.0, 10.0, -1, None),
        ("child", 1.0, 3.0, 0, None),
        ("child", 2.0, 4.0, 0, None),      # overlaps its sibling
        ("grandchild", 1.5, 2.5, 1, None),
        ("late", 9.0, 12.0, 0, None),      # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 3.0])


def test_metric_names_match_benchmark_json():
    doc = spec()
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in doc[group]]
        assert len(names) == len(set(names))
        assert all(NAME_RE.match(n) for n in names)
    assert all(UNIT_RE.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert [m["name"] for m in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == set(run.E2E_METRICS)
    traced = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in doc["per_layer"]} == traced


def test_traced_pipeline_reports_every_layer_and_restores_functions(tmp_path):
    workloads.write_inputs(TINY, 5, tmp_path / "in")
    prep, out = tmp_path / "prep", tmp_path / "out"
    original = cli.cmd_train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        prepare = ["prepare", "--data", str(tmp_path / "in" / "raw.jsonl"), "--city-table",
                   str(tmp_path / "in" / "cities.csv"), "--out-dir", str(prep),
                   "--min-count", "1", "--dev-users", "10"]
        steps = [
            prepare,
            prepare,
            ["train", "--prep-dir", str(prep), "--task", "city", "--model", "cnn", "--out",
             str(out / "cnn.gtlm"), "--embed-dim", "8", "--filters", "4", "--windows", "3",
             "--batch-size", "64", "--max-epochs", "1"],
            ["predict", "--model-file", str(out / "cnn.gtlm"), "--input",
             str(prep / "test.jsonl"), "--out", str(out / "p.jsonl")],
            ["train", "--prep-dir", str(prep), "--task", "city", "--model", "stacking+",
             "--out", str(out / "stack.gtlm"), "--min-count", "1"],
            ["eval", "--model-file", str(out / "stack.gtlm"), "--test",
             str(prep / "test.jsonl"), "--out-dir", str(out / "eval")],
        ]
        out.mkdir()
        for argv in steps:
            assert tracer.span("stage", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert cli.cmd_train is original
    m = tracing.layer_metrics(tracer.spans)
    assert all(np.isfinite(v) for v in m.values())
    assert [k for k, v in m.items() if v == 0] == []
    assert m["train.steps"] >= 1 and m["nncore.adam_step_calls"] > m["train.steps"]
    assert 0.0 < m["cnn.pad_ratio"] < 1.0 and 0.0 < m["bayes.count_density"] < 1.0
    vocab = textproc.load_vocab(prep / "vocab.txt")
    assert m["textproc.vocab_size"] == len(vocab)   # one prepare's, though it ran twice
