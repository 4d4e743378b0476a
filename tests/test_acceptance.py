"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` to get the per-criterion
verdicts; `-s` additionally shows the measured numbers.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from fdcheck import fd_sweep, smoothness_margin
from oracles import (csr_counts, haversine_oracle_km, igr_oracle, mnb_posterior_exact,
                     nearest_scan, presence_corpus)
from tweetgeo.bayes import fit_mnb, igr_scores, posterior_mnb, posterior_stacking
from tweetgeo.cli import main
from tweetgeo.cnn import CnnConfig, FIELDS, FeatureBatch, encode_features, forward, init_model, predict_proba
from tweetgeo.geo import City, CityTable, haversine_km, nearest_city
from tweetgeo.ingest import read_jsonl
from tweetgeo.labels import city_labels
from tweetgeo.metrics import (Predictions, acc_at_161, acc_top5, accuracy,
                              calibration_bins, median_error_km, rank)
from tweetgeo.synth import SynthSpec, generate, write_corpus
from tweetgeo.train import load_model, load_stack_model, save_model

SEED = 1


def _read_metric(path, name):
    for line in path.read_text().splitlines()[1:]:
        k, v = line.split(",")
        if k == name:
            return float(v)
    raise KeyError(name)


@dataclass
class Bench:
    prep: object
    cnn_bundle: object
    stack_bundle: object
    cnn_metrics: object
    stack_metrics: object
    elapsed: float


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """End-to-end benchmark: 5-city / 2-country corpus, 2000 train / 500 test,
    CNN and STACKING trained and evaluated through the CLI."""
    root = tmp_path_factory.mktemp("bench")
    t0 = time.time()
    spec = SynthSpec(n_cities=5, n_countries=2, n_users=2625, seed=100 + SEED)
    write_corpus(spec, root / "raw.jsonl", root / "cities.csv")

    assert main(["prepare", "--data", str(root / "raw.jsonl"),
                 "--city-table", str(root / "cities.csv"),
                 "--out-dir", str(root / "prep"), "--seed", str(SEED),
                 "--test-fraction", str(500 / 2625), "--dev-users", "125"]) == 0
    assert main(["train", "--prep-dir", str(root / "prep"), "--task", "city",
                 "--model", "cnn", "--out", str(root / "cnn.gtlm"),
                 "--log", str(root / "cnn_log.csv"), "--seed", str(SEED),
                 "--embed-dim", "32", "--windows", "3,4,5", "--filters", "32",
                 "--batch-size", "64", "--max-epochs", "20", "--patience", "20",
                 "--max-len-text", "12", "--max-len-user-description", "12",
                 "--max-len-profile-location", "6", "--max-len-user-name", "5"]) == 0
    assert main(["train", "--prep-dir", str(root / "prep"), "--task", "city",
                 "--model", "stacking", "--out", str(root / "stack.gtlm"),
                 "--seed", str(SEED)]) == 0
    assert main(["eval", "--model-file", str(root / "cnn.gtlm"),
                 "--test", str(root / "prep" / "test.jsonl"),
                 "--out-dir", str(root / "rep_cnn")]) == 0
    assert main(["eval", "--model-file", str(root / "stack.gtlm"),
                 "--test", str(root / "prep" / "test.jsonl"),
                 "--out-dir", str(root / "rep_stack")]) == 0
    return Bench(
        prep=root / "prep",
        cnn_bundle=root / "cnn.gtlm",
        stack_bundle=root / "stack.gtlm",
        cnn_metrics=root / "rep_cnn",
        stack_metrics=root / "rep_stack",
        elapsed=time.time() - t0,
    )


# --------------------------------------------------------------------------
# 1. gradient fidelity

def test_c01_gradient_fidelity():
    t0 = time.time()
    cfg = CnnConfig(embed_dim=4, windows=(2, 3), filters_per_window=2,
                    dropout_rate=0.5, label_count=3,
                    max_lens={"text": 6, "user_description": 5,
                              "profile_location": 4, "user_name": 3})
    cat_block = 2 + 2 + 2 + 144
    # first seed whose forward pass is safely away from every max-pool or
    # ReLU discontinuity, so central differences are valid
    model = batch = None
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cand = init_model(cfg, 20, cat_block, seed=seed + 100).astype(np.float64)
        tokens = {f: rng.integers(1, 20, size=(3, cfg.max_lens[f])).astype(np.int64)
                  for f in FIELDS}
        tokens["text"][0, -2:] = 0
        cat = np.stack([np.array([rng.integers(0, 2), 2 + rng.integers(0, 2),
                                  4 + rng.integers(0, 2), 6 + rng.integers(0, 144)])
                        for _ in range(3)]).astype(np.int64)
        labels = rng.integers(0, 3, size=3).astype(np.int64)
        cand_batch = FeatureBatch(tokens=tokens, cat_positions=cat, labels=labels)
        if smoothness_margin(cand, cand_batch) > 1e-3:
            model, batch = cand, cand_batch
            break
    assert model is not None, "no smooth evaluation point found"

    worst, n_checked = fd_sweep(model, batch, batch.labels, eps=1e-5)
    elapsed = time.time() - t0
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS gradient fidelity: {n_checked} parameters, "
          f"max rel err {worst:.3e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. probability normalization

def test_c02_probability_normalization(bench, rng):
    b = load_model(bench.cnn_bundle)
    records, _ = generate(SynthSpec(n_cities=5, n_countries=2, n_users=1000, seed=77))
    records = records[:1000]
    feats = encode_features(records, b.vocab, b.maps, b.model.config)
    probs = predict_proba(b.model, feats)
    assert probs.shape[0] == 1000
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6
    assert (probs >= 0).all()

    mnb = fit_mnb(csr_counts(rng.integers(0, 5, size=(40, 12))),
                  rng.integers(0, 3, size=40), n_classes=3, alpha=1e-2)
    docs = csr_counts(rng.integers(0, 6, size=(1000, 12)))
    post = posterior_mnb(mnb, docs)
    assert np.abs(post.sum(axis=1) - 1.0).max() <= 1e-6

    sb = load_stack_model(bench.stack_bundle)
    spost = posterior_stacking(sb.model, records)
    assert np.abs(spost.sum(axis=1) - 1.0).max() <= 1e-6
    print("\n[criterion 2] PASS normalization: cnn / mnb / stacking posteriors "
          "all sum to 1 within 1e-6 over 1000 inputs each")


# --------------------------------------------------------------------------
# 3. MNB oracle equivalence

def test_c03_mnb_oracle_equivalence():
    # six documents: class A {"x x", "x y", "x"}, class B {"y", "y x", "y y"}
    counts = csr_counts([[2, 0], [1, 1], [1, 0], [0, 1], [1, 1], [0, 2]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    m = fit_mnb(counts, labels, n_classes=2, alpha=0.01)
    class_docs = [[[2, 0], [1, 1], [1, 0]], [[0, 1], [1, 1], [0, 2]]]
    worst = 0.0
    for doc in ([1, 0], [0, 1], [2, 1], [0, 0], [3, 2], [1, 4]):
        want = mnb_posterior_exact(class_docs, doc, 0.01)
        got = posterior_mnb(m, csr_counts([doc]))[0]
        worst = max(worst, float(np.abs(got - np.array(want)).max()))
    assert worst <= 1e-12
    assert posterior_mnb(m, csr_counts([[1.0, 0.0]]))[0, 0] == pytest.approx(401 / 502, abs=1e-12)
    print(f"\n[criterion 3] PASS mnb oracle: max |posterior - exact Bayes| = {worst:.2e}")


# --------------------------------------------------------------------------
# 4. IGR correctness

def test_c04_igr_correctness():
    # one-feature corpora with these per-class presence and document counts
    got = float(igr_scores(*presence_corpus([30, 5, 0], [40, 30, 30]), 3)[0])
    want = igr_oracle([30, 5, 0], [40, 30, 30])
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(0.44381142970432105, abs=1e-9)
    assert igr_scores(*presence_corpus([10, 20], [10, 20]), 2)[0] == 0.0
    print(f"\n[criterion 4] PASS igr: toy table {got:.12f} matches entropy oracle, "
          "degenerate split -> 0")


# --------------------------------------------------------------------------
# 5. geometry

def test_c05_geometry(rng):
    worst = 0.0
    for _ in range(100):
        a = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        b = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        d, o = haversine_km(a, b), haversine_oracle_km(a, b)
        if o > 0:
            worst = max(worst, abs(d - o) / o)
    assert worst <= 1e-3

    anti = haversine_km((0.0, 0.0), (0.0, 180.0))
    assert abs(anti - np.pi * 6371.0) / (np.pi * 6371.0) <= 1e-6

    cities = [City(i + 1, f"c{i}", float(rng.uniform(-80, 80)),
                   float(rng.uniform(-175, 175)), "AA", 1) for i in range(60)]
    table = CityTable(cities)
    scan_input = [(c.city_id, c.lat, c.lon) for c in cities]
    mismatches = 0
    for _ in range(1000):
        p = (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        if nearest_city(p, table) != nearest_scan(p, scan_input):
            mismatches += 1
    assert mismatches == 0
    print(f"\n[criterion 5] PASS geometry: haversine worst rel dev {worst:.2e} "
          f"(<=0.1%), antipodal exact, nearest-city 1000/1000 vs scan")


# --------------------------------------------------------------------------
# 6. metrics oracle

def test_c06_metrics_oracle():
    lon161 = 1.447907785529156          # exactly 161.0 km from (0,0) in float64
    table = CityTable([
        City(1, "home", 0.0, 0.0, "AA", 1),
        City(2, "near", 0.0, 0.09, "AA", 1),
        City(3, "edge", 0.0, lon161, "AA", 1),
        City(4, "far", 0.0, 1.8, "AA", 1),
        City(5, "other", 10.0, 10.0, "AA", 1),
        City(6, "spare", 20.0, 20.0, "AA", 1),
    ])
    coords = city_labels(table).coords_array()

    def pred(pred_label, in_top5):
        non_true = [l for l in range(1, 6) if l != pred_label]
        if pred_label == 0:
            ranked = [0] + non_true[:4]
        elif in_top5:
            ranked = [pred_label, 0] + non_true[:3]
        else:
            ranked = [pred_label] + non_true[:4]   # true label pushed out of top 5
        assert len(ranked) == len(set(ranked)) == 5
        return ranked

    # 20 rows, all true label 0 at (0, 0):
    #   7 predict city 1 (0 km, correct)
    #   3 predict city 2 (~10.01 km, wrong; 2 keep the true label in top-5)
    #   5 predict city 3 (exactly 161.0 km, wrong; 2 keep it)
    #   5 predict city 4 (~200.15 km, wrong; 1 keeps it)
    ranked = ([pred(0, True)] * 7
              + [pred(1, True)] * 2 + [pred(1, False)]
              + [pred(2, True)] * 2 + [pred(2, False)] * 3
              + [pred(3, True)] * 1 + [pred(3, False)] * 4)
    assert len(ranked) == 20
    preds = Predictions(true_labels=np.zeros(20, dtype=np.int64),
                        ranked=np.array(ranked, dtype=np.int64), top_prob=np.full(20, 0.5),
                        true_coords=np.zeros((20, 2)))

    assert accuracy(preds) == 7 / 20
    assert acc_top5(preds) == (7 + 2 + 2 + 1) / 20
    assert acc_at_161(preds, coords) == (7 + 3 + 5) / 20      # 161.0 km inclusive
    d_near = haversine_oracle_km((0.0, 0.0), (0.0, 0.09))
    want_median = (d_near + 161.0) / 2                        # mean of middle two
    assert median_error_km(preds, coords) == pytest.approx(want_median, abs=1e-9)
    print(f"\n[criterion 6] PASS metrics fixture: acc 0.35, top5 0.60, acc@161 0.75 "
          f"(boundary inclusive), median {want_median:.4f} km (even rule)")


# --------------------------------------------------------------------------
# 7. end-to-end synthetic benchmark

def test_c07_end_to_end_benchmark(bench):
    cnn_acc = _read_metric(bench.cnn_metrics / "metrics_summary.csv", "accuracy")
    stack_acc = _read_metric(bench.stack_metrics / "metrics_summary.csv", "accuracy")
    n_test = _read_metric(bench.cnn_metrics / "metrics_summary.csv", "n_test")
    assert n_test == 500
    assert cnn_acc >= 0.95
    assert stack_acc >= 0.90
    assert cnn_acc >= stack_acc
    assert bench.elapsed < 300.0
    print(f"\n[criterion 7] PASS benchmark: cnn {cnn_acc:.4f} >= stacking "
          f"{stack_acc:.4f} >= 0.90 on 500 test tweets, pipeline {bench.elapsed:.1f}s")


# --------------------------------------------------------------------------
# 8. determinism

def test_c08_determinism(tmp_path):
    spec = SynthSpec(n_cities=4, n_countries=2, n_users=300, seed=55)
    write_corpus(spec, tmp_path / "raw.jsonl", tmp_path / "cities.csv")
    outs = []
    for run in ("a", "b"):
        d = tmp_path / run
        assert main(["prepare", "--data", str(tmp_path / "raw.jsonl"),
                     "--city-table", str(tmp_path / "cities.csv"),
                     "--out-dir", str(d / "prep"), "--seed", "9",
                     "--test-fraction", "0.2", "--dev-users", "40",
                     "--min-count", "3"]) == 0
        assert main(["train", "--prep-dir", str(d / "prep"), "--task", "country",
                     "--model", "cnn", "--out", str(d / "m.gtlm"),
                     "--log", str(d / "log.csv"), "--seed", "9",
                     "--embed-dim", "16", "--windows", "2,3", "--filters", "8",
                     "--batch-size", "32", "--max-epochs", "4", "--patience", "4",
                     "--max-len-text", "10", "--max-len-user-description", "8",
                     "--max-len-profile-location", "4", "--max-len-user-name", "3"]) == 0
        assert main(["eval", "--model-file", str(d / "m.gtlm"),
                     "--test", str(d / "prep" / "test.jsonl"),
                     "--out-dir", str(d / "rep")]) == 0
        outs.append(d)
    a, b = outs
    compared = []
    for rel in ("prep/train.jsonl", "prep/dev.jsonl", "prep/test.jsonl",
                "prep/vocab.txt", "prep/category_maps.json", "prep/stats.csv",
                "m.gtlm", "log.csv", "rep/metrics_summary.csv",
                "rep/per_class_pr.csv", "rep/calibration.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        compared.append(rel)
    print(f"\n[criterion 8] PASS determinism: {len(compared)} artifacts "
          "byte-identical across reruns (splits, bundle, logs, reports)")


# --------------------------------------------------------------------------
# 9. serialization

def test_c09_serialization_zero_ulp(bench, tmp_path):
    b = load_model(bench.cnn_bundle)
    records, _ = read_jsonl(bench.prep / "test.jsonl")
    records = records[:100]
    assert len(records) == 100
    feats = encode_features(records, b.vocab, b.maps, b.model.config)
    before = forward(b.model, feats, train=False).probs

    path = tmp_path / "again.gtlm"
    save_model(b.model, b.vocab, b.maps, b.labels, path)
    b2 = load_model(path)
    feats2 = encode_features(records, b2.vocab, b2.maps, b2.model.config)
    after = forward(b2.model, feats2, train=False).probs
    assert before.tobytes() == after.tobytes()
    print("\n[criterion 9] PASS serialization: save->load->forward bit-identical "
          "(0 ULP) on 100 records")


# --------------------------------------------------------------------------
# 10. calibration monotonicity

def test_c10_calibration_monotonicity(bench):
    b = load_model(bench.cnn_bundle)
    records, _ = read_jsonl(bench.prep / "test.jsonl")
    feats = encode_features(records, b.vocab, b.maps, b.model.config)
    probs = predict_proba(b.model, feats)
    preds = rank(probs, b.labels.label_array(records), [(r.lat, r.lon) for r in records])
    overall = accuracy(preds)
    bins = calibration_bins(preds)
    top_bin = bins[-1]
    assert top_bin[2] > 0, "no predictions above 0.9; benchmark model too soft"
    assert top_bin[3] >= overall
    print(f"\n[criterion 10] PASS calibration: [0.9,1.0] bin holds "
          f"{top_bin[2]:.1%} of tweets at accuracy {top_bin[3]:.4f} "
          f">= overall {overall:.4f}")
