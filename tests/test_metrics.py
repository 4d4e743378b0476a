import numpy as np
import pytest

from oracles import haversine_oracle_km, metrics_scan
from tweetgeo.geo import City, CityTable, haversine_km
from tweetgeo.labels import city_labels
from tweetgeo.metrics import (Predictions, acc_at_161, acc_top5, accuracy,
                              calibration_bins, error_distances_km, expected_calibration_error,
                              median_error_km, per_class_pr, rank, ranked_top5,
                              write_calibration, write_metrics_summary, write_per_class_pr)

# longitude whose float64 haversine distance from (0,0) is exactly 161.0 km
LON_161 = 1.447907785529156


def P(true, ranked, prob=0.9, coords=(0.0, 0.0)):
    """One row: (true label, ranked labels, top_prob, true coordinates)."""
    return true, list(ranked), prob, coords


def batch(rows):
    """Predictions from P rows; every row ranks the same number of labels."""
    true, ranked, prob, coords = zip(*rows)
    return Predictions(np.array(true, dtype=np.int64), np.array(ranked, dtype=np.int64),
                       np.array(prob, dtype=np.float64), np.array(coords, dtype=np.float64))


def test_ranked_top5_orders_and_tie_breaks():
    probs = np.array([0.1, 0.4, 0.4, 0.05, 0.03, 0.02])
    assert ranked_top5(probs).tolist() == [1, 2, 0, 3, 4]
    assert ranked_top5(np.array([0.5, 0.5])).tolist() == [0, 1]
    assert ranked_top5(np.array([probs, probs[::-1]])).tolist() == [[1, 2, 0, 3, 4],
                                                                    [3, 4, 5, 2, 1]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranked_top5_keeps_a_tie_block_that_straddles_fifth_place(dtype):
    # places 4-7 hold one value: places 4 and 5 go to its two smallest indices
    probs = np.array([0.05, 0.3, 0.05, 0.01, 0.2, 0.05, 0.01, 0.05, 0.19], dtype=dtype)
    assert ranked_top5(probs).tolist() == [1, 4, 8, 0, 2]
    assert ranked_top5(np.array([probs, probs[::-1]])).tolist() == [[1, 4, 8, 0, 2],
                                                                    [7, 4, 0, 1, 3]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranked_top5_ranks_every_label_of_fewer_than_five(dtype):
    probs = np.array([[0.25, 0.5, 0.25], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]], dtype=dtype)
    got = ranked_top5(probs)
    assert got.dtype == np.int64 and got.tolist() == [[1, 0, 2], [2, 0, 1], [0, 1, 2]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("labels", [1, 3, 5, 40])
def test_rank_matches_ranking_each_row(dtype, labels):
    rng = np.random.default_rng(labels)
    probs = rng.integers(0, 4, size=(60, labels)).astype(dtype) / 4   # many exact ties
    probs[0] = 0.25
    pred = rank(probs, np.arange(60) % labels - 1, np.zeros((60, 2)))
    assert pred.ranked.dtype == np.int64 and pred.ranked.shape == (60, min(5, labels))
    assert pred.top_prob.dtype == np.float64
    for p, ranked, top in zip(probs, pred.ranked, pred.top_prob):
        order = sorted(range(labels), key=lambda i: (-p[i], i))   # ties to the smaller index
        assert ranked.tolist() == order[:5]
        assert top == float(p[order[0]])
    assert pred.true_labels.tolist() == (np.arange(60) % labels - 1).tolist()
    assert rank(probs).true_labels is None and rank(probs).true_coords is None


@pytest.mark.parametrize("seed", range(8))
def test_batch_metrics_equal_the_per_record_scan(seed):
    rng = np.random.default_rng(seed)
    labels, n = int(rng.integers(1, 12)), int(rng.integers(1, 90))
    dtype = (np.float32, np.float64)[seed % 2]
    probs = rng.dirichlet(np.ones(labels), size=n).astype(dtype)
    probs[rng.random(n) < 0.2] = dtype(1 / labels)         # rows of exact ties
    true = rng.integers(-1, labels + 1, size=n)            # unseen (-1) and out-of-table
    rows = []
    for t, p in zip(true.tolist(), probs):
        ranked = sorted(range(labels), key=lambda i: (-p[i], i))[:5]
        rows.append((t, ranked, float(p[ranked[0]])))
    acc, top5, pr, cal, ece = metrics_scan(rows, labels)
    pred = rank(probs, true)
    assert accuracy(pred) == acc and acc_top5(pred) == top5
    assert per_class_pr(pred, labels) == pr
    assert calibration_bins(pred) == cal
    assert expected_calibration_error(calibration_bins(pred)) == pytest.approx(ece, abs=1e-12)


def test_calibration_bins_widen_float32_probabilities():
    # float32(0.7) lies just below 0.7: widened to float64 it bins in
    # [0.6, 0.7), while float32 division by 0.1 would round it up to 7.0
    p = np.float32(0.7)
    assert int(p / np.float32(0.1)) == 7 and int(float(p) / 0.1) == 6
    rows = calibration_bins(rank(np.array([[p, 0.2]], dtype=np.float32), [0]))
    assert rows[6] == (0.6, 0.7, 1.0, 1.0, float(p))


def test_calibration_bins_put_a_top_on_an_edge_in_the_bin_it_opens():
    # 0.3 / 0.1 == 2.9999999999999996: dividing would bin 0.3, 0.6 and 0.7 one low
    tops = [0.3, 0.6, 0.7, 0.1, 1.0]
    rows = calibration_bins(batch([P(0, [0], prob=p) for p in tops]))
    assert [i for i, row in enumerate(rows) if row[2] > 0] == [1, 3, 6, 7, 9]
    assert [rows[i][4] for i in (3, 6, 7, 1, 9)] == tops
    _, _, _, cal, _ = metrics_scan([(0, [0], p) for p in tops], 1)
    assert [row[2] > 0 for row in cal] == [row[2] > 0 for row in rows]


def test_accuracy_all_correct_and_fixture():
    preds = batch([P(i, [i, 9, 8, 7, 6]) for i in range(4)])
    assert accuracy(preds) == 1.0
    # hand-checked 10-prediction fixture: 6 of 10 correct
    fixture = [P(0, [0]), P(1, [1]), P(2, [0]), P(3, [3]), P(0, [1]),
               P(1, [1]), P(2, [2]), P(3, [0]), P(0, [0]), P(1, [2])]
    assert accuracy(batch(fixture)) == pytest.approx(0.6)


def test_metrics_reject_no_predictions():
    empty = Predictions(np.zeros(0, np.int64), np.zeros((0, 5), np.int64), np.zeros(0))
    with pytest.raises(ValueError, match="no predictions"):
        accuracy(empty)
    with pytest.raises(ValueError, match="no predictions"):
        acc_top5(empty)


def test_acc_top5_counts_fifth_place():
    preds = batch([P(4, [0, 1, 2, 3, 4])])
    assert acc_top5(preds) == 1.0
    preds = batch([P(5, [0, 1, 2, 3, 4])])
    assert acc_top5(preds) == 0.0


def test_acc_top5_fixture_and_dominates_accuracy():
    # label 3 pads the shorter rankings: no row's true label is 3
    fixture = batch([P(0, [1, 0, 3]), P(0, [0, 1, 3]), P(2, [1, 0, 3]), P(1, [0, 2, 1])])
    assert acc_top5(fixture) == pytest.approx(3 / 4)
    assert accuracy(fixture) <= acc_top5(fixture)


def _three_city_coords():
    table = CityTable([
        City(1, "origin", 0.0, 0.0, "AA", 10),
        City(2, "far", 0.0, 1.8, "AA", 10),        # ~200 km from origin
        City(3, "boundary", 0.0, LON_161, "AA", 10),
    ])
    return table, city_labels(table).coords_array()


def test_error_distances_and_acc161_boundary_inclusive():
    table, coords = _three_city_coords()
    preds = batch([
        P(0, [0], coords=(0.0, 0.09)),   # ~10 km
        P(0, [1], coords=(0.0, 0.0)),    # ~200 km
        P(0, [2], coords=(0.0, 0.0)),    # exactly 161.0 km
    ])
    d = error_distances_km(preds, coords)
    assert d[2] == 161.0
    assert d[0] == pytest.approx(haversine_oracle_km((0, 0.09), (0, 0)), rel=1e-9)
    assert acc_at_161(preds, coords) == pytest.approx(2 / 3)


def test_predicted_city_at_true_coords_is_hit():
    table, coords = _three_city_coords()
    preds = batch([P(0, [0], coords=(0.0, 0.0))])
    assert acc_at_161(preds, coords) == 1.0


def test_median_error_odd_and_even():
    coords = np.array([[0.0, 0.0]])
    km_deg = haversine_km((0.0, 0.0), (0.0, 1.0))
    mk = lambda deg: P(0, [0], coords=(0.0, deg))
    # distances {1, 2, 3} degrees-worth -> median = 2 degrees-worth
    preds = batch([mk(1.0), mk(2.0), mk(3.0)])
    assert median_error_km(preds, coords) == pytest.approx(2 * km_deg, rel=1e-9)
    # even count {1, 3} -> mean of middle two
    preds = batch([mk(1.0), mk(3.0)])
    assert median_error_km(preds, coords) == pytest.approx(2 * km_deg, rel=1e-9)


def test_per_class_pr_perfect_and_never_predicted():
    preds = batch([P(0, [0]), P(1, [1]), P(1, [1])])
    rows = per_class_pr(preds, 3)
    assert rows[0] == (0, 1.0, 1.0, 1)
    assert rows[1] == (1, 1.0, 1.0, 2)
    assert rows[2] == (2, 0.0, 0.0, 0)   # never predicted, no support


def test_per_class_pr_hand_confusion_matrix():
    # confusion (true x pred): [[2,1,0],[0,1,1],[1,0,2]]
    preds = batch(
        [P(0, [0])] * 2 + [P(0, [1])] +
        [P(1, [1])] + [P(1, [2])] +
        [P(2, [0])] + [P(2, [2])] * 2
    )
    rows = per_class_pr(preds, 3)
    assert rows[0] == (0, pytest.approx(2 / 3), pytest.approx(2 / 3), 3)
    assert rows[1] == (1, pytest.approx(1 / 2), pytest.approx(1 / 2), 2)
    assert rows[2] == (2, pytest.approx(2 / 3), pytest.approx(2 / 3), 3)


def test_calibration_all_high_confidence():
    preds = batch([P(0, [0], prob=0.95)] * 4)
    rows = calibration_bins(preds)
    assert rows[-1] == (0.9, 1.0, 1.0, 1.0, 0.95)
    assert all(r[2] == r[4] == 0.0 for r in rows[:-1])


def test_calibration_fixture_three_bins():
    preds = batch([P(0, [0], prob=0.05), P(0, [1], prob=0.05),   # bin 0: acc 1/2
                   P(0, [0], prob=0.55),                          # bin 5: acc 1
                   P(0, [1], prob=1.0), P(0, [0], prob=0.93)])    # bin 9: acc 1/2
    rows = calibration_bins(preds)
    assert rows[0] == (0.0, 0.1, pytest.approx(2 / 5), pytest.approx(1 / 2), 0.05)
    assert rows[5] == (0.5, 0.6, pytest.approx(1 / 5), 1.0, 0.55)
    assert rows[9] == (0.9, 1.0, pytest.approx(2 / 5), pytest.approx(1 / 2),
                       pytest.approx(0.965))
    assert sum(r[2] for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert rows[9][2] > 0   # prob 1.0 lands in the closed last bin
    # 2/5 * |1/2 - 0.05| + 1/5 * |1 - 0.55| + 2/5 * |1/2 - 0.965|
    assert expected_calibration_error(rows) == pytest.approx(0.456)


def test_report_writers(tmp_path):
    preds = batch([P(0, [0], prob=0.8), P(1, [0], prob=0.3)])
    write_metrics_summary(tmp_path / "m.csv", [("accuracy", accuracy(preds))])
    write_per_class_pr(tmp_path / "p.csv", per_class_pr(preds, 2), label_names=["US", "JP"])
    write_calibration(tmp_path / "c.csv", calibration_bins(preds))
    assert (tmp_path / "m.csv").read_text().splitlines()[0] == "metric,value"
    assert "US" in (tmp_path / "p.csv").read_text()
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "bin_low,bin_high,count_fraction,accuracy,mean_confidence"
    assert len(lines) == 11
