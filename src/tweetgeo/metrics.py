"""Evaluation: accuracy, top-5 accuracy, the 161 km near-miss rate, median
error distance, one-vs-rest precision/recall rows, and calibration bins and
the expected calibration error over the winning output probability.

Error distances always run from the predicted city's representative
coordinates to the record's true coordinates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geo import haversine_km

ACC161_RADIUS_KM = 161.0
CALIBRATION_BINS = 10   # [0, 0.1), ..., [0.9, 1.0]


@dataclass
class Predictions:
    """N scored records as arrays; k = min(5, label count). Records scored
    without truth have no true labels or coordinates."""
    true_labels: Optional[np.ndarray]     # (N,) int64 label index; -1 if unseen
    ranked: np.ndarray                    # (N, k) int64 label indices, best first
    top_prob: np.ndarray                  # (N,) float64 probability of ranked[:, 0]
    true_coords: Optional[np.ndarray] = None   # (N, 2) (lat, lon) of the records


def _first_true(mask: np.ndarray, counts: np.ndarray):
    """(rows, columns) of the first counts[i] True cells of each row i of a
    2-D mask, which is cleared there; each row must hold that many."""
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for j in range(int(counts.max(initial=0))):
        col = mask.argmax(axis=1)
        row = np.flatnonzero(counts > j)
        rows.append(row)
        cols.append(col[row])
        mask[row, col[row]] = False
    return np.concatenate(rows), np.concatenate(cols)


def ranked_top5(probs: np.ndarray) -> np.ndarray:
    """Indices of the k = min(5, L) highest probabilities along the last
    axis, best first; ties to the smaller index. Rows must hold no NaN.

    A partition finds each row's k-th largest value. The labels above it
    (fewer than k) and the smallest-index labels tied with it make up
    exactly k per row, and only those are sorted, by (-p, index), in the
    dtype they come in, so rows of many ties cost no more than others."""
    p = np.asarray(probs)
    labels = p.shape[-1]
    k = min(5, labels)
    rows = p.reshape(-1, labels)
    kth = -np.partition(-rows, k - 1, axis=1)[:, k - 1, None]
    above = rows > kth
    n_above = np.count_nonzero(above, axis=1)
    r1, c1 = _first_true(above, n_above)
    r2, c2 = _first_true(rows == kth, k - n_above)
    r, c = np.concatenate((r1, r2)), np.concatenate((c1, c2))
    return c[np.lexsort((c, -rows[r, c], r))].reshape(p.shape[:-1] + (k,))


def rank(probs: np.ndarray, true_labels=None, true_coords=None) -> Predictions:
    """Rank each row of an (N, L) probability matrix, with its truth if given."""
    ranked = ranked_top5(probs)
    top = np.take_along_axis(np.asarray(probs), ranked[:, :1], axis=1)[:, 0]
    return Predictions(None if true_labels is None else np.asarray(true_labels, np.int64),
                       ranked, top.astype(np.float64),
                       None if true_coords is None else np.asarray(true_coords, np.float64))


def concat(parts: list[Predictions]) -> Predictions:
    """The rows of ranked chunks with their truth, in order; truth the chunks
    were ranked without stays None."""
    def join(name):
        arrays = [getattr(p, name) for p in parts]
        return None if arrays[0] is None else np.concatenate(arrays)
    return Predictions(*map(join, ("true_labels", "ranked", "top_prob", "true_coords")))


def _hits(pred: Predictions) -> np.ndarray:
    return pred.ranked[:, 0] == pred.true_labels


def _share(hits: np.ndarray) -> float:
    """Share of records with a hit; hits has one row per record."""
    if len(hits) == 0:
        raise ValueError("no predictions")
    return np.count_nonzero(hits) / len(hits)


def accuracy(pred: Predictions) -> float:
    return _share(_hits(pred))


def acc_top5(pred: Predictions) -> float:
    # a row ranks each label at most once, so it holds at most one hit
    return _share(pred.ranked == pred.true_labels[:, None])


def error_distances_km(pred: Predictions, label_coords: np.ndarray) -> np.ndarray:
    """Distance from each predicted label's coordinates to the true coordinates."""
    c, t = label_coords[pred.ranked[:, 0]], pred.true_coords
    return haversine_km((c[:, 0], c[:, 1]), (t[:, 0], t[:, 1]))


def acc_at_161(pred: Predictions, label_coords: np.ndarray) -> float:
    """Fraction predicted within 161 km of the true coordinates (inclusive)."""
    d = error_distances_km(pred, label_coords)
    return float(np.mean(d <= ACC161_RADIUS_KM))


def median_error_km(pred: Predictions, label_coords: np.ndarray) -> float:
    # np.median averages the two middle values for even counts
    return float(np.median(error_distances_km(pred, label_coords)))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # num / den, and 0 where den is 0
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def per_class_pr(pred: Predictions, label_count: int):
    """Rows of (label, precision, recall, support); a never-predicted or
    unsupported label scores 0 by convention."""
    guess, truth = pred.ranked[:, 0], pred.true_labels
    known = (truth >= 0) & (truth < label_count)
    pred_n = np.bincount(guess, minlength=label_count)
    support = np.bincount(truth[known], minlength=label_count)
    tp = np.bincount(guess[known & (guess == truth)], minlength=label_count)
    return list(zip(range(label_count), _ratio(tp, pred_n).tolist(),
                    _ratio(tp, support).tolist(), support.tolist()))


def calibration_bins(pred: Predictions):
    """Rows of (bin_low, bin_high, count_fraction, accuracy_within_bin,
    mean_confidence) over top_prob; bins are [0,0.1), ..., [0.9,1.0] with
    the last bin closed. An empty bin's accuracy and confidence are 0."""
    # float32 CNN probabilities bin as float64, against the edges k/10:
    # top / 0.1 would put 0.3, 0.6 and 0.7 one bin low
    top = np.asarray(pred.top_prob, dtype=np.float64)
    b = np.searchsorted(np.arange(1, CALIBRATION_BINS) / CALIBRATION_BINS, top, side="right")
    count = np.bincount(b, minlength=CALIBRATION_BINS)
    correct = np.bincount(b[_hits(pred)], minlength=CALIBRATION_BINS)
    # an exactly rounded sum per bin, so the order and chunking of records cannot matter
    confidence = np.array([math.fsum(top[b == i]) for i in range(CALIBRATION_BINS)])
    frac = count / max(len(b), 1)
    return [(round(i * 0.1, 10), round((i + 1) * 0.1, 10), f, a, c)
            for i, (f, a, c) in enumerate(zip(frac.tolist(), _ratio(correct, count).tolist(),
                                              _ratio(confidence, count).tolist()))]


def expected_calibration_error(bins) -> float:
    """ECE (Guo et al. 2017) of calibration_bins rows: the mean over records
    of the gap between their bin's accuracy and mean confidence."""
    return sum(f * abs(a - c) for _, _, f, a, c in bins)


# ---------------------------------------------------------------------------
# CSV reports

def _write_csv(path, header: list, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_metrics_summary(path, rows: list[tuple[str, float]]):
    _write_csv(path, ["metric", "value"], ([name, repr(float(v))] for name, v in rows))


def write_per_class_pr(path, rows, label_names):
    _write_csv(path, ["label_index", "label", "precision", "recall", "support"],
               ([c, label_names[c], repr(prec), repr(rec), sup] for c, prec, rec, sup in rows))


def write_calibration(path, rows):
    _write_csv(path, ["bin_low", "bin_high", "count_fraction", "accuracy", "mean_confidence"],
               ([lo, hi, repr(frac), repr(acc), repr(conf)] for lo, hi, frac, acc, conf in rows))
