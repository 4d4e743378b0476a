"""Evaluation: accuracy, top-5 accuracy, the 161 km near-miss rate, median
error distance, one-vs-rest precision/recall rows, and calibration bins over
the winning output probability.

Error distances always run from the predicted city's representative
coordinates to the record's true coordinates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geo import haversine_km

ACC161_RADIUS_KM = 161.0


@dataclass
class Prediction:
    true_label: int                       # index into the label table; -1 if unseen
    ranked_labels: list[int]              # top-5 label indices, best first
    top_prob: float
    true_coords: Optional[tuple] = None   # (lat, lon) of the original record


def ranked_top5(probs: np.ndarray) -> list[int]:
    """Indices of the five highest probabilities; ties to the smaller index."""
    order = np.argsort(-np.asarray(probs), kind="stable")
    return [int(i) for i in order[:5]]


def accuracy(preds: list[Prediction]) -> float:
    if not preds:
        raise ValueError("no predictions")
    return sum(p.ranked_labels[0] == p.true_label for p in preds) / len(preds)


def acc_top5(preds: list[Prediction]) -> float:
    if not preds:
        raise ValueError("no predictions")
    return sum(p.true_label in p.ranked_labels for p in preds) / len(preds)


def error_distances_km(preds: list[Prediction], label_coords: np.ndarray) -> np.ndarray:
    """Distance from each predicted label's coordinates to the true coordinates."""
    pred_idx = np.array([p.ranked_labels[0] for p in preds], dtype=np.int64)
    true_lat = np.array([p.true_coords[0] for p in preds], dtype=np.float64)
    true_lon = np.array([p.true_coords[1] for p in preds], dtype=np.float64)
    c = label_coords[pred_idx]
    return haversine_km((c[:, 0], c[:, 1]), (true_lat, true_lon))


def acc_at_161(preds: list[Prediction], label_coords: np.ndarray) -> float:
    """Fraction predicted within 161 km of the true coordinates (inclusive)."""
    d = error_distances_km(preds, label_coords)
    return float(np.mean(d <= ACC161_RADIUS_KM))


def median_error_km(preds: list[Prediction], label_coords: np.ndarray) -> float:
    # np.median averages the two middle values for even counts
    return float(np.median(error_distances_km(preds, label_coords)))


def per_class_pr(preds: list[Prediction], label_count: int):
    """Rows of (label, precision, recall, support); a never-predicted or
    unsupported label scores 0 by convention."""
    tp = np.zeros(label_count)
    pred_n = np.zeros(label_count)
    support = np.zeros(label_count)
    for p in preds:
        g = p.ranked_labels[0]
        pred_n[g] += 1
        if 0 <= p.true_label < label_count:
            support[p.true_label] += 1
            if g == p.true_label:
                tp[g] += 1
    rows = []
    for c in range(label_count):
        prec = tp[c] / pred_n[c] if pred_n[c] else 0.0
        rec = tp[c] / support[c] if support[c] else 0.0
        rows.append((c, float(prec), float(rec), int(support[c])))
    return rows


def calibration_bins(preds: list[Prediction], bin_width: float = 0.1):
    """Rows of (bin_low, bin_high, count_fraction, accuracy_within_bin) over
    top_prob; bins are [0,0.1), ..., [0.9,1.0] with the last bin closed."""
    n_bins = int(round(1.0 / bin_width))
    count = np.zeros(n_bins)
    correct = np.zeros(n_bins)
    for p in preds:
        b = min(int(p.top_prob / bin_width), n_bins - 1)
        count[b] += 1
        if p.ranked_labels[0] == p.true_label:
            correct[b] += 1
    total = max(len(preds), 1)
    rows = []
    for b in range(n_bins):
        acc = correct[b] / count[b] if count[b] else 0.0
        rows.append((round(b * bin_width, 10), round((b + 1) * bin_width, 10),
                     float(count[b] / total), float(acc)))
    return rows


# ---------------------------------------------------------------------------
# CSV reports

def write_metrics_summary(path, rows: list[tuple[str, float]]):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value"])
        for name, value in rows:
            w.writerow([name, repr(float(value))])


def write_per_class_pr(path, rows, label_names=None):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["label_index", "label", "precision", "recall", "support"])
        for c, prec, rec, sup in rows:
            name = label_names[c] if label_names is not None else c
            w.writerow([c, name, repr(prec), repr(rec), sup])


def write_calibration(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["bin_low", "bin_high", "count_fraction", "accuracy"])
        for lo, hi, frac, acc in rows:
            w.writerow([lo, hi, repr(frac), repr(acc)])
