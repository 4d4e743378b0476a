"""Multinomial naive Bayes baselines: five per-field base classifiers combined
by two-layer stacking with out-of-fold predictions, plus information-gain-ratio
vocabulary pruning for the feature-selected variant.

All probability math is float64 and log-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encode import time_slot
from .textproc import Vocabulary, build_vocab, tokenize

BASE_FIELDS = ("text", "user_description", "profile_location", "user_name", "cats")
TEXT_BASES = ("text", "user_description", "profile_location", "user_name")


def categorical_tokens(record) -> list[str]:
    """The three categorical values and the time slot as synthetic bag tokens."""
    return [
        f"tl={record.tweet_lang}",
        f"ul={record.user_lang}",
        f"tz={record.timezone}",
        f"pt={time_slot(record.posted_at)}",
    ]


def base_tokens(record, base: str) -> list[str]:
    if base == "cats":
        return categorical_tokens(record)
    return tokenize(getattr(record, base))


def count_matrix(token_lists, vocab: Vocabulary) -> np.ndarray:
    """Bag-of-words counts (N, |vocab|); out-of-vocabulary tokens count as UNK."""
    out = np.zeros((len(token_lists), len(vocab)), dtype=np.float64)
    for i, toks in enumerate(token_lists):
        for t in toks:
            out[i, vocab.index(t)] += 1.0
    return out


@dataclass
class MnbModel:
    class_log_prior: np.ndarray    # (L,)
    feature_log_prob: np.ndarray   # (L, F)
    alpha: float
    feature_space: str = ""

    @property
    def n_classes(self) -> int:
        return self.class_log_prior.shape[0]


def fit_mnb(counts: np.ndarray, labels: np.ndarray, n_classes: int,
            alpha: float = 1e-2, feature_space: str = "") -> MnbModel:
    """P(f|c) = (count(f,c) + alpha) / (sum_f count(f,c) + alpha*F);
    class prior = class document frequency."""
    counts = np.asarray(counts, dtype=np.float64)
    labels = np.asarray(labels)
    if counts.ndim != 2 or counts.shape[1] == 0:
        raise ValueError("counts must be (n_docs, n_features) with n_features >= 1")
    if counts.shape[0] == 0:
        raise ValueError("cannot fit on an empty corpus")
    n, f = counts.shape
    fc = np.zeros((n_classes, f), dtype=np.float64)
    np.add.at(fc, labels, counts)
    class_n = np.bincount(labels, minlength=n_classes).astype(np.float64)
    with np.errstate(divide="ignore"):
        log_prior = np.log(class_n / n)
        log_prob = np.log(fc + alpha) - np.log(fc.sum(axis=1, keepdims=True) + alpha * f)
    return MnbModel(log_prior, log_prob, alpha, feature_space)


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def posterior_mnb(model: MnbModel, counts: np.ndarray) -> np.ndarray:
    """Normalized class posterior(s) for one count vector or a batch."""
    counts = np.asarray(counts, dtype=np.float64)
    single = counts.ndim == 1
    jll = np.atleast_2d(counts) @ model.feature_log_prob.T + model.class_log_prior
    post = np.exp(jll - _logsumexp(jll, axis=-1)[:, None])
    return post[0] if single else post


def predict_mnb(model: MnbModel, counts: np.ndarray):
    """(argmax label, posterior vector); ties go to the smallest label index."""
    post = posterior_mnb(model, counts)
    label = np.argmax(post, axis=-1)  # first maximum
    return (int(label), post) if post.ndim == 1 else (label.astype(np.int64), post)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def igr_score(present_by_class: np.ndarray, docs_by_class: np.ndarray) -> float:
    """Information gain ratio of splitting documents on token presence.

    IG = H(C) - H(C|T), IV = H(T); returns IG/IV, or 0 when the split is
    degenerate (token in all documents or none).
    """
    present = np.asarray(present_by_class, dtype=np.float64)
    totals = np.asarray(docs_by_class, dtype=np.float64)
    n = totals.sum()
    n_p = present.sum()
    n_a = n - n_p
    if n == 0 or n_p == 0 or n_a == 0:
        return 0.0
    h_c = _entropy_bits(totals / n)
    h_given = (n_p / n) * _entropy_bits(present / n_p) \
        + (n_a / n) * _entropy_bits((totals - present) / n_a)
    iv = _entropy_bits(np.array([n_p / n, n_a / n]))
    if iv == 0.0:
        return 0.0
    return (h_c - h_given) / iv


def igr_scores(counts: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """IGR for every feature column, using document-level binary presence."""
    binary = (np.asarray(counts) > 0).astype(np.float64)
    present = np.zeros((n_classes, binary.shape[1]), dtype=np.float64)
    np.add.at(present, np.asarray(labels), binary)
    totals = np.bincount(labels, minlength=n_classes).astype(np.float64)
    return np.array([igr_score(present[:, j], totals) for j in range(binary.shape[1])])


def select_top_percent(scores: dict[str, float], n_percent: float) -> list[str]:
    """Highest-IGR ceil(n% * |tokens|) tokens; ties by lexicographic order."""
    if not (0.0 < n_percent <= 100.0):
        raise ValueError("n_percent must be in (0, 100]")
    keep = math.ceil(n_percent / 100.0 * len(scores))
    ranked = sorted(scores, key=lambda t: (-scores[t], t))
    return ranked[:keep]


def reduce_vocab(vocab: Vocabulary, counts: np.ndarray, labels: np.ndarray,
                 n_classes: int, n_percent: float) -> Vocabulary:
    """IGR-select the top n% of content tokens; PAD/UNK always survive."""
    scores = igr_scores(counts, labels, n_classes)
    by_token = {t: float(scores[vocab.token_to_index[t]]) for t in vocab.content_tokens}
    kept = select_top_percent(by_token, n_percent)
    return Vocabulary(vocab.index_to_token[:2] + kept, min_count=vocab.min_count)


@dataclass
class StackModel:
    bases: dict                      # base field -> MnbModel
    base_vocabs: dict                # base field -> Vocabulary
    meta: MnbModel
    label_count: int
    folds: int = 5
    alpha: float = 1e-2
    igr_percent: Optional[float] = None

    def meta_features(self, base_labels: np.ndarray) -> np.ndarray:
        """One-hot encode the five base argmax labels into a (N, 5L) count matrix."""
        n = base_labels.shape[0]
        out = np.zeros((n, len(BASE_FIELDS) * self.label_count), dtype=np.float64)
        cols = base_labels + np.arange(len(BASE_FIELDS)) * self.label_count
        np.put_along_axis(out, cols, 1.0, axis=1)
        return out


def fit_stacking(records, labels, label_count: int, folds: int = 5,
                 alpha: float = 1e-2, igr_percent: Optional[float] = None,
                 min_count: int = 1) -> StackModel:
    """Two-layer stacking: five per-field MNB bases produce out-of-fold argmax
    labels (folds assigned round-robin by record position); a meta MNB is fit
    on their one-hot encoding; bases are then refit on all records."""
    n = len(records)
    labels = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise ValueError("cross-validation needs folds >= 2")
    if folds > n:
        raise ValueError(f"folds {folds} > records {n}")

    tokens = {b: [base_tokens(r, b) for r in records] for b in BASE_FIELDS}
    vocabs = {b: build_vocab(tokens[b], min_count=min_count) for b in BASE_FIELDS}
    counts = {b: count_matrix(tokens[b], vocabs[b]) for b in BASE_FIELDS}

    if igr_percent is not None:
        for b in TEXT_BASES:
            vocabs[b] = reduce_vocab(vocabs[b], counts[b], labels, label_count, igr_percent)
            counts[b] = count_matrix(tokens[b], vocabs[b])

    fold_of = np.arange(n) % folds
    oof = np.zeros((n, len(BASE_FIELDS)), dtype=np.int64)
    for j in range(folds):
        tr, te = fold_of != j, fold_of == j
        for bi, b in enumerate(BASE_FIELDS):
            base = fit_mnb(counts[b][tr], labels[tr], label_count, alpha, feature_space=b)
            oof[te, bi], _ = predict_mnb(base, counts[b][te])

    stack = StackModel(bases={}, base_vocabs=vocabs, meta=None, label_count=label_count,
                       folds=folds, alpha=alpha, igr_percent=igr_percent)
    stack.meta = fit_mnb(stack.meta_features(oof), labels, label_count, alpha,
                         feature_space="meta")
    for b in BASE_FIELDS:
        stack.bases[b] = fit_mnb(counts[b], labels, label_count, alpha, feature_space=b)
    return stack


def posterior_stacking(model: StackModel, records) -> np.ndarray:
    """Batch posteriors (N, L) through the stack."""
    n = len(records)
    base_labels = np.zeros((n, len(BASE_FIELDS)), dtype=np.int64)
    for bi, b in enumerate(BASE_FIELDS):
        counts = count_matrix([base_tokens(r, b) for r in records], model.base_vocabs[b])
        base_labels[:, bi], _ = predict_mnb(model.bases[b], counts)
    return posterior_mnb(model.meta, model.meta_features(base_labels))
