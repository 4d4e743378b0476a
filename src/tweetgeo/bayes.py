"""Multinomial naive Bayes baselines: five per-field base classifiers combined
by two-layer stacking with out-of-fold predictions, plus information-gain-ratio
vocabulary pruning for the feature-selected variant.

Bag-of-words counts are compressed sparse rows (`CsrCounts`), so memory grows
with the number of non-zero (document, token) cells, not documents x
vocabulary. All probability math is float64 and log-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from . import nncore
from .encode import time_slot
from .ingest import CATEGORICAL_FIELDS, TEXT_FIELDS
from .labels import TASK_CITY, TASK_COUNTRY
from .textproc import Vocabulary, build_vocab, tokenize

BASE_FIELDS = TEXT_FIELDS + ("cats",)
CAT_PREFIXES = ("tl", "ul", "tz")   # token prefix of each of CATEGORICAL_FIELDS

FOLDS = 5                # stacking cross-validation folds
ALPHA = 1e-2             # additive smoothing of every MNB
IGR_DEFAULTS = {TASK_CITY: 40.0, TASK_COUNTRY: 55.0}   # STACKING+'s IGR top percent per task
_ONE_LINE = str.maketrans("\r\n", "  ")


def categorical_tokens(record) -> list[str]:
    """The three categorical values and the time slot as synthetic bag tokens.
    Line breaks in the values become spaces: a vocabulary stores one token
    per line."""
    tokens = [f"{p}={getattr(record, f).translate(_ONE_LINE)}"
              for p, f in zip(CAT_PREFIXES, CATEGORICAL_FIELDS)]
    return tokens + [f"pt={time_slot(record.posted_at)}"]


def base_tokens(record, base: str) -> list[str]:
    if base == "cats":
        return categorical_tokens(record)
    return tokenize(getattr(record, base))


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Row pointers for cells listed in ascending row order."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


@dataclass(frozen=True)
class CsrCounts:
    """Document x feature counts in compressed sparse rows: row i stores the
    distinct ascending columns indices[indptr[i]:indptr[i+1]] and their
    positive counts in the same slots of `counts`."""
    indptr: np.ndarray    # (N + 1,) int64
    indices: np.ndarray   # (nnz,) int64
    counts: np.ndarray    # (nnz,) float64
    n_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.n_cols

    @property
    def size(self) -> int:
        return self.shape[0] * self.n_cols

    def row_ids(self) -> np.ndarray:
        """The row of every stored cell."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __getitem__(self, rows) -> CsrCounts:
        """The rows picked by a slice, boolean mask or index array."""
        rows = np.arange(self.shape[0])[rows]
        starts, lens = self.indptr[rows], np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lens)))
        cells = np.repeat(starts - indptr[:-1], lens) + np.arange(indptr[-1])
        return CsrCounts(indptr, self.indices[cells], self.counts[cells], self.n_cols)

    def __array_function__(self, func, types, args, kwargs):
        # np.count_nonzero counts stored cells, as on the dense matrix; any
        # other numpy function needs an explicit array
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return int(self.counts.size)
        return NotImplemented


def count_matrix(token_lists, vocab: Vocabulary) -> CsrCounts:
    """Bag-of-words counts (N, |vocab|); out-of-vocabulary tokens count as UNK."""
    n, f = len(token_lists), len(vocab)
    cols = np.array([vocab.index(t) for t in chain.from_iterable(token_lists)], dtype=np.int64)
    rows = np.repeat(np.arange(n), [len(toks) for toks in token_lists])
    cells, counts = np.unique(rows * f + cols, return_counts=True)
    return CsrCounts(_indptr(cells // f, n), cells % f, counts.astype(np.float64), f)


@dataclass
class MnbModel:
    class_log_prior: np.ndarray    # (L,)
    feature_log_prob: np.ndarray   # (L, F)

    @property
    def n_classes(self) -> int:
        return self.class_log_prior.shape[0]


def _class_table(counts: CsrCounts, labels: np.ndarray, n_classes: int,
                 weights: Optional[np.ndarray] = None) -> np.ndarray:
    """(L, F) per-(class, feature) sums of `weights` over the stored cells;
    with no weights, the number of each class's documents holding the feature."""
    f = counts.n_cols
    return np.bincount(labels[counts.row_ids()] * f + counts.indices, weights=weights,
                       minlength=n_classes * f).reshape(n_classes, f)


def fit_mnb(counts: CsrCounts, labels: np.ndarray, n_classes: int,
            alpha: float = ALPHA) -> MnbModel:
    """P(f|c) = (count(f,c) + alpha) / (sum_f count(f,c) + alpha*F);
    class prior = class document frequency."""
    if counts.n_cols == 0:
        raise ValueError("counts must be (n_docs, n_features) with n_features >= 1")
    if counts.shape[0] == 0:
        raise ValueError("cannot fit on an empty corpus")
    labels = np.asarray(labels)
    fc = _class_table(counts, labels, n_classes, counts.counts)
    class_n = np.bincount(labels, minlength=n_classes).astype(np.float64)
    with np.errstate(divide="ignore"):
        log_prior = np.log(class_n / class_n.sum())
        log_prob = np.log(fc + alpha) - np.log(fc.sum(axis=1, keepdims=True)
                                               + alpha * counts.n_cols)
    return MnbModel(log_prior, log_prob)


def _joint_log_likelihood(model: MnbModel, counts: CsrCounts) -> np.ndarray:
    """log P(c) + sum_f count_f * log P(f|c) for every row, (N, L): a gather of
    log P(f|c) at the stored cells, summed per row, a block of rows at a time."""
    if counts.n_cols != model.feature_log_prob.shape[1]:
        raise ValueError(f"counts have {counts.n_cols} features, the model "
                         f"{model.feature_log_prob.shape[1]}")
    n, indptr = counts.shape[0], counts.indptr
    log_prob_t = model.feature_log_prob.T
    budget = max(1, nncore.BLOCK_CELLS // model.n_classes)
    jll = np.zeros((n, model.n_classes))
    r0 = 0
    while r0 < n:
        r1 = min(n, max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + budget, "right")) - 1))
        a, b = indptr[r0], indptr[r1]
        filled = indptr[r0:r1] < indptr[r0 + 1:r1 + 1]
        if b > a:
            cells = log_prob_t[counts.indices[a:b]] * counts.counts[a:b, None]
            jll[r0:r1][filled] = np.add.reduceat(cells, indptr[r0:r1][filled] - a, axis=0)
        r0 = r1
    return jll + model.class_log_prior


def posterior_mnb(model: MnbModel, counts: CsrCounts) -> np.ndarray:
    """Normalized class posteriors (N, L) of a count matrix."""
    return nncore.softmax(_joint_log_likelihood(model, counts))


def predict_mnb(model: MnbModel, counts: CsrCounts) -> np.ndarray:
    """Labels (N,): the argmax of the unnormalized joint log-likelihood, ties
    to the smallest label index."""
    return np.argmax(_joint_log_likelihood(model, counts), axis=-1)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis. The terms are summed in sorted
    order, so equal multisets of probabilities give bit-equal entropies."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -np.sort(terms, axis=-1).sum(axis=-1)


def _igr_columns(present_by_class: np.ndarray, docs_by_class: np.ndarray) -> np.ndarray:
    """Information gain ratio of splitting documents on token presence, for
    every column of the (L, F) per-class presence table.

    IG = H(C) - H(C|T), IV = H(T); a column scores IG/IV, or 0 when its split
    is degenerate (token in all documents or none).
    """
    present = np.asarray(present_by_class, dtype=np.float64).T   # (F, L)
    totals = np.asarray(docs_by_class, dtype=np.float64)
    n = totals.sum()
    n_p = present.sum(axis=1)
    n_a = n - n_p
    with np.errstate(divide="ignore", invalid="ignore"):
        h_given = (n_p / n) * _entropy_bits(present / n_p[:, None]) \
            + (n_a / n) * _entropy_bits((totals - present) / n_a[:, None])
        iv = _entropy_bits(np.stack([n_p / n, n_a / n], axis=1))
        igr = (_entropy_bits(totals / n) - h_given) / iv
    return np.where((n_p > 0) & (n_a > 0), igr, 0.0)


def igr_scores(counts: CsrCounts, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """IGR for every feature column, using document-level presence."""
    labels = np.asarray(labels)
    f = counts.n_cols
    present = _class_table(counts, labels, n_classes)
    totals = np.bincount(labels, minlength=n_classes)
    scores = np.empty(f)
    block = max(1, nncore.BLOCK_CELLS // n_classes)
    for s in range(0, f, block):
        scores[s:s + block] = _igr_columns(present[:, s:s + block], totals)
    return scores


def select_top_percent(scores: dict[str, float], n_percent: float) -> list[str]:
    """Highest-IGR ceil(n% * |tokens|) tokens; ties by lexicographic order."""
    if not (0.0 < n_percent <= 100.0):
        raise ValueError("n_percent must be in (0, 100]")
    keep = math.ceil(n_percent / 100.0 * len(scores))
    ranked = sorted(scores, key=lambda t: (-scores[t], t))
    return ranked[:keep]


def reduce_vocab(vocab: Vocabulary, counts: CsrCounts, labels: np.ndarray,
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
    folds: int = FOLDS
    alpha: float = ALPHA
    igr_percent: Optional[float] = None

    def meta_features(self, base_labels: np.ndarray) -> CsrCounts:
        """One-hot encode the five base argmax labels as (N, 5L) counts."""
        n, k = base_labels.shape
        cols = base_labels + np.arange(k) * self.label_count
        return CsrCounts(np.arange(0, n * k + 1, k), cols.ravel(), np.ones(n * k),
                         k * self.label_count)


def fit_stacking(records, labels, label_count: int, folds: int = FOLDS,
                 alpha: float = ALPHA, igr_percent: Optional[float] = None,
                 min_count: int = 1) -> StackModel:
    """Two-layer stacking: five per-field MNB bases produce out-of-fold argmax
    labels (folds assigned round-robin by record position); a meta MNB is fit
    on their one-hot encoding; bases are then refit on all records."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
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
        for b in TEXT_FIELDS:
            vocabs[b] = reduce_vocab(vocabs[b], counts[b], labels, label_count, igr_percent)
            counts[b] = count_matrix(tokens[b], vocabs[b])

    fold_of = np.arange(n) % folds
    oof = np.zeros((n, len(BASE_FIELDS)), dtype=np.int64)
    for j in range(folds):
        held = fold_of == j
        for bi, b in enumerate(BASE_FIELDS):
            base = fit_mnb(counts[b][~held], labels[~held], label_count, alpha)
            oof[held, bi] = predict_mnb(base, counts[b][held])

    stack = StackModel(bases={}, base_vocabs=vocabs, meta=None, label_count=label_count,
                       folds=folds, alpha=alpha, igr_percent=igr_percent)
    stack.meta = fit_mnb(stack.meta_features(oof), labels, label_count, alpha)
    for b in BASE_FIELDS:
        stack.bases[b] = fit_mnb(counts[b], labels, label_count, alpha)
    return stack


def posterior_stacking(model: StackModel, records) -> np.ndarray:
    """Batch posteriors (N, L) through the stack."""
    n = len(records)
    base_labels = np.zeros((n, len(BASE_FIELDS)), dtype=np.int64)
    for bi, b in enumerate(BASE_FIELDS):
        counts = count_matrix([base_tokens(r, b) for r in records], model.base_vocabs[b])
        base_labels[:, bi] = predict_mnb(model.bases[b], counts)
    return posterior_mnb(model.meta, model.meta_features(base_labels))
