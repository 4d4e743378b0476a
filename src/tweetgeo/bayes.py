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
from .encode import categorical_tokens
from .ingest import TEXT_FIELDS
from .labels import TASK_CITY, TASK_COUNTRY
from .textproc import PAD_TOKEN, UNK_INDEX, UNK_TOKEN, Vocabulary, ranked, tokenize

BASE_FIELDS = TEXT_FIELDS + ("cats",)

FOLDS = 5                # stacking cross-validation folds
ALPHA = 1e-2             # additive smoothing of every MNB
IGR_DEFAULTS = {TASK_CITY: 40.0, TASK_COUNTRY: 55.0}   # STACKING+'s IGR top percent per task


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


def _csr_counts(indptr: np.ndarray, cols: np.ndarray, n_cols: int) -> CsrCounts:
    """Counts of each row's columns, row i listing cols[indptr[i]:indptr[i+1]]."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    cells, counts = np.unique(rows * n_cols + cols, return_counts=True)
    return CsrCounts(_indptr(cells // n_cols, n), cells % n_cols, counts.astype(np.float64),
                     n_cols)


def _base_counts(indptr: np.ndarray, ids: np.ndarray, kept: np.ndarray, n_tokens: int):
    """`_csr_counts` of token ids in the columns of a vocabulary of the ids `kept`."""
    col = np.full(n_tokens, UNK_INDEX, dtype=np.int64)
    col[kept] = np.arange(2, len(kept) + 2)
    return _csr_counts(indptr, col[ids], len(kept) + 2)


def count_matrix(token_lists, vocab: Vocabulary) -> CsrCounts:
    """Bag-of-words counts (N, |vocab|); out-of-vocabulary tokens count as UNK."""
    cols = np.array([vocab.index(t) for t in chain.from_iterable(token_lists)], dtype=np.int64)
    lens = np.cumsum([len(toks) for toks in token_lists], dtype=np.int64)
    return _csr_counts(np.concatenate(([0], lens)), cols, len(vocab))


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


def _joint_log_likelihood(model: MnbModel, counts: CsrCounts):
    """Yield (r0, r1, block): block is log P(c) + sum_f count_f * log P(f|c)
    of rows r0..r1-1, (r1 - r0, L), at most BLOCK_CELLS // L rows and as many
    stored cells; a gather of log P(f|c) at the cells, summed per row."""
    if counts.n_cols != model.feature_log_prob.shape[1]:
        raise ValueError(f"counts have {counts.n_cols} features, the model "
                         f"{model.feature_log_prob.shape[1]}")
    n, indptr = counts.shape[0], counts.indptr
    log_prob_t = model.feature_log_prob.T
    budget = max(1, nncore.BLOCK_CELLS // model.n_classes)
    r0 = 0
    while r0 < n:
        r1 = min(n, r0 + budget,
                 max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + budget, "right")) - 1))
        a, b = indptr[r0], indptr[r1]
        jll = np.zeros((r1 - r0, model.n_classes))
        filled = indptr[r0:r1] < indptr[r0 + 1:r1 + 1]
        if b > a:
            cells = log_prob_t[counts.indices[a:b]] * counts.counts[a:b, None]
            jll[filled] = np.add.reduceat(cells, indptr[r0:r1][filled] - a, axis=0)
        jll += model.class_log_prior
        yield r0, r1, jll
        r0 = r1


def posterior_mnb(model: MnbModel, counts: CsrCounts) -> np.ndarray:
    """Normalized class posteriors (N, L) of a count matrix."""
    jll = np.empty((counts.shape[0], model.n_classes))
    for r0, r1, block in _joint_log_likelihood(model, counts):
        jll[r0:r1] = block
    return nncore.softmax(jll)


def predict_mnb(model: MnbModel, counts: CsrCounts) -> np.ndarray:
    """Labels (N,): the argmax of the unnormalized joint log-likelihood, ties
    to the smallest label index, taken one row block at a time."""
    labels = np.empty(counts.shape[0], dtype=np.int64)
    for r0, r1, block in _joint_log_likelihood(model, counts):
        labels[r0:r1] = np.argmax(block, axis=-1)
    return labels


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


@dataclass
class StackModel:
    bases: dict                      # base field -> MnbModel
    base_vocabs: dict                # base field -> Vocabulary
    meta: MnbModel
    label_count: int
    igr_percent: Optional[float] = None

    def meta_features(self, base_labels: np.ndarray) -> CsrCounts:
        """One-hot encode the five base argmax labels as (N, 5L) counts."""
        n, k = base_labels.shape
        cols = base_labels + np.arange(k) * self.label_count
        return CsrCounts(np.arange(0, n * k + 1, k), cols.ravel(), np.ones(n * k),
                         k * self.label_count)


def fit_stacking(columns, labels, label_count: int, igr_percent: Optional[float] = None,
                 min_count: int = 1) -> StackModel:
    """Two-layer stacking over the records of `columns` (a `TokenColumns`,
    which `columns.token_columns` builds): five per-field MNB bases produce
    out-of-fold argmax labels (FOLDS folds, assigned round-robin by record
    position); a meta MNB is fit on their one-hot encoding; bases are then
    refit on all records. Every MNB smooths with ALPHA."""
    if igr_percent is not None and not 0.0 < igr_percent <= 100.0:
        raise ValueError(f"igr_percent must be in (0, 100], got {igr_percent}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    n, n_tokens = len(columns), len(columns.tokens)
    labels = np.asarray(labels, dtype=np.int64)
    if n < FOLDS:
        raise ValueError(f"stacking's {FOLDS} folds need at least {FOLDS} records, got {n}")

    vocabs, counts = {}, {}
    for b in BASE_FIELDS:
        indptr, ids = columns.base(b)
        kept = ranked(np.bincount(ids, minlength=n_tokens), min_count)
        if igr_percent is not None and b in TEXT_FIELDS:
            # STACKING+ keeps the top igr_percent of the tokens by IGR, ties in token order
            kept = np.sort(kept)
            scores = igr_scores(_base_counts(indptr, ids, kept, n_tokens), labels, label_count)
            kept = kept[ranked(scores[2:], -np.inf)[:math.ceil(igr_percent / 100.0 * len(kept))]]
        vocabs[b] = Vocabulary([PAD_TOKEN, UNK_TOKEN] + [columns.tokens[i] for i in kept.tolist()],
                               min_count=min_count)
        counts[b] = _base_counts(indptr, ids, kept, n_tokens)

    fold_of = np.arange(n) % FOLDS
    oof = np.zeros((n, len(BASE_FIELDS)), dtype=np.int64)
    for j in range(FOLDS):
        held = fold_of == j
        for bi, b in enumerate(BASE_FIELDS):
            base = fit_mnb(counts[b][~held], labels[~held], label_count)
            oof[held, bi] = predict_mnb(base, counts[b][held])

    stack = StackModel(bases={}, base_vocabs=vocabs, meta=None, label_count=label_count,
                       igr_percent=igr_percent)
    stack.meta = fit_mnb(stack.meta_features(oof), labels, label_count)
    for b in BASE_FIELDS:
        stack.bases[b] = fit_mnb(counts[b], labels, label_count)
    return stack


def posterior_stacking(model: StackModel, records) -> np.ndarray:
    """Batch posteriors (N, L) through the stack."""
    n = len(records)
    base_labels = np.zeros((n, len(BASE_FIELDS)), dtype=np.int64)
    for bi, b in enumerate(BASE_FIELDS):
        counts = count_matrix([base_tokens(r, b) for r in records], model.base_vocabs[b])
        base_labels[:, bi] = predict_mnb(model.bases[b], counts)
    return posterior_mnb(model.meta, model.meta_features(base_labels))
