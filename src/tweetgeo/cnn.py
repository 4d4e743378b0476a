"""Multi-field convolutional text classifier.

Per text field: embedding lookup -> windowed convolution with ReLU ->
max-over-time pooling. There is one filter bank per window size, and every
field is convolved with the same banks. Pooled features from the four fields
are concatenated (field-major, windows ascending inside a field), dropout is
applied, the categorical one-hot block is appended, and a softmax layer
produces the label distribution.

The convolution is computed once per distinct token of a batch rather than
once per window position, and pooling stops at each field's first window
that is PAD in every record of the batch (see `forward`). Scoring
(`predict_proba`) keeps no argmax, since no backward follows. Backward
passes are written by hand; gradients flow only to the argmax pooling
position of each filter (first position on ties) and never to the PAD
embedding row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import nncore, textproc
from .encode import CategoryMaps, onehot_block
from .errors import DataError, open_utf8
from .ingest import TEXT_FIELDS
from .textproc import Vocabulary, encode_tokens, tokenize

FIELDS = TEXT_FIELDS
# the fields whose tokens make up the word vocabulary; user_name is encoded
# with it but adds no words
VOCAB_FIELDS = ("text", "user_description", "profile_location")
INFER_BATCH = 256   # records per forward pass in predict_proba

DEFAULT_MAX_LENS = {"text": 50, "user_description": 50, "profile_location": 10, "user_name": 5}
# the longest field matrix a config may ask for; a tweet holds <= 280 characters
MAX_FIELD_LEN = 1024


@dataclass
class CnnConfig:
    embed_dim: int = 300
    windows: tuple[int, ...] = (3, 4, 5)
    filters_per_window: int = 128
    dropout_rate: float = 0.5
    max_lens: dict = dc_field(default_factory=lambda: dict(DEFAULT_MAX_LENS))
    label_count: int = 2

    def __post_init__(self):
        if set(self.max_lens) != set(FIELDS):
            raise ValueError(f"max_lens must cover exactly the fields {FIELDS}")
        # a float, string or bool size would be truncated or reach a slice
        if any(type(n) is not int for n in (*self.windows, *self.max_lens.values())):
            raise ValueError("windows and max_lens must be integers")
        if max(self.max_lens.values()) > MAX_FIELD_LEN:
            raise ValueError(f"max_lens must be <= {MAX_FIELD_LEN}, got {self.max_lens}")
        self.windows = tuple(sorted(set(self.windows)))
        if not self.windows or self.windows[0] < 1:
            raise ValueError("windows must be positive integers")
        if self.embed_dim < 1 or self.filters_per_window < 1 or self.label_count < 1:
            raise ValueError("embed_dim, filters_per_window and label_count must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        # every window must fit in every (padded) field matrix
        shortest = min(self.max_lens.values())
        if self.windows[-1] > shortest:
            raise ValueError(
                f"largest window {self.windows[-1]} exceeds shortest field length {shortest}")

    @property
    def pooled_size(self) -> int:
        return len(FIELDS) * len(self.windows) * self.filters_per_window


def conv_names(h: int) -> tuple[str, str]:
    """Names of the filter bank and bias of window h, shared by every field."""
    return f"conv_w_h{h}", f"conv_b_h{h}"


def param_shapes(config: CnnConfig, vocab_size: int, cat_block_size: int) -> dict[str, tuple]:
    """The parameter layout: tensor name -> shape, in the fixed order used by
    initialization, training and bundles."""
    k, m = config.embed_dim, config.filters_per_window
    shapes = {"embedding": (vocab_size, k)}
    for h in config.windows:
        w, b = conv_names(h)
        shapes[w] = (m, h * k)
        shapes[b] = (m,)
    shapes["softmax_w"] = (config.label_count, config.pooled_size + cat_block_size)
    shapes["softmax_b"] = (config.label_count,)
    return shapes


@dataclass
class CnnModel:
    """The configuration plus every trainable tensor, keyed by name in
    `param_shapes` order."""

    config: CnnConfig
    params: dict                               # name -> ndarray

    @property
    def embedding(self) -> np.ndarray:
        """(V, k); row 0 is PAD, frozen at zero."""
        return self.params["embedding"]

    @property
    def softmax_w(self) -> np.ndarray:
        return self.params["softmax_w"]

    @property
    def softmax_b(self) -> np.ndarray:
        return self.params["softmax_b"]

    @property
    def dtype(self):
        return self.embedding.dtype

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def cat_block_size(self) -> int:
        return self.softmax_w.shape[1] - self.config.pooled_size

    def astype(self, dtype) -> "CnnModel":
        """Copy of the model with all tensors cast to dtype (for 64-bit checks)."""
        return CnnModel(self.config, {n: p.astype(dtype) for n, p in self.params.items()})


def init_model(config: CnnConfig, vocab_size: int, cat_block_size: int,
               seed: int = 0) -> CnnModel:
    """Seeded initialization in `param_shapes` order: the embedding uniform in
    [-0.25, 0.25] (PAD row zero), every other matrix Glorot-uniform with bound
    sqrt(6 / (rows + cols)), biases zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config, vocab_size, cat_block_size).items():
        if name == "embedding":
            p = rng.uniform(-0.25, 0.25, size=shape).astype(np.float32)
            p[textproc.PAD_INDEX] = 0.0
        elif len(shape) == 2:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            p = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        else:
            p = np.zeros(shape, dtype=np.float32)
        params[name] = p
    return CnnModel(config, params)


# ---------------------------------------------------------------------------
# feature assembly

@dataclass
class FeatureBatch:
    """Encoded inputs for a batch: per-field token index matrices plus the
    four active positions of each record's categorical one-hot block."""

    tokens: dict                 # field -> (B, max_len) int64
    cat_positions: np.ndarray    # (B, 4) int64
    labels: Optional[np.ndarray] = None   # (B,) int64, -1 for unknown

    @property
    def size(self) -> int:
        return self.cat_positions.shape[0]

    def take(self, idx: np.ndarray) -> "FeatureBatch":
        return FeatureBatch(
            tokens={f: t[idx] for f, t in self.tokens.items()},
            cat_positions=self.cat_positions[idx],
            labels=None if self.labels is None else self.labels[idx],
        )


def encode_features(records, vocab: Vocabulary, maps: CategoryMaps,
                    config: CnnConfig, labels: Optional[np.ndarray] = None) -> FeatureBatch:
    """Tokenize + index the four text fields and the categorical block."""
    tokens = {}
    for f in FIELDS:
        n = config.max_lens[f]
        tokens[f] = np.array(
            [encode_tokens(tokenize(getattr(r, f)), vocab, n) for r in records],
            dtype=np.int64).reshape(len(records), n)
    cat = np.array([onehot_block(r, maps) for r in records], dtype=np.int64).reshape(
        len(records), 4)
    return FeatureBatch(tokens=tokens, cat_positions=cat, labels=labels)


def _stacked_filters(model: CnnModel) -> np.ndarray:
    """(sum(h)*m, k): the offset slices of every window's filters,
    window-major; row block (h, o) is W_h[:, o*k:(o+1)*k]."""
    cfg = model.config
    k, m = cfg.embed_dim, cfg.filters_per_window
    return np.concatenate([
        model.params[conv_names(h)[0]].reshape(m, h, k).transpose(1, 0, 2)
        .reshape(h * m, k) for h in cfg.windows])


def _block_offsets(config: CnnConfig) -> dict[int, int]:
    """Window h -> first column of its row blocks in `_stacked_filters`."""
    offsets, c = {}, 0
    for h in config.windows:
        offsets[h] = c
        c += h * config.filters_per_window
    return offsets


@dataclass
class ForwardPass:
    probs: np.ndarray        # (B, L)
    theta_hat: np.ndarray    # (B, D) pooled features (post-dropout) + one-hot block
    _uniq: np.ndarray        # (U,) the batch's distinct token ids, ascending
    _inv: dict               # field -> (B, n) int64 index of each position's token in _uniq
    _pools: dict             # (field, h) -> (argmax (B, m), ReLU gate (B, m) bool)
    _mask: np.ndarray        # dropout mask with survivor scaling; None without keep_pools


def forward(model: CnnModel, batch: FeatureBatch, train: bool = False,
            dropout_seed: int = 0) -> ForwardPass:
    """Run the classifier over a batch; train mode applies dropout to the
    pooled vector before the categorical block is appended. In either mode
    the pass keeps what `backward` reads.

    The filters are multiplied once per distinct token of the batch, over all
    four fields: Zu = E[uniq] @ Wcat.T, and window h at position p
    pre-activates to b_h + sum_o Zu[token at p+o, block (h, o)]. The PAD row
    of E is zero, so an all-PAD window gives exactly b_h.

    Pooling stops at the first all-PAD window of each field: if the batch's
    last real token of a field sits in column last - 1, window h is pooled
    over positions [0, min(P, last + 1)). Every later window is also all PAD,
    so it gets the same value as the one at `last`; neither the max nor the
    first-max position changes."""
    return _forward(model, batch, train, dropout_seed, keep_pools=True)


def _forward(model: CnnModel, batch: FeatureBatch, train: bool, dropout_seed: int,
             keep_pools: bool) -> ForwardPass:
    """`forward`; without keep_pools (inference only) it skips the argmax, the
    ReLU gate and the dropout mask that only `backward` reads, and the pass it
    returns cannot be back-propagated."""
    cfg = model.config
    m = cfg.filters_per_window
    offsets = _block_offsets(cfg)
    tokens = {f: np.asarray(batch.tokens[f], dtype=np.int64) for f in FIELDS}
    for f, t in tokens.items():
        if t.shape[1] < cfg.windows[-1]:
            raise ValueError(f"field {f} length {t.shape[1]} shorter than window "
                             f"{cfg.windows[-1]}")
    uniq, inv = _distinct(np.concatenate([t.ravel() for t in tokens.values()]),
                          model.vocab_size)
    zu = model.embedding[uniq] @ _stacked_filters(model).T              # (U, sum(h)*m)
    inv_by_field, pools, pooled = {}, {}, {}
    start = 0
    for f, t in tokens.items():
        inv_f = inv_by_field[f] = inv[start:start + t.size].reshape(t.shape)
        start += t.size
        real = np.flatnonzero((t != textproc.PAD_INDEX).any(axis=0))
        last = real[-1] + 1 if real.size else 0        # one past the last real column
        for h in cfg.windows:
            p = min(t.shape[1] - h + 1, last + 1)
            c = offsets[h]
            act = zu[inv_f[:, :p], c:c + m]                              # (B, p, m)
            for o in range(1, h):
                act += zu[inv_f[:, o:o + p], c + o * m:c + (o + 1) * m]
            act += model.params[conv_names(h)[1]]
            np.maximum(act, 0, out=act)
            top = pooled[f, h] = act.max(axis=1)
            if keep_pools:
                arg = (act == top[:, None, :]).argmax(axis=1)            # first max
                pools[f, h] = (arg, top > 0)
    theta = np.concatenate([pooled[f, h] for f in FIELDS for h in cfg.windows], axis=1)
    mask = None
    if keep_pools:
        theta, mask = nncore.dropout(theta, cfg.dropout_rate, train=train, seed=dropout_seed)

    onehot = np.zeros((batch.size, model.cat_block_size), dtype=model.dtype)
    np.put_along_axis(onehot, batch.cat_positions, 1.0, axis=1)
    theta_hat = np.concatenate([theta, onehot], axis=1)          # (B, D)
    logits = theta_hat @ model.softmax_w.T + model.softmax_b
    return ForwardPass(nncore.softmax(logits), theta_hat, uniq, inv_by_field, pools, mask)


def _distinct(ids: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct ids and each id's index among them, as
    np.unique(ids, return_inverse=True) gives them, through a presence table
    over the vocabulary."""
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError("token index out of vocabulary range")
    present = np.zeros(vocab_size, dtype=bool)
    present[ids] = True
    uniq = np.flatnonzero(present)
    slot = np.zeros(vocab_size, dtype=np.int64)
    slot[uniq] = np.arange(uniq.size)
    return uniq, slot[ids]


def backward(model: CnnModel, fwd: ForwardPass, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy over the batch for every
    trainable tensor, in `model.params` order. The PAD embedding row stays
    exactly zero.

    The max-pool gradient reaches one position per (record, filter); its
    value lands, per window offset, on one (distinct token, filter column)
    cell of dZu, the gradient of Zu. Then dWcat = dZu.T @ E[uniq] and
    dE[uniq] = dZu @ Wcat. The dense (V, k) embedding gradient is allocated
    last, once dZu and dWcat are gone, so it is the step's only array the
    size of the vocabulary."""
    cfg = model.config
    b_sz = fwd.probs.shape[0]
    k, m = cfg.embed_dim, cfg.filters_per_window
    offsets = _block_offsets(cfg)

    dlogits = fwd.probs.copy()
    dlogits[np.arange(b_sz), labels] -= 1.0
    dlogits /= b_sz

    grads = {name: np.zeros_like(p) for name, p in model.params.items() if name != "embedding"}
    grads["softmax_w"] = dlogits.T @ fwd.theta_hat
    grads["softmax_b"] = dlogits.sum(axis=0)

    dtheta_hat = dlogits @ model.softmax_w
    dtheta = dtheta_hat[:, :cfg.pooled_size] * fwd._mask

    width = sum(cfg.windows) * m                  # columns of Zu
    dzu = np.zeros((fwd._uniq.size, width), dtype=model.dtype)
    flat, filters, col = dzu.reshape(-1), np.arange(m), 0   # col: first column of (f, h) in theta
    for f in FIELDS:
        inv_f = fwd._inv[f]
        rows = np.arange(b_sz)[:, None] * inv_f.shape[1]
        for h in cfg.windows:
            arg, gate = fwd._pools[f, h]
            dval = dtheta[:, col:col + m] * gate                         # (B, m)
            col += m
            grads[conv_names(h)[1]] += dval.sum(axis=0)
            at = rows + arg                          # flat (record, argmax) positions
            # add.at accumulates in index order, offset after offset; 1-D
            # index arrays take its fast path
            for o in range(h):
                cells = inv_f.take(at + o) * width + (offsets[h] + o * m + filters)
                np.add.at(flat, cells.ravel(), dval.ravel())
    dw = dzu.T @ model.embedding[fwd._uniq]                              # (sum(h)*m, k)
    for h in cfg.windows:
        g = grads[conv_names(h)[0]].reshape(m, h, k)
        g += dw[offsets[h]:offsets[h] + h * m].reshape(h, m, k).transpose(1, 0, 2)
    du = dzu @ _stacked_filters(model)                                  # (U, k)
    del dzu, flat, dw
    grads["embedding"] = np.zeros_like(model.embedding)
    grads["embedding"][fwd._uniq] += du
    grads["embedding"][textproc.PAD_INDEX] = 0.0
    return {name: grads[name] for name in model.params}


def load_pretrained_embeddings(model: CnnModel, path, vocab: Vocabulary) -> int:
    """Overwrite embedding rows for vocabulary words found in a text vector
    file ("<count> <dim>" header, then "word v1 .. v_dim" lines). Words not
    in the file keep their random init; PAD stays zero. Returns the number
    of rows replaced."""
    with open_utf8(path) as f:
        header = f.readline().strip()
        if not header:
            return 0
        parts = header.split()
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise DataError(f"{path}:1: header must be '<count> <dim>'")
        count, dim = int(parts[0]), int(parts[1])
        if count and dim != model.config.embed_dim:
            raise DataError(
                f"{path}: vector dim {dim} != model embed_dim {model.config.embed_dim}")
        loaded = 0
        for ln, line in enumerate(f, start=2):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split(" ")
            if len(cols) != dim + 1:
                raise DataError(f"{path}:{ln}: expected word + {dim} values, got {len(cols)}")
            word = cols[0]
            if word in vocab:
                i = vocab.token_to_index[word]
                if i == textproc.PAD_INDEX:
                    continue
                try:
                    row = np.array([float(v) for v in cols[1:]])
                except ValueError as e:
                    raise DataError(f"{path}:{ln}: bad float: {e}") from e
                # NaN fails the comparison; a float32 row takes no value past its range
                if not np.all(np.abs(row) <= np.finfo(model.dtype).max):
                    raise DataError(f"{path}:{ln}: values must be finite and within "
                                    f"{model.dtype} range")
                model.embedding[i] = row
                loaded += 1
    return loaded


def predict_proba(model: CnnModel, batch: FeatureBatch) -> np.ndarray:
    """Inference-mode probabilities over the whole batch, INFER_BATCH records
    at a time. No argmax, ReLU gate or dropout mask is kept, since no backward
    follows. A batch of 0 records gives a (0, L) matrix, as `forward` does."""
    outs = []
    for s in range(0, max(batch.size, 1), INFER_BATCH):
        idx = np.arange(s, min(s + INFER_BATCH, batch.size))
        outs.append(_forward(model, batch.take(idx), False, 0, keep_pools=False).probs)
    return np.concatenate(outs, axis=0)
