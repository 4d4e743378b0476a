"""Multi-field convolutional text classifier.

Per text field: embedding lookup -> windowed convolution with ReLU ->
max-over-time pooling. Pooled features from the four fields are concatenated
(field-major, windows ascending inside a field), dropout is applied, the
categorical one-hot block is appended, and a softmax layer produces the
label distribution.

Backward passes are written by hand; gradients flow only to the argmax
pooling position of each filter (first position on ties) and never to the
PAD embedding row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import nncore, textproc
from .encode import CategoryMaps, onehot_block
from .errors import DataError
from .textproc import Vocabulary, encode_tokens, tokenize

FIELDS = ("text", "user_description", "profile_location", "user_name")

DEFAULT_MAX_LENS = {"text": 50, "user_description": 50, "profile_location": 10, "user_name": 5}


@dataclass
class CnnConfig:
    embed_dim: int = 300
    windows: tuple[int, ...] = (3, 4, 5)
    filters_per_window: int = 128
    dropout_rate: float = 0.5
    max_lens: dict = dc_field(default_factory=lambda: dict(DEFAULT_MAX_LENS))
    label_count: int = 2
    share_filters: bool = True

    def __post_init__(self):
        self.windows = tuple(sorted(set(int(h) for h in self.windows)))
        if not self.windows or self.windows[0] < 1:
            raise ValueError("windows must be positive integers")
        if self.embed_dim < 1 or self.filters_per_window < 1 or self.label_count < 1:
            raise ValueError("embed_dim, filters_per_window and label_count must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        if set(self.max_lens) != set(FIELDS):
            raise ValueError(f"max_lens must cover exactly the fields {FIELDS}")
        # every window must fit in every (padded) field matrix
        shortest = min(self.max_lens.values())
        if self.windows[-1] > shortest:
            raise ValueError(
                f"largest window {self.windows[-1]} exceeds shortest field length {shortest}")

    @property
    def pooled_size(self) -> int:
        return len(FIELDS) * len(self.windows) * self.filters_per_window


def conv_names(config: CnnConfig, field: str, h: int) -> tuple[str, str]:
    """Names of the filter bank and bias that window h applies to `field`."""
    tag = f"h{h}" if config.share_filters else f"{field}_h{h}"
    return f"conv_w_{tag}", f"conv_b_{tag}"


def param_shapes(config: CnnConfig, vocab_size: int, cat_block_size: int) -> dict[str, tuple]:
    """The parameter layout: tensor name -> shape, in the fixed order used by
    initialization, training and bundles."""
    k, m = config.embed_dim, config.filters_per_window
    shapes = {"embedding": (vocab_size, k)}
    # a shared bank is named once, not once per field
    for f in FIELDS[:1] if config.share_filters else FIELDS:
        for h in config.windows:
            w, b = conv_names(config, f, h)
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
    cat_block_size: int

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

    def astype(self, dtype) -> "CnnModel":
        """Copy of the model with all tensors cast to dtype (for 64-bit checks)."""
        return CnnModel(self.config, {n: p.astype(dtype) for n, p in self.params.items()},
                        self.cat_block_size)


def init_model(config: CnnConfig, vocab_size: int, cat_block_size: int,
               seed: int = 0, dtype=np.float32) -> CnnModel:
    """Seeded initialization in `param_shapes` order: the embedding uniform in
    [-0.25, 0.25] (PAD row zero), every other matrix Glorot-uniform with bound
    sqrt(6 / (rows + cols)), biases zero."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config, vocab_size, cat_block_size).items():
        if name == "embedding":
            p = rng.uniform(-0.25, 0.25, size=shape).astype(dtype)
            p[textproc.PAD_INDEX] = 0.0
        elif len(shape) == 2:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            p = rng.uniform(-bound, bound, size=shape).astype(dtype)
        else:
            p = np.zeros(shape, dtype=dtype)
        params[name] = p
    return CnnModel(config, params, cat_block_size)


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


def field_matrix(indices, model: CnnModel) -> np.ndarray:
    """Embedding rows for one encoded field; PAD rows are zero."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= model.vocab_size):
        raise ValueError("token index out of vocabulary range")
    return model.embedding[idx]


def _windows(X: np.ndarray, h: int) -> np.ndarray:
    """(B, n, k) -> (B, n-h+1, h*k): each row the h stacked word vectors."""
    n = X.shape[1]
    if n < h:
        raise ValueError(f"field length {n} shorter than window {h}")
    p = n - h + 1
    return np.concatenate([X[:, o:o + p, :] for o in range(h)], axis=2)


@dataclass
class ForwardPass:
    probs: np.ndarray        # (B, L)
    theta_hat: np.ndarray    # (B, D) pooled features (post-dropout) + one-hot block
    _caches: list            # per (field, window): (idx, xw, pre, arg)
    _mask: np.ndarray        # dropout mask with survivor scaling
    _theta_dim: int


def forward(model: CnnModel, batch: FeatureBatch, train: bool = False,
            dropout_seed: int = 0) -> ForwardPass:
    """Run the classifier over a batch; train mode applies dropout to the
    pooled vector before the categorical block is appended."""
    cfg = model.config
    pooled_parts, caches = [], []
    for f in FIELDS:
        idx = batch.tokens[f]
        X = field_matrix(idx, model)
        for h in cfg.windows:
            w, b = conv_names(cfg, f, h)
            xw = _windows(X, h)                                  # (B, P, h*k)
            pre = xw @ model.params[w].T + model.params[b]       # (B, P, m)
            act = nncore.relu(pre)
            pooled_parts.append(act.max(axis=1))
            caches.append((idx, xw, pre, act.argmax(axis=1)))
    theta = np.concatenate(pooled_parts, axis=1)                 # (B, 4*sum(m))
    theta, mask = nncore.dropout(theta, cfg.dropout_rate, train=train, seed=dropout_seed)

    onehot = np.zeros((batch.size, model.cat_block_size), dtype=model.dtype)
    np.put_along_axis(onehot, batch.cat_positions, 1.0, axis=1)
    theta_hat = np.concatenate([theta, onehot], axis=1)          # (B, D)
    logits = theta_hat @ model.softmax_w.T + model.softmax_b
    return ForwardPass(nncore.softmax(logits), theta_hat, caches, mask, theta.shape[1])


def backward(model: CnnModel, fwd: ForwardPass, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy over the batch for every
    trainable tensor. The PAD embedding row stays exactly zero."""
    cfg = model.config
    b_sz = fwd.probs.shape[0]
    m = cfg.filters_per_window

    dlogits = fwd.probs.copy()
    dlogits[np.arange(b_sz), labels] -= 1.0
    dlogits /= b_sz

    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    grads["softmax_w"] = dlogits.T @ fwd.theta_hat
    grads["softmax_b"] = dlogits.sum(axis=0)

    dtheta_hat = dlogits @ model.softmax_w
    dtheta = dtheta_hat[:, :fwd._theta_dim] * fwd._mask

    ci = 0
    col = 0
    for f in FIELDS:
        dX_by_field = None
        idx_field = None
        for h in cfg.windows:
            w, b = conv_names(cfg, f, h)
            idx, xw, pre, arg = fwd._caches[ci]
            ci += 1
            dpooled = dtheta[:, col:col + m]
            col += m

            # gradient reaches only the argmax position, gated by ReLU there
            pre_at = np.take_along_axis(pre, arg[:, None, :], axis=1)[:, 0, :]
            dval = dpooled * (pre_at > 0)
            dpre = np.zeros_like(pre)
            np.put_along_axis(dpre, arg[:, None, :], dval[:, None, :], axis=1)

            grads[w] += np.tensordot(dpre, xw, axes=([0, 1], [0, 1]))
            grads[b] += dpre.sum(axis=(0, 1))

            dxw = dpre @ model.params[w]                         # (B, P, h*k)
            k = cfg.embed_dim
            p = xw.shape[1]
            if dX_by_field is None:
                dX_by_field = np.zeros((b_sz, idx.shape[1], k), dtype=model.dtype)
                idx_field = idx
            for o in range(h):
                dX_by_field[:, o:o + p, :] += dxw[:, :, o * k:(o + 1) * k]
        np.add.at(grads["embedding"], idx_field, dX_by_field)
    grads["embedding"][textproc.PAD_INDEX] = 0.0
    return grads


def load_pretrained_embeddings(model: CnnModel, path, vocab: Vocabulary) -> int:
    """Overwrite embedding rows for vocabulary words found in a text vector
    file ("<count> <dim>" header, then "word v1 .. v_dim" lines). Words not
    in the file keep their random init; PAD stays zero. Returns the number
    of rows replaced."""
    with open(path, encoding="utf-8") as f:
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
                    model.embedding[i] = np.array([float(v) for v in cols[1:]],
                                                  dtype=model.dtype)
                except ValueError as e:
                    raise DataError(f"{path}:{ln}: bad float: {e}") from e
                loaded += 1
    return loaded


def predict_proba(model: CnnModel, batch: FeatureBatch, batch_size: int = 256) -> np.ndarray:
    """Inference-mode probabilities over the whole batch, chunked."""
    outs = []
    for s in range(0, batch.size, batch_size):
        idx = np.arange(s, min(s + batch_size, batch.size))
        outs.append(forward(model, batch.take(idx), train=False).probs)
    return np.concatenate(outs, axis=0)
