"""Mini-batch training with per-epoch dev evaluation, early stopping on dev
accuracy, and lossless model-bundle serialization.

Everything random (shuffles, dropout masks) is derived by hashing the run
seed with the epoch or step counter, so a rerun with the same seed is
bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bundle as bundle_io
from .bayes import StackModel, MnbModel, BASE_FIELDS
from .cnn import CnnConfig, CnnModel, FeatureBatch, backward, forward, predict_proba
from .cnn import init_model, load_pretrained_embeddings, param_shapes
from .encode import CategoryMaps
from .errors import BundleError, DataError
from .ingest import hash64
from .labels import LabelTable
from .nncore import AdamState, adam_step, cross_entropy_batch
from .textproc import Vocabulary, vocab_from_bytes, vocab_to_bytes


@dataclass
class TrainConfig:
    batch_size: int = 1024
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0
    lr: float = 1e-3

    def __post_init__(self):
        if self.batch_size < 1 or self.patience < 1:
            raise ValueError("batch_size and patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    dev_accuracy: float
    best_dev_accuracy: float


@dataclass
class TrainResult:
    model: CnnModel
    log: list
    best_epoch: int
    best_dev_accuracy: float


def _dev_accuracy(model: CnnModel, dev: FeatureBatch) -> float:
    """NaN when a probability is not finite."""
    probs = predict_proba(model, dev)
    if not np.isfinite(probs).all():
        return math.nan
    return float(np.mean(np.argmax(probs, axis=1) == dev.labels))


def train(train_feats: FeatureBatch, dev_feats: FeatureBatch, ccfg: CnnConfig,
          tcfg: TrainConfig, vocab_size: int, cat_block_size: int,
          vectors_path=None, vocab: Optional[Vocabulary] = None) -> TrainResult:
    """Train a freshly initialized model; keep the parameters of the epoch
    with the best dev accuracy and stop once `patience` evaluations pass
    without improvement. An epoch whose mean loss or dev probabilities are
    not finite is a ValueError."""
    if train_feats.size == 0:
        raise DataError("empty training split")
    if dev_feats.size == 0:
        raise DataError("empty dev split; early stopping needs one")
    if train_feats.labels is None or dev_feats.labels is None:
        raise ValueError("feature batches must carry labels")
    # dev labels may be -1 (a class unseen in training counts as a miss)
    y = train_feats.labels
    if y.min() < 0 or y.max() >= ccfg.label_count:
        raise DataError(f"training labels must lie in [0, {ccfg.label_count}); "
                        f"found {int(y.min())}..{int(y.max())}")

    model = init_model(ccfg, vocab_size, cat_block_size, seed=tcfg.seed)
    if vectors_path is not None:
        load_pretrained_embeddings(model, vectors_path, vocab)
    states = {name: AdamState.for_param(p, lr=tcfg.lr) for name, p in model.params.items()}

    # dev accuracy is >= 0, so the first epoch always sets best
    best, best_acc, best_epoch, stale = None, -1.0, 0, 0
    log: list[EpochLog] = []
    step = 0
    for epoch in range(1, tcfg.max_epochs + 1):
        order = np.random.default_rng(hash64(tcfg.seed, "shuffle", epoch)).permutation(train_feats.size)
        losses = []
        for s in range(0, len(order), tcfg.batch_size):
            batch = train_feats.take(order[s:s + tcfg.batch_size])
            fwd = forward(model, batch, train=True, dropout_seed=hash64(tcfg.seed, "dropout", step))
            losses.append(cross_entropy_batch(fwd.probs, batch.labels))
            grads = backward(model, fwd, batch.labels)
            for name, p in model.params.items():
                adam_step(p, grads[name], states[name])
            # the next forward and backward run without this step's arrays
            del fwd, grads
            step += 1
        loss, dev_acc = float(np.mean(losses)), _dev_accuracy(model, dev_feats)
        if not (math.isfinite(loss) and math.isfinite(dev_acc)):
            raise ValueError(f"training diverged at epoch {epoch}: mean loss {loss}, dev "
                             f"accuracy {dev_acc}; try a learning rate (--lr) below {tcfg.lr:g}")
        if dev_acc > best_acc:
            best_acc, best_epoch, stale = dev_acc, epoch, 0
            best = {name: p.copy() for name, p in model.params.items()}
        else:
            stale += 1
        log.append(EpochLog(epoch, loss, dev_acc, best_acc))
        if stale >= tcfg.patience:
            break
    model.params = best
    return TrainResult(model, log, best_epoch, best_acc)


def write_train_log(path, log: list):
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch,train_loss,dev_accuracy,best_dev_accuracy\n")
        for row in log:
            f.write(f"{row.epoch},{row.train_loss!r},{row.dev_accuracy!r},"
                    f"{row.best_dev_accuracy!r}\n")


# ---------------------------------------------------------------------------
# model bundles

_STACK_CONFIG_KEYS = ("label_count", "folds", "alpha", "igr_percent")


def _int_fields(cls) -> set:
    """The fields that dataclass `cls` declares int; a config stores them as JSON integers."""
    return {f.name for f in dataclasses.fields(cls) if f.type in (int, "int")}


class _Reader:
    """Checked access to a bundle's sections by name. A missing section, or
    one whose content does not decode to what is asked for, is a BundleError;
    `load_bundle` adds the file's name. Sections and config keys nobody asks
    for are ignored. Each section is read once: `raw` drops its bytes, so a
    load holds the decoded tensors plus the sections not yet decoded."""

    def __init__(self, sections: dict):
        self.sections = sections

    def raw(self, name: str) -> bytes:
        if name not in self.sections:
            raise BundleError(f"bundle lacks section {name!r}")
        return self.sections.pop(name)

    def checked(self, name: str, build, *args):
        """build(*args); what build rejects is a bad section `name`."""
        try:
            return build(*args)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
            raise BundleError(f"bad {name} section: {e!r}") from e

    def json(self, name: str, build):
        return self.checked(name, build, bundle_io.decode_json(self.raw(name), name))

    def config(self, keys, int_keys) -> dict:
        """The config section's values for `keys`, each of `int_keys` a JSON integer."""
        cfg = bundle_io.decode_json(self.raw("config"), "config")
        if not isinstance(cfg, dict):
            raise BundleError("config section is not a JSON object")
        for key in keys:
            if key not in cfg:
                raise BundleError(f"config section lacks key {key!r}")
            if key in int_keys and type(cfg[key]) is not int:
                raise BundleError(f"config key {key!r} is not an integer")
        return {key: cfg[key] for key in keys}

    def labels(self, count: int) -> LabelTable:
        labels = self.json("label_table",
                           lambda t: LabelTable(t["task"], t["values"], t.get("coords")))
        if len(labels) != count:
            raise BundleError(f"label table size {len(labels)} != model label count {count}")
        return labels

    def vocab(self, name: str) -> Vocabulary:
        return vocab_from_bytes(self.raw(name), f"section {name!r}")

    def tensor(self, name: str, dtype, shape: tuple) -> np.ndarray:
        """The tensor:<name> section, which must have this dtype and shape."""
        t = bundle_io.decode_tensor(self.raw(f"tensor:{name}"), name)
        if t.dtype != dtype:
            raise BundleError(f"tensor {name} is {t.dtype}, expected {np.dtype(dtype)}")
        if t.shape != shape:
            raise BundleError(f"tensor {name} has shape {t.shape}, expected {shape}")
        # NaN only: a stack prior is -inf for a class with no training documents
        if np.isnan(t).any():
            raise BundleError(f"tensor {name} holds NaN")
        return t


@dataclass
class CnnBundle:
    model: CnnModel
    vocab: Vocabulary
    maps: CategoryMaps
    labels: LabelTable


def save_model(model: CnnModel, vocab: Vocabulary, maps: CategoryMaps,
               labels: LabelTable, path):
    """Write a CNN bundle; load_model(save_model(...)) is bit-exact."""
    sections = [
        ("config", bundle_io.encode_json(dataclasses.asdict(model.config))),
        ("vocabulary", vocab_to_bytes(vocab)),
        ("category_maps", bundle_io.encode_json(maps.value_lists())),
        ("label_table", bundle_io.encode_json(dataclasses.asdict(labels))),
    ]
    sections += [(f"tensor:{n}", bundle_io.encode_tensor(p)) for n, p in model.params.items()]
    bundle_io.write_sections(path, "cnn", sections)


def _cnn_bundle(r: _Reader) -> CnnBundle:
    c = r.config([f.name for f in dataclasses.fields(CnnConfig)], _int_fields(CnnConfig))
    cfg = r.checked("config", lambda: CnnConfig(**c))
    vocab = r.vocab("vocabulary")
    maps = r.json("category_maps", CategoryMaps.from_value_lists)
    labels = r.labels(cfg.label_count)
    shapes = param_shapes(cfg, len(vocab), maps.block_size)
    params = {name: r.tensor(name, np.float32, shape) for name, shape in shapes.items()}
    return CnnBundle(CnnModel(cfg, params), vocab, maps, labels)


@dataclass
class StackBundle:
    model: StackModel
    labels: LabelTable


def _stack_layout():
    """Each MNB of a stack in bundle order (the bases, then the meta model)
    as (tag, vocabulary section or None, prior tensor, log-prob tensor)."""
    for tag in BASE_FIELDS + ("meta",):
        yield tag, None if tag == "meta" else f"vocab:{tag}", f"{tag}:prior", f"{tag}:log_prob"


def save_stack_model(model: StackModel, labels: LabelTable, path):
    config = {k: getattr(model, k) for k in _STACK_CONFIG_KEYS}
    sections = [
        ("config", bundle_io.encode_json(config)),
        ("label_table", bundle_io.encode_json(dataclasses.asdict(labels))),
    ]
    for tag, vocab, prior, log_prob in _stack_layout():
        mnb = model.meta if vocab is None else model.bases[tag]
        if vocab is not None:
            sections.append((vocab, vocab_to_bytes(model.base_vocabs[tag])))
        sections += [(f"tensor:{prior}", bundle_io.encode_tensor(mnb.class_log_prior)),
                     (f"tensor:{log_prob}", bundle_io.encode_tensor(mnb.feature_log_prob))]
    bundle_io.write_sections(path, "stack", sections)


def _stack_bundle(r: _Reader) -> StackBundle:
    cfg = r.config(_STACK_CONFIG_KEYS, _int_fields(StackModel))
    n_labels = cfg["label_count"]
    labels = r.labels(n_labels)
    vocabs, mnbs = {}, {}
    for tag, vocab, prior, log_prob in _stack_layout():
        if vocab is not None:
            vocabs[tag] = r.vocab(vocab)
        n_features = len(BASE_FIELDS) * n_labels if vocab is None else len(vocabs[tag])
        mnbs[tag] = MnbModel(r.tensor(prior, np.float64, (n_labels,)),
                             r.tensor(log_prob, np.float64, (n_labels, n_features)))
    meta = mnbs.pop("meta")
    return StackBundle(StackModel(bases=mnbs, base_vocabs=vocabs, meta=meta, **cfg), labels)


def load_bundle(path, expect: Optional[str] = None):
    """A CnnBundle or StackBundle, by the model type the file declares; the
    file is read once. With `expect`, any other model type is a BundleError.
    Every BundleError names `path`, once."""
    try:
        model_type, sections = bundle_io.read_sections(path)
        loader = {"cnn": _cnn_bundle, "stack": _stack_bundle}.get(model_type)
        if loader is None or expect not in (None, model_type):
            raise BundleError(f"expected a {expect or 'cnn or stack'} bundle, "
                              f"found {model_type!r}")
        return loader(_Reader(sections))
    except DataError as e:      # a vocabulary section's error is a plain DataError
        raise BundleError(f"{path}: {e}") from e


def load_model(path) -> CnnBundle:
    return load_bundle(path, "cnn")


def load_stack_model(path) -> StackBundle:
    return load_bundle(path, "stack")
