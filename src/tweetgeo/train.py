"""Mini-batch training with per-epoch dev evaluation, early stopping on dev
accuracy, and lossless model-bundle serialization.

Everything random (shuffles, dropout masks) is derived by hashing the run
seed with the epoch or step counter, so a rerun with the same seed is
bit-identical.
"""

from __future__ import annotations

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
    probs = predict_proba(model, dev)
    return float(np.mean(np.argmax(probs, axis=1) == dev.labels))


def train(train_feats: FeatureBatch, dev_feats: FeatureBatch, ccfg: CnnConfig,
          tcfg: TrainConfig, vocab_size: int, cat_block_size: int,
          vectors_path=None, vocab: Optional[Vocabulary] = None) -> TrainResult:
    """Train a freshly initialized model; keep the parameters of the epoch
    with the best dev accuracy and stop once `patience` evaluations pass
    without improvement."""
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

    best = {name: p.copy() for name, p in model.params.items()}
    best_acc, best_epoch, stale = -1.0, 0, 0
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
            step += 1
        dev_acc = _dev_accuracy(model, dev_feats)
        if dev_acc > best_acc:
            best_acc, best_epoch, stale = dev_acc, epoch, 0
            best = {name: p.copy() for name, p in model.params.items()}
        else:
            stale += 1
        log.append(EpochLog(epoch, float(np.mean(losses)), dev_acc, best_acc))
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

_CNN_CONFIG_KEYS = ("embed_dim", "windows", "filters_per_window", "dropout_rate", "max_lens",
                   "label_count", "share_filters", "cat_block_size", "vocab_size")
_STACK_CONFIG_KEYS = ("label_count", "folds", "alpha", "igr_percent")
_CNN_INT_KEYS = ("embed_dim", "filters_per_window", "label_count", "cat_block_size",
                 "vocab_size")
_STACK_INT_KEYS = ("label_count", "folds")


@dataclass
class CnnBundle:
    model: CnnModel
    vocab: Vocabulary
    maps: CategoryMaps
    labels: LabelTable


def _require(path, sections: dict, names):
    for name in names:
        if name not in sections:
            raise BundleError(f"{path}: bundle lacks section {name!r}")


def _bundle_config(path, sections: dict, keys, int_keys) -> dict:
    cfg = bundle_io.decode_json(sections["config"], "config")
    if not isinstance(cfg, dict):
        raise BundleError(f"{path}: config section is not a JSON object")
    for key in keys:
        if key not in cfg:
            raise BundleError(f"{path}: config section lacks key {key!r}")
    for key in int_keys:
        if type(cfg[key]) is not int:
            raise BundleError(f"{path}: config key {key!r} is not an integer")
    return cfg


def _checked(path, what: str, build, obj):
    """build(obj) for a decoded bundle section; a structure that build
    rejects (a missing key, a wrong type, an invalid value) is a BundleError."""
    try:
        return build(obj)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        raise BundleError(f"{path}: bad {what} section: {e!r}") from e


def _json_section(path, sections: dict, name: str, build):
    return _checked(path, name, build, bundle_io.decode_json(sections[name], name))


def _tensor(path, sections: dict, name: str, dtype, shape: tuple) -> np.ndarray:
    """The tensor:<name> section, which must have this dtype and shape."""
    t = bundle_io.decode_tensor(sections[f"tensor:{name}"], name)
    if t.dtype != dtype:
        raise BundleError(f"{path}: tensor {name} is {t.dtype}, expected {np.dtype(dtype)}")
    if t.shape != shape:
        raise BundleError(f"{path}: tensor {name} has shape {t.shape}, expected {shape}")
    return t


def _bundle_vocab(path, sections: dict, name: str) -> Vocabulary:
    try:
        return vocab_from_bytes(sections[name], f"{path}: section {name!r}")
    except DataError as e:
        raise BundleError(str(e)) from e


def _labels_json(labels: LabelTable) -> dict:
    return {"task": labels.task, "values": labels.values, "coords": labels.coords}


def _labels_from_json(obj) -> LabelTable:
    coords = obj.get("coords")
    return LabelTable(obj["task"], obj["values"],
                      coords=None if coords is None else [tuple(c) for c in coords])


def save_model(model: CnnModel, vocab: Vocabulary, maps: CategoryMaps,
               labels: LabelTable, path):
    """Write a CNN bundle; load_model(save_model(...)) is bit-exact."""
    cfg = model.config
    config = {
        "embed_dim": cfg.embed_dim,
        "windows": list(cfg.windows),
        "filters_per_window": cfg.filters_per_window,
        "dropout_rate": cfg.dropout_rate,
        "max_lens": cfg.max_lens,
        "label_count": cfg.label_count,
        "share_filters": cfg.share_filters,
        "cat_block_size": model.cat_block_size,
        "vocab_size": model.vocab_size,
    }
    sections = [
        ("config", bundle_io.encode_json(config)),
        ("vocabulary", vocab_to_bytes(vocab)),
        ("category_maps", bundle_io.encode_json(maps.value_lists())),
        ("label_table", bundle_io.encode_json(_labels_json(labels))),
    ]
    for name, p in model.params.items():
        sections.append((f"tensor:{name}", bundle_io.encode_tensor(p)))
    bundle_io.write_sections(path, "cnn", sections)


def _cnn_bundle(path, sections: dict) -> CnnBundle:
    _require(path, sections, ("config", "vocabulary", "category_maps", "label_table"))
    cfgj = _bundle_config(path, sections, _CNN_CONFIG_KEYS, _CNN_INT_KEYS)
    cfg = _checked(path, "config", lambda c: CnnConfig(
        embed_dim=c["embed_dim"],
        windows=tuple(c["windows"]),
        filters_per_window=c["filters_per_window"],
        dropout_rate=c["dropout_rate"],
        max_lens=c["max_lens"],
        label_count=c["label_count"],
        share_filters=c["share_filters"],
    ), cfgj)
    vocab = _bundle_vocab(path, sections, "vocabulary")
    maps = _json_section(path, sections, "category_maps", CategoryMaps.from_value_lists)
    labels = _json_section(path, sections, "label_table", _labels_from_json)
    if len(labels) != cfg.label_count:
        raise BundleError(f"{path}: label table size {len(labels)} != model "
                          f"label count {cfg.label_count}")
    if maps.block_size != cfgj["cat_block_size"]:
        raise BundleError(f"{path}: category maps do not match the stored block size")

    shapes = param_shapes(cfg, cfgj["vocab_size"], cfgj["cat_block_size"])
    _require(path, sections, [f"tensor:{name}" for name in shapes])
    params = {name: _tensor(path, sections, name, np.float32, shape)
              for name, shape in shapes.items()}
    model = CnnModel(cfg, params, cfgj["cat_block_size"])
    if len(vocab) != model.vocab_size:
        raise BundleError(f"{path}: vocabulary size {len(vocab)} != embedding rows")
    return CnnBundle(model, vocab, maps, labels)


@dataclass
class StackBundle:
    model: StackModel
    labels: LabelTable


def save_stack_model(model: StackModel, labels: LabelTable, path):
    config = {
        "label_count": model.label_count,
        "folds": model.folds,
        "alpha": model.alpha,
        "igr_percent": model.igr_percent,
    }
    sections = [
        ("config", bundle_io.encode_json(config)),
        ("label_table", bundle_io.encode_json(_labels_json(labels))),
    ]
    for b in BASE_FIELDS:
        sections.append((f"vocab:{b}", vocab_to_bytes(model.base_vocabs[b])))
        sections.append((f"tensor:{b}:prior", bundle_io.encode_tensor(model.bases[b].class_log_prior)))
        sections.append((f"tensor:{b}:log_prob", bundle_io.encode_tensor(model.bases[b].feature_log_prob)))
    sections.append(("tensor:meta:prior", bundle_io.encode_tensor(model.meta.class_log_prior)))
    sections.append(("tensor:meta:log_prob", bundle_io.encode_tensor(model.meta.feature_log_prob)))
    bundle_io.write_sections(path, "stack", sections)


def _stack_bundle(path, sections: dict) -> StackBundle:
    _require(path, sections, ["config", "label_table"]
             + [f"vocab:{b}" for b in BASE_FIELDS]
             + [f"tensor:{t}:{part}" for t in BASE_FIELDS + ("meta",)
                for part in ("prior", "log_prob")])
    cfg = _bundle_config(path, sections, _STACK_CONFIG_KEYS, _STACK_INT_KEYS)
    n_labels = cfg["label_count"]
    labels = _json_section(path, sections, "label_table", _labels_from_json)
    if len(labels) != n_labels:
        raise BundleError(f"{path}: label table size != stored label count")

    def mnb(tag: str, n_features: int) -> MnbModel:
        return MnbModel(_tensor(path, sections, f"{tag}:prior", np.float64, (n_labels,)),
                        _tensor(path, sections, f"{tag}:log_prob", np.float64,
                                (n_labels, n_features)),
                        cfg["alpha"])

    vocabs = {b: _bundle_vocab(path, sections, f"vocab:{b}") for b in BASE_FIELDS}
    model = StackModel(
        bases={b: mnb(b, len(vocabs[b])) for b in BASE_FIELDS},
        base_vocabs=vocabs,
        meta=mnb("meta", len(BASE_FIELDS) * n_labels),
        label_count=n_labels,
        folds=cfg["folds"],
        alpha=cfg["alpha"],
        igr_percent=cfg["igr_percent"],
    )
    return StackBundle(model, labels)


def load_bundle(path, expect: Optional[str] = None):
    """A CnnBundle or StackBundle, by the model type the file declares; the
    file is read once. With `expect`, any other model type is a BundleError."""
    model_type, sections = bundle_io.read_sections(path)
    loader = {"cnn": _cnn_bundle, "stack": _stack_bundle}.get(model_type)
    if loader is None or expect not in (None, model_type):
        raise BundleError(f"{path}: expected a {expect or 'cnn or stack'} bundle, "
                          f"found {model_type!r}")
    return loader(path, sections)


def load_model(path) -> CnnBundle:
    return load_bundle(path, "cnn")


def load_stack_model(path) -> StackBundle:
    return load_bundle(path, "stack")
