import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record
from tweetgeo import bundle as bundle_io, cli
from tweetgeo.bayes import BASE_FIELDS, MnbModel, StackModel, fit_stacking
from tweetgeo.columns import token_columns
from tweetgeo.cnn import (CnnConfig, FeatureBatch, backward, encode_features, forward,
                         init_model)
from tweetgeo.encode import CategoryMaps, build_category_maps
from tweetgeo.errors import BundleError, DataError
from tweetgeo.labels import TASK_COUNTRY, LabelTable, country_labels
from tweetgeo.nncore import adam_step, cross_entropy_batch
from tweetgeo.textproc import Vocabulary, build_vocab
from tweetgeo.train import (CnnBundle, TrainConfig, load_bundle, load_model,
                            load_stack_model, save_model, save_stack_model, train,
                            write_train_log)

LENS = {"text": 8, "user_description": 6, "profile_location": 4, "user_name": 3}


def corpus(n_per_class=40, seed=0):
    rng = np.random.default_rng(seed)
    words = {0: "red crimson ruby", 1: "blue azure navy", 2: "green lime olive"}
    recs, ys = [], []
    for i in range(n_per_class * 3):
        y = i % 3
        toks = [words[y].split()[int(rng.integers(0, 3))] for _ in range(4)]
        toks.append(f"noise{int(rng.integers(0, 5))}")
        recs.append(make_record(user=f"u{i}", text=" ".join(toks),
                                user_description=words[y].split()[0],
                                tweet_lang=f"l{y}" if rng.random() < 0.8 else "l9",
                                posted=int(rng.integers(0, 86400)), country=f"C{y}"))
        ys.append(y)
    return recs, np.array(ys, dtype=np.int64)


def encoded(recs, ys, cfg):
    vocab = build_vocab([r.text.split() + [r.user_description] for r in recs], min_count=1)
    maps = build_category_maps(recs)
    return encode_features(recs, vocab, maps, cfg, ys), vocab, maps


def small_cfg(n_labels=3):
    return CnnConfig(embed_dim=8, windows=(2, 3), filters_per_window=4,
                     dropout_rate=0.3, max_lens=dict(LENS), label_count=n_labels)


def test_loss_decreases_on_fixed_batch():
    recs, ys = corpus(10)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    model = init_model(cfg, len(vocab), maps.block_size, seed=1)
    moments = {n: (np.zeros_like(p), np.zeros_like(p)) for n, p in model.params.items()}
    losses = []
    for step in range(10):
        fwd = forward(model, feats, train=False)
        losses.append(cross_entropy_batch(fwd.probs, ys))
        grads = backward(model, fwd, ys)
        for n, p in model.params.items():
            adam_step(p, grads[n], *moments[n], step + 1, 1e-2)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_reaches_high_dev_accuracy():
    recs, ys = corpus(40)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    dev_idx = np.arange(0, len(recs), 4)
    tr_idx = np.setdiff1d(np.arange(len(recs)), dev_idx)
    tcfg = TrainConfig(batch_size=16, max_epochs=20, patience=5, seed=3, lr=5e-3)
    model = init_model(cfg, len(vocab), maps.block_size, seed=tcfg.seed)
    result = train(model, feats.take(tr_idx), feats.take(dev_idx), tcfg)
    assert result.best_dev_accuracy >= 0.95
    assert max(row.best_dev_accuracy for row in result.log) == result.best_dev_accuracy


def test_train_patience_one_restores_best_epoch():
    recs, ys = corpus(15)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    dev = feats.take(np.arange(0, len(recs), 3))
    tr = feats.take(np.arange(1, len(recs), 3))
    tcfg = TrainConfig(batch_size=8, max_epochs=50, patience=1, seed=5, lr=5e-3)
    model = init_model(cfg, len(vocab), maps.block_size, seed=tcfg.seed)
    result = train(model, tr, dev, tcfg)
    # every epoch is evaluated; stopped exactly one epoch after the best one
    assert [row.epoch for row in result.log] == list(range(1, len(result.log) + 1))
    assert result.log[-1].epoch == result.best_epoch + 1
    assert result.log[-1].dev_accuracy <= result.best_dev_accuracy
    # returned parameters really are the best epoch's: re-evaluate
    from tweetgeo.train import _dev_accuracy
    assert _dev_accuracy(model, dev) == pytest.approx(result.best_dev_accuracy)


def test_train_deterministic_given_seed():
    recs, ys = corpus(10)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    dev = feats.take(np.arange(0, len(recs), 5))
    tr = feats.take(np.arange(1, len(recs), 2))
    tcfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=11)
    m1, m2 = (init_model(cfg, len(vocab), maps.block_size, seed=tcfg.seed) for _ in range(2))
    for m in (m1, m2):
        train(m, tr, dev, tcfg)
    for (n1, p1), (n2, p2) in zip(m1.params.items(), m2.params.items()):
        assert n1 == n2
        assert p1.tobytes() == p2.tobytes()


def test_train_memory_is_bounded_by_a_few_embeddings():
    # a vocabulary far larger than the batch: a step may hold one (V, k)
    # gradient beside the parameters, the two Adam moments and the best copy
    vocab_size, cfg = 200_000, small_cfg()
    rng = np.random.default_rng(2)

    def feats(n):
        return FeatureBatch(
            tokens={f: rng.integers(0, vocab_size, size=(n, ln)) for f, ln in LENS.items()},
            cat_positions=np.tile(np.arange(0, 8, 2), (n, 1)),
            labels=rng.integers(0, 3, size=n))
    tr, dev = feats(32), feats(16)
    tcfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=1)
    tracemalloc.start()
    try:
        train(init_model(cfg, vocab_size, 8, seed=tcfg.seed), tr, dev, tcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * vocab_size * cfg.embed_dim * np.dtype(np.float32).itemsize


def test_train_rejects_empty_splits():
    recs, ys = corpus(5)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    empty = feats.take(np.array([], dtype=int))
    model = init_model(cfg, len(vocab), maps.block_size)
    with pytest.raises(DataError):
        train(model, empty, feats, TrainConfig())
    with pytest.raises(DataError):
        train(model, feats, empty, TrainConfig())


@pytest.mark.parametrize("bad_label", [-1, 3])
def test_train_rejects_out_of_range_training_labels(bad_label):
    recs, ys = corpus(5)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    feats.labels[0] = bad_label
    model = init_model(cfg, len(vocab), maps.block_size)
    with pytest.raises(DataError, match="training labels"):
        train(model, feats, feats.take(np.arange(1, 6)), TrainConfig(max_epochs=1))
    # a dev label of -1 (class unseen in training) is allowed: it counts as a miss
    dev = feats.take(np.arange(0, 6))
    dev.labels[0] = -1
    feats.labels[0] = 0
    train(model, feats, dev, TrainConfig(max_epochs=1))


def test_write_train_log(tmp_path):
    recs, ys = corpus(5)
    cfg = small_cfg()
    feats, vocab, maps = encoded(recs, ys, cfg)
    tcfg = TrainConfig(batch_size=8, max_epochs=2, patience=3, seed=1)
    result = train(init_model(cfg, len(vocab), maps.block_size, seed=1), feats, feats, tcfg)
    write_train_log(tmp_path / "log.csv", result.log)
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,dev_accuracy,best_dev_accuracy"
    assert len(lines) == len(result.log) + 1


def _country_labels(recs):
    return country_labels(*token_columns(recs).labels["country_code"])


def _trained_bundle(tmp_path, seed=2):
    recs, ys = corpus(10, seed=seed)
    cfg = small_cfg()
    vocab = build_vocab([r.text.split() for r in recs], min_count=1)
    maps = build_category_maps(recs)
    labels = _country_labels(recs)
    feats = encode_features(recs, vocab, maps, cfg, labels.label_array(recs))
    tcfg = TrainConfig(batch_size=16, max_epochs=2, patience=2, seed=seed)
    model = init_model(cfg, len(vocab), maps.block_size, seed=seed)
    train(model, feats, feats, tcfg)
    path = tmp_path / "model.gtlm"
    save_model(model, vocab, maps, labels, path)
    return model, vocab, maps, labels, feats, path


def test_save_load_roundtrip_bit_exact(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    loaded = load_model(path)
    for (n1, p1), (n2, p2) in zip(model.params.items(), loaded.model.params.items()):
        assert n1 == n2 and p1.tobytes() == p2.tobytes()
    assert loaded.vocab.index_to_token == vocab.index_to_token
    assert loaded.maps == maps
    assert loaded.labels.values == labels.values
    a = forward(model, feats, train=False).probs
    b = forward(loaded.model, feats, train=False).probs
    assert a.tobytes() == b.tobytes()   # 0 ULP difference


def test_load_rejects_corrupt_header(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    bad = tmp_path / "bad.gtlm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(BundleError, match="magic"):
        load_model(bad)


def test_load_rejects_truncated_file(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    raw = path.read_bytes()
    trunc = tmp_path / "trunc.gtlm"
    trunc.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(BundleError, match="truncated"):
        load_model(trunc)


def test_load_rejects_label_count_mismatch(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    bad_labels = LabelTable("country", labels.values + ["XX"])
    bad = tmp_path / "mismatch.gtlm"
    save_model(model, vocab, maps, bad_labels, bad)
    with pytest.raises(BundleError, match="label"):
        load_model(bad)


def test_load_rejects_float64_tensors(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    wide = tmp_path / "wide.gtlm"
    save_model(model.astype(np.float64), vocab, maps, labels, wide)
    with pytest.raises(BundleError, match="tensor embedding is float64"):
        load_model(wide)


def test_stack_bundle_roundtrip(tmp_path):
    recs, ys = corpus(10)
    labels = _country_labels(recs)
    model = fit_stacking(token_columns(recs), labels.label_array(recs), len(labels),
                         igr_percent=40.0, min_count=1)
    path = tmp_path / "stack.gtlm"
    save_stack_model(model, labels, path)
    loaded = load_stack_model(path)
    assert loaded.model.label_count == model.label_count
    assert loaded.model.igr_percent == 40.0
    for b in model.bases:
        assert loaded.model.bases[b].feature_log_prob.tobytes() == \
            model.bases[b].feature_log_prob.tobytes()
        assert loaded.model.base_vocabs[b].index_to_token == \
            model.base_vocabs[b].index_to_token
    assert loaded.model.meta.class_log_prior.tobytes() == model.meta.class_log_prior.tobytes()


def test_stack_bundle_roundtrip_with_line_break_in_timezone(tmp_path):
    recs, ys = corpus(10)
    recs[0].timezone = "Zone\nX"
    labels = _country_labels(recs)
    model = fit_stacking(token_columns(recs), labels.label_array(recs), len(labels), min_count=1)
    path = tmp_path / "stack.gtlm"
    save_stack_model(model, labels, path)
    cats = load_stack_model(path).model.base_vocabs["cats"]
    assert cats.index_to_token == model.base_vocabs["cats"].index_to_token
    assert "tz=Zone X" in cats


def test_stack_training_is_byte_identical_on_rerun(tmp_path):
    recs, ys = corpus(12, seed=3)
    labels = _country_labels(recs)
    for name in ("a.gtlm", "b.gtlm"):
        model = fit_stacking(token_columns(recs), labels.label_array(recs), len(labels),
                             igr_percent=40.0, min_count=1)
        save_stack_model(model, labels, tmp_path / name)
    assert (tmp_path / "a.gtlm").read_bytes() == (tmp_path / "b.gtlm").read_bytes()


def test_stack_load_peak_is_the_tensors_plus_the_largest(tmp_path):
    # 300 labels: the (L, 5L) meta table is 3.6 of the bundle's 3.67 MB of
    # tensors. A load holds the file's sections and decodes each tensor in
    # one copy, dropping its section once read
    n_labels, rng = 300, np.random.default_rng(4)
    vocab = build_vocab([["a", "b", "c"]], min_count=1)

    def mnb(n_features):
        return MnbModel(rng.normal(size=n_labels), rng.normal(size=(n_labels, n_features)))
    model = StackModel(bases={b: mnb(len(vocab)) for b in BASE_FIELDS},
                       base_vocabs={b: vocab for b in BASE_FIELDS},
                       meta=mnb(len(BASE_FIELDS) * n_labels), label_count=n_labels)
    labels = LabelTable(TASK_COUNTRY, [f"c{i}" for i in range(n_labels)])
    save_stack_model(model, labels, tmp_path / "stack.gtlm")
    tensors = [t for m in [*model.bases.values(), model.meta]
               for t in (m.class_log_prior, m.feature_log_prob)]
    tracemalloc.start()
    try:
        loaded = load_stack_model(tmp_path / "stack.gtlm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.model.meta.feature_log_prob.tobytes() == model.meta.feature_log_prob.tobytes()
    assert loaded.model.meta.feature_log_prob.flags.writeable
    assert peak <= sum(t.nbytes for t in tensors) + max(t.nbytes for t in tensors) + 2**20


@pytest.mark.parametrize("tensor", ["text:prior", "cats:log_prob", "meta:log_prob"])
def test_stack_load_rejects_non_float64_tensors(tmp_path, tensor):
    recs, ys = corpus(6)
    labels = _country_labels(recs)
    model = fit_stacking(token_columns(recs), labels.label_array(recs), len(labels), min_count=1)
    save_stack_model(model, labels, tmp_path / "stack.gtlm")
    model_type, sections = bundle_io.read_sections(tmp_path / "stack.gtlm")
    narrow = bundle_io.decode_tensor(sections[f"tensor:{tensor}"]).astype(np.float32)
    sections[f"tensor:{tensor}"] = bundle_io.encode_tensor(narrow)
    bundle_io.write_sections(tmp_path / "narrow.gtlm", model_type, list(sections.items()))
    with pytest.raises(BundleError, match=f"tensor {tensor} is float32, expected float64"):
        load_stack_model(tmp_path / "narrow.gtlm")


def test_load_bundle_dispatches_on_model_type(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    assert isinstance(load_bundle(path), CnnBundle)
    model_type, sections = bundle_io.read_sections(path)
    bundle_io.write_sections(tmp_path / "odd.gtlm", "odd", list(sections.items()))
    with pytest.raises(BundleError, match="expected a cnn or stack bundle, found 'odd'"):
        load_bundle(tmp_path / "odd.gtlm")
    with pytest.raises(BundleError, match="expected a cnn bundle, found 'odd'"):
        load_model(tmp_path / "odd.gtlm")


def test_bundle_type_cross_loading_rejected(tmp_path):
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    with pytest.raises(BundleError, match="stack"):
        load_stack_model(path)


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    """A tiny CNN bundle and a small stack bundle, with their loaders."""
    d = tmp_path_factory.mktemp("bundles")
    recs, ys = corpus(4, seed=1)
    cfg = small_cfg()
    vocab = build_vocab([r.text.split() for r in recs], min_count=1)
    maps = build_category_maps(recs)
    labels = _country_labels(recs)
    save_model(init_model(cfg, len(vocab), maps.block_size, seed=0), vocab, maps, labels,
               d / "cnn.gtlm")
    stack = fit_stacking(token_columns(recs), labels.label_array(recs), len(labels), min_count=1)
    save_stack_model(stack, labels, d / "stack.gtlm")
    return {"cnn": ((d / "cnn.gtlm").read_bytes(), load_model),
            "stack": ((d / "stack.gtlm").read_bytes(), load_stack_model)}, d


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["cnn", "stack"]), cut=st.booleans(), data=st.data())
def test_corrupt_bundle_loads_or_raises_bundle_error(bundle_files, kind, cut, data):
    # any truncation, or any single-byte flip, of either bundle kind either
    # loads or raises BundleError/DataError (exit 2), never another exception
    bundles, d = bundle_files
    raw, loader = bundles[kind]
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    if cut:
        bad = raw[:pos]
    else:
        mask = data.draw(st.integers(1, 255), label="mask")
        bad = raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]
    (d / "bad.gtlm").write_bytes(bad)
    try:
        loader(d / "bad.gtlm")
    except DataError:
        pass


@pytest.mark.parametrize("edit", [
    lambda t: dict(t, coords=[[40.0, -80.0]]),
    lambda t: dict(t, coords=[[40.0, -80.0, 1.0]] * 3),
    lambda t: dict(t, coords=[["north", "west"]] * 3),
    lambda t: dict(t, values=t["values"][:2] + t["values"][:1]),
    lambda t: dict(t, values=[7] + t["values"][1:]),
], ids=["too-few", "not-pairs", "not-numbers", "repeated-value", "integer-value"])
def test_load_rejects_label_coords_that_do_not_fit_the_labels(bundle_files, tmp_path, edit):
    # eval indexes the coordinates by label and looks records up by value, so
    # a misfit must fail at load
    bundles, d = bundle_files
    model_type, sections = bundle_io.read_sections(d / "stack.gtlm")
    table = json.loads(sections["label_table"])
    assert len(table["values"]) == 3 and table["task"] == TASK_COUNTRY
    sections["label_table"] = bundle_io.encode_json(edit(table))
    bundle_io.write_sections(tmp_path / "bad.gtlm", model_type, list(sections.items()))
    with pytest.raises(BundleError, match="bad label_table section"):
        load_stack_model(tmp_path / "bad.gtlm")


def test_decode_tensor_rejects_more_axes_than_numpy_supports():
    # a flipped ndim byte can describe a shape whose size matches the payload
    payload = bytes([4, 66]) + (1).to_bytes(8, "little") * 66 + bytes(4)
    with pytest.raises(BundleError, match="dimension"):
        bundle_io.decode_tensor(payload)


CNN_CONFIG_JSON = (b'{"dropout_rate": 0.3, "embed_dim": 8, '
                   b'"filters_per_window": 4, "label_count": 3, "max_lens": '
                   b'{"profile_location": 4, "text": 8, "user_description": 6, "user_name": 3}, '
                   b'"windows": [2, 3]}')
# the same config from writers that also stored the sizes the vocabulary and
# category-map sections fix
OLD_CNN_CONFIG_JSON = (b'{"cat_block_size": 153, "dropout_rate": 0.3, "embed_dim": 8, '
                       b'"filters_per_window": 4, "label_count": 3, "max_lens": '
                       b'{"profile_location": 4, "text": 8, "user_description": 6, '
                       b'"user_name": 3}, "vocab_size": 16, "windows": [2, 3]}')
CNN_SECTIONS = ["config", "vocabulary", "category_maps", "label_table", "tensor:embedding",
                "tensor:conv_w", "tensor:conv_b", "tensor:softmax_w", "tensor:softmax_b"]
STACK_SECTIONS = [
    "config", "label_table",
    "vocab:text", "tensor:text:prior", "tensor:text:log_prob",
    "vocab:user_description", "tensor:user_description:prior",
    "tensor:user_description:log_prob",
    "vocab:profile_location", "tensor:profile_location:prior",
    "tensor:profile_location:log_prob",
    "vocab:user_name", "tensor:user_name:prior", "tensor:user_name:log_prob",
    "vocab:cats", "tensor:cats:prior", "tensor:cats:log_prob",
    "tensor:meta:prior", "tensor:meta:log_prob"]


def test_cnn_bundle_layout_is_pinned(bundle_files):
    bundles, d = bundle_files
    model_type, sections = bundle_io.read_sections(d / "cnn.gtlm")
    assert model_type == "cnn"
    assert list(sections) == CNN_SECTIONS
    assert sections["config"] == CNN_CONFIG_JSON
    # windows 2 and 3 with 4 filters of width k=8: (sum(h)*m, k) and (windows, m)
    assert bundle_io.decode_tensor(sections["tensor:conv_w"]).shape == (20, 8)
    assert bundle_io.decode_tensor(sections["tensor:conv_b"]).shape == (2, 4)


def _old_config_loads_the_same(bundle_files, tmp_path, config: bytes):
    """A copy of the CNN bundle with this config loads, scores the same, and
    saves back to the current bytes."""
    bundles, d = bundle_files
    model_type, sections = bundle_io.read_sections(d / "cnn.gtlm")
    sections["config"] = config
    bundle_io.write_sections(tmp_path / "old.gtlm", model_type, list(sections.items()))
    old = load_model(tmp_path / "old.gtlm")
    recs, ys = corpus(4, seed=5)
    assert cli._probabilities(old, recs).tobytes() == \
        cli._probabilities(load_model(d / "cnn.gtlm"), recs).tobytes()
    save_model(old.model, old.vocab, old.maps, old.labels, tmp_path / "resaved.gtlm")
    assert (tmp_path / "resaved.gtlm").read_bytes() == (d / "cnn.gtlm").read_bytes()


def test_bundle_with_a_share_filters_key_loads_and_scores_the_same(bundle_files, tmp_path):
    # writers that still had a per-field filter layout stored "share_filters":
    # true in the config of every shared-filter bundle
    _old_config_loads_the_same(bundle_files, tmp_path, OLD_CNN_CONFIG_JSON.replace(
        b'"vocab_size"', b'"share_filters": true, "vocab_size"'))


def test_bundle_with_stored_sizes_loads_and_scores_the_same(bundle_files, tmp_path):
    _old_config_loads_the_same(bundle_files, tmp_path, OLD_CNN_CONFIG_JSON)


@pytest.mark.parametrize("grow, tensor", [("vocabulary", "embedding"),
                                          ("category_maps", "softmax_w")])
def test_load_rejects_sections_that_do_not_fit_the_tensors(tmp_path, grow, tensor):
    # the vocabulary fixes the embedding rows, the category maps softmax_w's columns
    model, vocab, maps, labels, feats, path = _trained_bundle(tmp_path)
    if grow == "vocabulary":
        vocab = Vocabulary(vocab.index_to_token + ["extra"], min_count=vocab.min_count)
    else:
        lists = maps.value_lists()
        maps = CategoryMaps.from_value_lists(lists | {"timezone": lists["timezone"] + ["Mars"]})
    save_model(model, vocab, maps, labels, tmp_path / "bad.gtlm")
    with pytest.raises(BundleError, match=f"tensor {tensor} has shape"):
        load_model(tmp_path / "bad.gtlm")


def test_stack_bundle_layout_is_pinned(bundle_files):
    bundles, d = bundle_files
    model_type, sections = bundle_io.read_sections(d / "stack.gtlm")
    assert model_type == "stack"
    assert list(sections) == STACK_SECTIONS
    assert sections["config"] == \
        b'{"igr_percent": null, "label_count": 3}'


def test_stack_bundle_with_folds_and_alpha_loads_and_scores_the_same(bundle_files, tmp_path):
    # writers from before stacking's folds and smoothing became constants stored
    # both in the config; scoring never read them
    bundles, d = bundle_files
    model_type, sections = bundle_io.read_sections(d / "stack.gtlm")
    sections["config"] = b'{"alpha": 0.01, "folds": 2, "igr_percent": null, "label_count": 3}'
    bundle_io.write_sections(tmp_path / "old.gtlm", model_type, list(sections.items()))
    old = load_stack_model(tmp_path / "old.gtlm")
    recs, ys = corpus(4, seed=5)
    assert cli._probabilities(old, recs).tobytes() == \
        cli._probabilities(load_stack_model(d / "stack.gtlm"), recs).tobytes()
    save_stack_model(old.model, old.labels, tmp_path / "resaved.gtlm")
    assert (tmp_path / "resaved.gtlm").read_bytes() == (d / "stack.gtlm").read_bytes()


@pytest.mark.parametrize("kind", ["cnn", "stack"])
def test_unknown_sections_and_config_keys_are_ignored(bundle_files, tmp_path, kind):
    # a newer writer may add sections and config keys; this reader skips them
    bundles, d = bundle_files
    raw, loader = bundles[kind]
    (tmp_path / "old.gtlm").write_bytes(raw)
    model_type, sections = bundle_io.read_sections(tmp_path / "old.gtlm")
    config = json.loads(sections["config"])
    config["added_later"] = {"any": [1, 2.5, None]}
    sections["config"] = bundle_io.encode_json(config)
    sections["provenance"] = bundle_io.encode_json({"seed": 7})
    bundle_io.write_sections(tmp_path / "new.gtlm", model_type, list(sections.items()))
    recs, ys = corpus(4, seed=5)
    old = cli._probabilities(loader(tmp_path / "old.gtlm"), recs)
    new = cli._probabilities(loader(tmp_path / "new.gtlm"), recs)
    assert old.tobytes() == new.tobytes()
