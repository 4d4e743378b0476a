import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import maps_of, vocab_of
from fdcheck import fd_sweep, smoothness_margin
from oracles import (conv_maxpool_scan, dense_backward, dense_conv, dense_forward,
                     encode_features_scan, forward_trace, window_filters, window_view)
from test_columns import RECORDS
from tweetgeo import cnn
from tweetgeo.cnn import (MAX_FIELD_LEN, CnnConfig, FIELDS, FeatureBatch, backward,
                          encode_features, forward, init_model, load_pretrained_embeddings,
                          param_shapes, predict_proba)
from tweetgeo.encode import CategoryMaps, UNK_CAT
from tweetgeo.errors import DataError
from tweetgeo.synth import SynthSpec, generate
from tweetgeo.textproc import tokenize

TINY_LENS = {"text": 6, "user_description": 5, "profile_location": 4, "user_name": 3}


def tiny_config(**kw):
    defaults = dict(embed_dim=4, windows=(2, 3), filters_per_window=2,
                    dropout_rate=0.5, max_lens=dict(TINY_LENS), label_count=3)
    defaults.update(kw)
    return CnnConfig(**defaults)


def tiny_batch(rng, cfg, vocab_size=20, b=3, cat_sizes=(2, 2, 2)):
    tl, ul, tz = cat_sizes
    tokens = {f: rng.integers(1, vocab_size, size=(b, cfg.max_lens[f])).astype(np.int64)
              for f in FIELDS}
    tokens["text"][0, -2:] = 0  # some padding
    cat = np.stack([
        np.array([rng.integers(0, tl), tl + rng.integers(0, ul),
                  tl + ul + rng.integers(0, tz), tl + ul + tz + rng.integers(0, 144)])
        for _ in range(b)]).astype(np.int64)
    labels = rng.integers(0, cfg.label_count, size=b).astype(np.int64)
    return FeatureBatch(tokens=tokens, cat_positions=cat, labels=labels)


def cat_block(cat_sizes=(2, 2, 2)):
    return sum(cat_sizes) + 144


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.5)
    with pytest.raises(ValueError):
        tiny_config(windows=(2, 7))      # exceeds user_name length 3
    with pytest.raises(ValueError):
        tiny_config(filters_per_window=0)
    with pytest.raises(ValueError, match="max_lens must be <= 1024"):
        tiny_config(max_lens={**TINY_LENS, "text": MAX_FIELD_LEN + 1})
    assert tiny_config(max_lens={f: MAX_FIELD_LEN for f in FIELDS}).max_lens["text"] == 1024


def test_param_shapes_layout_and_init_rules():
    cfg = tiny_config()
    shapes = param_shapes(cfg, 20, cat_block())
    assert list(shapes) == ["embedding", "conv_w", "conv_b", "softmax_w", "softmax_b"]
    assert shapes["embedding"] == (20, 4)
    assert shapes["conv_w"] == ((2 + 3) * 2, 4)          # (sum(h)*m, k)
    assert shapes["conv_b"] == (2, 2)                    # (windows, m)
    assert shapes["softmax_w"] == (3, cfg.pooled_size + cat_block())
    assert shapes["softmax_b"] == (3,)
    model = init_model(cfg, 20, cat_block(), seed=0)
    assert [(n, p.shape) for n, p in model.params.items()] == list(shapes.items())
    assert not model.embedding[0].any()
    assert np.abs(model.embedding).max() <= 0.25
    for name, p in model.params.items():
        assert p.dtype == np.float32
    assert not model.params["conv_b"].any() and not model.softmax_b.any()
    for h in cfg.windows:                    # Glorot over the (m, h*k) bank
        w = window_filters(model, h)[0]
        assert 0 < np.abs(w).max() <= np.sqrt(6.0 / sum(w.shape))
    assert 0 < np.abs(model.softmax_w).max() <= np.sqrt(6.0 / sum(model.softmax_w.shape))


@pytest.mark.parametrize("windows", [(2,), (3, 1), (1, 2, 3)])
def test_init_model_conv_w_holds_the_per_window_glorot_draws(windows):
    # the filters are drawn as before they shared one tensor: the embedding,
    # then one (m, h*k) Glorot matrix per window ascending, then softmax_w;
    # conv_w holds each matrix bit for bit, laid out by offset
    cfg = tiny_config(windows=windows, filters_per_window=3)
    model = init_model(cfg, 20, cat_block(), seed=11)
    assert len(model.params) == 5
    k, m = cfg.embed_dim, cfg.filters_per_window
    rng = np.random.default_rng(11)
    embedding = rng.uniform(-0.25, 0.25, size=(20, k)).astype(np.float32)
    embedding[0] = 0.0
    assert np.array_equal(model.embedding, embedding)
    for h in cfg.windows:
        bound = np.sqrt(6.0 / (m + h * k))
        want = rng.uniform(-bound, bound, size=(m, h * k)).astype(np.float32)
        assert np.array_equal(window_filters(model, h)[0], want), h
    bound = np.sqrt(6.0 / sum(model.softmax_w.shape))
    want = rng.uniform(-bound, bound, size=model.softmax_w.shape).astype(np.float32)
    assert np.array_equal(model.softmax_w, want)


def test_field_matrix_pad_rows_zero(rng):
    # PAD rows contribute exact zeros: an all-PAD field pools to exactly
    # relu(b), and a text field [5, PAD, ...] pools as the window scan over
    # the rows [E[5], 0, ...]
    cfg = tiny_config(dropout_rate=0.0)
    model = init_model(cfg, 20, cat_block(), seed=0).astype(np.float64)
    model.params["conv_b"][:] = [0.3, -0.2]
    tokens = {f: np.zeros((2, cfg.max_lens[f]), dtype=np.int64) for f in FIELDS}
    tokens["text"][1, 0] = 5
    theta = forward(model, FeatureBatch(tokens, np.zeros((2, 4), dtype=np.int64))).theta_hat
    assert (theta[0, :cfg.pooled_size] == np.tile([0.3, 0.0], 8)).all()
    assert (theta[1, 4:cfg.pooled_size] == np.tile([0.3, 0.0], 6)).all()
    rows = np.zeros((cfg.max_lens["text"], cfg.embed_dim))
    rows[0] = model.embedding[5]
    for i, h in enumerate(cfg.windows):
        w, b = window_filters(model, h)
        for j in range(2):
            want = conv_maxpool_scan(rows.tolist(), w[j].tolist(), float(b[j]))
            assert theta[1, 2 * i + j] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_field_matrix_rejects_out_of_range(rng):
    # a negative id must not wrap around to a row at the end of the table
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=0)
    runs = (lambda b: forward(model, b, train=False),
            lambda b: forward(model, b, train=True, dropout_seed=1),
            lambda b: predict_proba(model, b))
    for bad in (25, 20, -1, -20, -21):
        batch = tiny_batch(rng, cfg)
        batch.tokens["profile_location"][1, 2] = bad
        for run in runs:
            with pytest.raises(ValueError, match="out of vocabulary range"):
                run(batch)


def text_conv_maxpool(X, w, b):
    """Convolve one field matrix X (n, k) with one filter bank (m, h*k) and
    bias (m,) through the batch forward pass, as the text field of a single
    record. Returns (pooled (m,), argmax (m,), pre-activations (p, m)); the
    pre-activations come from the dense im2col reference, and the pooled
    values must equal their ReLU'd maximum at the argmax."""
    n, k = X.shape
    m, hk = w.shape
    h = hk // k
    cfg = CnnConfig(embed_dim=k, windows=(h,), filters_per_window=m, dropout_rate=0.0,
                    max_lens={f: n for f in FIELDS}, label_count=2)
    model = init_model(cfg, n + 1, 1).astype(X.dtype)
    model.embedding[1:] = X
    window_view(model.params, cfg, h)[0][:] = w.reshape(m, h, k).transpose(1, 0, 2)
    model.params["conv_b"][0] = b
    tokens = {f: np.zeros((1, n), dtype=np.int64) for f in FIELDS}
    tokens["text"][0] = np.arange(1, n + 1)
    batch = FeatureBatch(tokens, np.zeros((1, 4), dtype=np.int64))
    fwd = forward(model, batch)
    pooled, arg = fwd.theta_hat[0, :m], fwd._pools["text", h][0][0]
    pre = dense_conv(model, batch, "text", h)[1][0]
    assert pooled == pytest.approx(np.maximum(pre[arg, np.arange(m)], 0), rel=1e-12, abs=1e-15)
    assert pooled == pytest.approx(np.maximum(pre, 0).max(axis=0), rel=1e-12, abs=1e-15)
    return pooled, arg, pre


def test_conv_maxpool_hand_case():
    X = np.array([[1.0, 2.0], [3.0, -4.0]])
    w = np.array([[1.0, 1.0]])     # one filter, window 1
    pooled, arg, pre = text_conv_maxpool(X, w, np.zeros(1))
    assert pre[:, 0].tolist() == [3.0, -1.0]   # activations relu -> [3, 0]
    assert pooled.tolist() == [3.0]
    assert arg.tolist() == [0]


def test_conv_maxpool_zero_filters():
    X = np.arange(8.0).reshape(4, 2)
    pooled, _, _ = text_conv_maxpool(X, np.zeros((3, 4)), np.zeros(3))
    assert pooled.tolist() == [0.0, 0.0, 0.0]


def test_conv_maxpool_rejects_short_input(rng):
    cfg = tiny_config(windows=(3,))
    model = init_model(cfg, 20, cat_block(), seed=0)
    batch = tiny_batch(rng, cfg)
    batch.tokens["text"] = batch.tokens["text"][:, :2]
    with pytest.raises(ValueError, match="shorter than window 3"):
        forward(model, batch)


def test_conv_maxpool_matches_window_scan_oracle(rng):
    for _ in range(25):
        n, k, h, m = 7, 3, int(rng.integers(1, 4)), 4
        X = rng.normal(size=(n, k))
        w = rng.normal(size=(m, h * k))
        b = rng.normal(size=m)
        pooled, _, _ = text_conv_maxpool(X, w, b)
        for j in range(m):
            want = conv_maxpool_scan(X.tolist(), w[j].tolist(), float(b[j]))
            assert pooled[j] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_forward_uniform_when_zeroed(rng):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=1)
    for name, p in model.params.items():
        if name != "embedding":
            p[:] = 0
    batch = tiny_batch(rng, cfg)
    for f in FIELDS:
        batch.tokens[f][:] = 0   # all fields empty (all PAD)
    probs = forward(model, batch, train=False).probs
    assert probs == pytest.approx(np.full((batch.size, 3), 1 / 3), abs=1e-7)


def test_forward_matches_pure_python_trace(rng):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=5).astype(np.float64)
    batch = tiny_batch(rng, cfg, b=2)
    got = forward(model, batch, train=False).probs

    banks = {h: window_filters(model, h) for h in cfg.windows}
    conv = {h: w.tolist() for h, (w, _) in banks.items()}
    biases = {h: b.tolist() for h, (_, b) in banks.items()}
    for i in range(batch.size):
        want = forward_trace(
            model.embedding.tolist(), conv, biases,
            model.softmax_w.tolist(), model.softmax_b.tolist(),
            [batch.tokens[f][i].tolist() for f in FIELDS],
            batch.cat_positions[i].tolist(), model.cat_block_size)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert got[i].sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_field_position_matters(rng):
    # moving tokens to a different field must change the output (guards
    # against field-concatenation mixups in the theta layout)
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=6)
    batch = tiny_batch(rng, cfg, b=1)
    base = forward(model, batch, train=False).probs
    swapped = FeatureBatch(
        tokens=dict(batch.tokens), cat_positions=batch.cat_positions, labels=batch.labels)
    swapped.tokens["text"] = np.pad(batch.tokens["user_name"], ((0, 0), (0, 3)))
    out = forward(model, swapped, train=False).probs
    assert not np.allclose(base, out)


def test_forward_infer_deterministic(rng):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=2)
    batch = tiny_batch(rng, cfg)
    a = forward(model, batch, train=False).probs
    b = forward(model, batch, train=False).probs
    assert (a == b).all()


def test_forward_train_dropout_differs_and_is_seeded(rng):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=2)
    batch = tiny_batch(rng, cfg)
    infer = forward(model, batch, train=False).probs
    t1 = forward(model, batch, train=True, dropout_seed=7).probs
    t2 = forward(model, batch, train=True, dropout_seed=7).probs
    assert (t1 == t2).all()
    assert not np.allclose(infer, t1)


def test_truncation_invariance(rng):
    # tokens beyond the max_len cut cannot change the output
    cfg = tiny_config()
    vocab = vocab_of([["a"] * 5, ["b"] * 5, ["c"] * 5], min_count=2)
    maps = CategoryMaps({UNK_CAT: 0, "en": 1}, {UNK_CAT: 0}, {UNK_CAT: 0})
    model = init_model(cfg, len(vocab), maps.block_size, seed=3)

    from conftest import make_record
    base = make_record(text="a b c a b c")          # 6 tokens = text max_len
    longer = make_record(text="a b c a b c b b a")  # extra tokens past the cut
    fa = encode_features([base], vocab, maps, cfg)
    fb = encode_features([longer], vocab, maps, cfg)
    pa = forward(model, fa, train=False).probs
    pb = forward(model, fb, train=False).probs
    assert (pa == pb).all()


def _assert_encodes_as_the_scan(records, train, cfg):
    """encode_features(records) equals the per-record scan, with the
    vocabulary and maps of `train`, so records outside it hold unknowns."""
    vocab = vocab_of([tokenize(getattr(r, f)) for r in train for f in FIELDS])
    maps = maps_of(train)
    feats = encode_features(records, vocab, maps, cfg)
    tokens, cats = encode_features_scan(records, vocab, maps, cfg)
    for f in FIELDS:
        assert feats.tokens[f].dtype == np.int32
        assert feats.tokens[f].shape == (len(records), cfg.max_lens[f])
        assert feats.tokens[f].tolist() == tokens[f], f
    assert feats.cat_positions.dtype == np.int64 and feats.cat_positions.shape == (len(records), 4)
    assert feats.cat_positions.tolist() == cats


SHORT_LENS = {"text": 4, "user_description": 3, "profile_location": 2, "user_name": 2}


@settings(max_examples=60, deadline=None)
@given(records=RECORDS, seen=st.integers(0, 6))
def test_encode_features_equals_the_per_record_scan(records, seen):
    _assert_encodes_as_the_scan(records, records[:seen],
                                tiny_config(windows=(1, 2), max_lens=SHORT_LENS))


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_encode_features_in_chunks_equals_the_per_record_scan(monkeypatch, chunk):
    monkeypatch.setattr(cnn, "CHUNK", chunk)
    records, _ = generate(SynthSpec(n_cities=4, n_countries=2, n_users=40, seed=5))
    _assert_encodes_as_the_scan(records, records[:25], tiny_config(max_lens=SHORT_LENS | {
        "profile_location": 3, "user_name": 3}))


def test_shared_filters_used_for_all_fields(rng):
    # one bank per window: moving the window-2 bias moves the window-2
    # pooled block of every field and no window-3 block
    cfg = tiny_config(dropout_rate=0.0)
    model = init_model(cfg, 20, cat_block(), seed=4)
    batch = tiny_batch(rng, cfg)
    before = forward(model, batch).theta_hat[:, :cfg.pooled_size]
    model.params["conv_b"][0] += 1.0
    after = forward(model, batch).theta_hat[:, :cfg.pooled_size]
    changed = (before != after).any(axis=0).reshape(len(FIELDS), len(cfg.windows), -1)
    assert changed[:, 0].all() and not changed[:, 1].any()


def test_backward_pad_and_absent_token_grads_zero(rng):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=8).astype(np.float64)
    batch = tiny_batch(rng, cfg)
    fwd = forward(model, batch, train=False)
    grads = backward(model, fwd, batch.labels)
    assert not grads["embedding"][0].any()
    present = set(np.unique(np.concatenate([t.ravel() for t in batch.tokens.values()])))
    for tok in range(20):
        if tok not in present:
            assert not grads["embedding"][tok].any()


def test_backward_relu_gate_is_zero_at_zero(rng):
    # the ReLU subgradient at exactly 0 is 0: with every pre-activation at 0
    # no gradient reaches the filters or the embedding
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=8).astype(np.float64)
    batch = tiny_batch(rng, cfg)
    model.params["conv_w"][:] = 0
    model.params["conv_b"][:] = 0
    grads = backward(model, forward(model, batch), batch.labels)
    for name, g in grads.items():
        assert g.any() == name.startswith("softmax")
    model.params["conv_b"][:] = 1.0
    grads = backward(model, forward(model, batch), batch.labels)
    assert grads["conv_b"].any(axis=1).all()              # every window's bias


def test_backward_memory_holds_one_window_block():
    # sum(h)*m = 768 columns of dZ against k = 8: one backward may hold the
    # largest window's (U, max(h)*m) block, dE[uniq] and one (U, k) product,
    # and the dense (V, k) embedding gradient; the whole (U, sum(h)*m) dZ
    # is more than twice that
    cfg = CnnConfig(embed_dim=8, windows=(3, 4, 5), filters_per_window=64,
                    max_lens=dict(cnn.DEFAULT_MAX_LENS), label_count=3)
    vocab_size, b = 5000, 64
    rng = np.random.default_rng(0)
    model = init_model(cfg, vocab_size, cat_block(), seed=0)
    batch = FeatureBatch({f: rng.integers(1, vocab_size, size=(b, n))
                          for f, n in cfg.max_lens.items()},
                         np.tile(np.arange(0, 8, 2), (b, 1)), rng.integers(0, 3, size=b))
    fwd = forward(model, batch, train=True, dropout_seed=0)
    u, m, k = fwd._uniq.size, cfg.filters_per_window, cfg.embed_dim
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        backward(model, fwd, batch.labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    itemsize, d = model.dtype.itemsize, fwd.theta_hat.shape[1]
    bound = itemsize * (u * max(cfg.windows) * m + 2 * u * k + vocab_size * k)
    slack = itemsize * 2 * b * d + 2**16          # (B, D) gradients and index arrays
    assert u * sum(cfg.windows) * m > 2 * u * max(cfg.windows) * m
    assert peak <= bound + slack


def _smooth_case(seed_start=0, train=False):
    cfg = tiny_config()
    for seed in range(seed_start, seed_start + 60):
        rng = np.random.default_rng(seed)
        model = init_model(cfg, 20, cat_block(), seed=seed + 100).astype(np.float64)
        batch = tiny_batch(rng, cfg)
        if smoothness_margin(model, batch) > 1e-3:
            return model, batch
    raise AssertionError("no smooth configuration found")


def test_full_model_gradients_match_finite_differences(rng):
    model, batch = _smooth_case()
    worst, n = fd_sweep(model, batch, batch.labels, eps=1e-5, sample=40, rng=rng)
    assert n >= 100
    assert worst <= 1e-4


def test_train_mode_gradients_match_finite_differences(rng):
    # fixed dropout seed -> the masked loss is still a smooth function
    model, batch = _smooth_case(seed_start=7)
    worst, _ = fd_sweep(model, batch, batch.labels, eps=1e-5, train=True,
                        dropout_seed=3, sample=25, rng=rng)
    assert worst <= 1e-4


def test_load_pretrained_embeddings(tmp_path, rng):
    cfg = tiny_config()
    vocab = vocab_of([["alpha"] * 3, ["beta"] * 3], min_count=2)
    model = init_model(cfg, len(vocab), cat_block(), seed=0)
    before = model.embedding.copy()

    vec = tmp_path / "vectors.txt"
    vec.write_text("1 4\nalpha 1.0 2.0 3.0 4.0\n")
    n = load_pretrained_embeddings(model, vec, vocab)
    assert n == 1
    i = vocab.token_to_index["alpha"]
    assert model.embedding[i].tolist() == [1.0, 2.0, 3.0, 4.0]
    j = vocab.token_to_index["beta"]
    assert (model.embedding[j] == before[j]).all()
    assert not model.embedding[0].any()


def test_load_pretrained_rejects_dim_mismatch(tmp_path):
    vocab = vocab_of([["a"] * 2], min_count=2)
    model = init_model(tiny_config(), len(vocab), cat_block(), seed=0)
    vec = tmp_path / "vectors.txt"
    vec.write_text("1 10\na 1 2 3 4 5 6 7 8 9 10\n")
    with pytest.raises(DataError):
        load_pretrained_embeddings(model, vec, vocab)


def test_load_pretrained_empty_file_is_noop(tmp_path):
    vocab = vocab_of([["a"] * 2], min_count=2)
    model = init_model(tiny_config(), len(vocab), cat_block(), seed=0)
    before = model.embedding.copy()
    vec = tmp_path / "vectors.txt"
    vec.write_text("")
    assert load_pretrained_embeddings(model, vec, vocab) == 0
    assert (model.embedding == before).all()


def test_load_pretrained_reports_bad_line_number(tmp_path):
    vocab = vocab_of([["a"] * 2], min_count=2)
    model = init_model(tiny_config(), len(vocab), cat_block(), seed=0)
    vec = tmp_path / "vectors.txt"
    vec.write_text("2 4\na 1 2 3 4\nb 1 2\n")
    with pytest.raises(DataError, match=":3"):
        load_pretrained_embeddings(model, vec, vocab)


@pytest.mark.parametrize("value", ["nan", "-inf", "1e39"])
def test_load_pretrained_rejects_values_a_float32_row_cannot_hold(tmp_path, value):
    # unchecked, a NaN row trained to a bundle that eval then refused
    vocab = vocab_of([["a"] * 2], min_count=2)
    model = init_model(tiny_config(), len(vocab), cat_block(), seed=0)
    before = model.embedding.copy()
    vec = tmp_path / "vectors.txt"
    vec.write_text(f"1 4\na 1 2 {value} 4\n")
    with pytest.raises(DataError, match=f"{vec}:2: values must be finite"):
        load_pretrained_embeddings(model, vec, vocab)
    assert model.embedding.tobytes() == before.tobytes()


@pytest.mark.parametrize("infer_batch", [10, 256])
def test_predict_proba_in_one_chunk_equals_forward(rng, monkeypatch, infer_batch):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=9)
    batch = tiny_batch(rng, cfg, b=10)
    monkeypatch.setattr(cnn, "INFER_BATCH", infer_batch)
    assert np.array_equal(predict_proba(model, batch), forward(model, batch, train=False).probs)


def test_predict_proba_of_no_records_equals_forward(rng):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=9)
    empty = tiny_batch(rng, cfg, b=3).take(np.arange(0))
    probs = predict_proba(model, empty)
    ref = forward(model, empty, train=False).probs
    assert probs.shape == ref.shape == (0, cfg.label_count)
    assert probs.dtype == ref.dtype


def test_predict_proba_chunks_match_forward(rng, monkeypatch):
    cfg = tiny_config()
    model = init_model(cfg, 20, cat_block(), seed=9)
    batch = tiny_batch(rng, cfg, b=10)
    whole = forward(model, batch, train=False).probs
    monkeypatch.setattr(cnn, "INFER_BATCH", 3)
    chunked = predict_proba(model, batch)
    # float32 matmuls round differently across batch shapes
    assert chunked == pytest.approx(whole, abs=2e-6)


def _reference_batch(rng, cfg, vocab_size=9, b=6):
    """A batch with many PAD slots (and all-PAD windows), tokens repeated
    inside a field and tokens shared across fields (small vocabulary); the
    text of record 0 is all PAD."""
    tokens = {}
    for f in FIELDS:
        t = rng.integers(1, vocab_size, size=(b, cfg.max_lens[f]))
        t[rng.random(t.shape) < 0.45] = 0
        t[1, 1:] = 0                           # a field with one leading token
        tokens[f] = t.astype(np.int64)
    tokens["text"][0] = 0
    tokens["text"][2] = 3                      # one token repeated over a field
    cat = np.stack([rng.choice(cat_block(), size=4, replace=False) for _ in range(b)])
    labels = rng.integers(0, cfg.label_count, size=b).astype(np.int64)
    return FeatureBatch(tokens, cat.astype(np.int64), labels)


def _rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@pytest.mark.parametrize("train", [False, True])
def test_forward_backward_match_dense_reference(train):
    cfg = tiny_config(windows=(1, 2, 3), filters_per_window=3)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        model = init_model(cfg, 9, cat_block(), seed=seed).astype(np.float64)
        for name, p in model.params.items():
            if name.startswith("conv_b"):
                p[:] = rng.normal(scale=0.2, size=p.shape)
        batch = _reference_batch(rng, cfg)
        fwd = forward(model, batch, train=train, dropout_seed=seed)
        ref = dense_forward(model, batch, train=train, dropout_seed=seed)
        assert _rel_err(fwd.probs, ref[0]) <= 1e-12
        assert _rel_err(fwd.theta_hat, ref[1]) <= 1e-12
        grads = backward(model, fwd, batch.labels)
        want = dense_backward(model, ref, batch.labels)
        assert list(grads) == list(want) == list(model.params)
        for name in grads:
            assert grads[name].shape == want[name].shape
            assert _rel_err(grads[name], want[name]) <= 1e-12, name
        assert not grads["embedding"][0].any()


def test_forward_pass_caches_no_window_axis(rng):
    # k=7 and windows 2, 3: no other dimension of this batch is 14 or 21,
    # so any cached im2col-shaped (B, P, h*k) array would show up
    cfg = tiny_config(embed_dim=7)
    model = init_model(cfg, 12, cat_block(), seed=0)
    batch = tiny_batch(rng, cfg, vocab_size=12)
    fwd = forward(model, batch, train=True, dropout_seed=1)

    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, dict):
            for v in x.values():
                yield from arrays(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                yield from arrays(v)
        elif hasattr(x, "__dataclass_fields__"):
            yield from arrays(vars(x))

    cached = list(arrays({k: v for k, v in vars(fwd).items()
                          if k not in ("probs", "theta_hat")}))
    assert cached
    window_axes = {h * cfg.embed_dim for h in cfg.windows}
    for a in cached:
        assert not window_axes & set(a.shape), a.shape
        assert a.ndim <= 2 and a.size <= batch.size * max(cfg.max_lens.values()) * 4


def _pass_and_grads(model, batch, train):
    fwd = forward(model, batch, train=train, dropout_seed=3)
    return fwd, backward(model, fwd, batch.labels)


def _with_pad_columns(batch, n):
    return FeatureBatch({f: np.pad(t, ((0, 0), (0, n))) for f, t in batch.tokens.items()},
                        batch.cat_positions, batch.labels)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [False, True])
def test_trailing_pad_columns_change_nothing(train, dtype):
    # every field already ends in an all-PAD window of each size, so more
    # PAD columns add only windows equal to it; pooling stops at the first
    # all-PAD window, so every output bit stays where it was
    cfg = tiny_config(windows=(1, 2, 3), filters_per_window=3)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        model = init_model(cfg, 9, cat_block(), seed=seed).astype(dtype)
        for bias in model.params["conv_b"]:
            bias[:] = rng.normal(scale=0.2, size=3)
        reference = _reference_batch(rng, cfg)
        batch = _with_pad_columns(reference, max(cfg.windows))
        wide = _with_pad_columns(reference, max(cfg.windows) + 4)
        fwd, grads = _pass_and_grads(model, batch, train)
        wide_fwd, wide_grads = _pass_and_grads(model, wide, train)
        assert np.array_equal(fwd.probs, wide_fwd.probs)
        assert np.array_equal(fwd.theta_hat, wide_fwd.theta_hat)
        assert list(grads) == list(wide_grads)
        for name in grads:
            assert np.array_equal(grads[name], wide_grads[name]), name
        if not train:
            assert np.array_equal(predict_proba(model, batch), predict_proba(model, wide))


@pytest.mark.parametrize("train", [False, True])
def test_all_pad_field_and_inner_pad_match_dense_reference(train):
    # profile_location is PAD in every record; text has PAD between real
    # tokens and ends in columns that are PAD for the whole batch. Positive
    # biases make the all-PAD window the max of some filters, so pooling
    # must reach it, and dropping it would also move the argmax
    cfg = tiny_config(windows=(1, 2, 3), filters_per_window=3, dropout_rate=0.25)
    text = np.array([[4, 0, 5, 0, 0, 0], [6, 1, 7, 2, 0, 0], [3, 3, 0, 0, 0, 0]])
    hit_pad_window = False
    for seed in range(8):
        rng = np.random.default_rng(seed)
        model = init_model(cfg, 9, cat_block(), seed=seed).astype(np.float64)
        for bias in model.params["conv_b"]:
            bias[:] = rng.normal(loc=0.1, scale=0.2, size=3)
        batch = _reference_batch(rng, cfg, b=3)
        batch.tokens["text"] = text.copy()
        batch.tokens["profile_location"][:] = 0
        fwd = forward(model, batch, train=train, dropout_seed=seed)
        ref = dense_forward(model, batch, train=train, dropout_seed=seed)
        assert _rel_err(fwd.probs, ref[0]) <= 1e-12
        assert _rel_err(fwd.theta_hat, ref[1]) <= 1e-12
        grads = backward(model, fwd, batch.labels)
        want = dense_backward(model, ref, batch.labels)
        for name in grads:
            assert _rel_err(grads[name], want[name]) <= 1e-12, name
        for h in cfg.windows:
            arg, gate = fwd._pools["text", h]
            hit_pad_window |= bool((gate & (arg == 4)).any())   # the window at column 4
            pad_arg, _ = fwd._pools["profile_location", h]
            assert not pad_arg.any()                             # all-PAD: first position
        if not train:
            assert np.array_equal(predict_proba(model, batch), fwd.probs)
    assert hit_pad_window
