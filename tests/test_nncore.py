import math

import numpy as np
import pytest

from oracles import adam_step_reference
from tweetgeo.nncore import AdamState, adam_step, cross_entropy_batch, dropout, softmax


def test_softmax_uniform_and_known_values():
    assert softmax(np.zeros(4)).tolist() == [0.25] * 4
    got = softmax(np.array([math.log(2), 0.0]))
    assert got == pytest.approx([2 / 3, 1 / 3])


def test_softmax_handles_large_logits():
    got = softmax(np.array([1000.0, 0.0]))
    assert got[0] == pytest.approx(1.0, abs=1e-6)
    assert np.isfinite(got).all()


def test_softmax_rejects_empty():
    with pytest.raises(ValueError):
        softmax(np.zeros(0))


def test_softmax_properties(rng):
    for _ in range(100):
        z = rng.normal(size=rng.integers(1, 12))
        p = softmax(z)
        assert (p >= 0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.argmax(p) == np.argmax(z)


def test_cross_entropy_values():
    assert cross_entropy_batch(np.array([[1.0, 0.0, 0.0]]), np.array([0])) == 0.0
    assert cross_entropy_batch(np.full((1, 4), 0.25), np.array([2])) == \
        pytest.approx(math.log(4.0))


def test_cross_entropy_clamps_zero_probability():
    assert cross_entropy_batch(np.array([[1.0, 0.0]]), np.array([1])) == \
        pytest.approx(-math.log(1e-12))


def test_dropout_identity_cases(rng):
    x = rng.normal(size=(50,)).astype(np.float32)
    out, mask = dropout(x, 0.5, train=False, seed=1)
    assert (out == x).all()
    out, mask = dropout(x, 0.0, train=True, seed=1)
    assert (out == x).all()
    with pytest.raises(ValueError):
        dropout(x, 1.0, train=True, seed=1)


def test_dropout_statistics_and_scaling():
    x = np.ones(100_000, dtype=np.float64)
    out, mask = dropout(x, 0.5, train=True, seed=42)
    zero_frac = float(np.mean(out == 0.0))
    assert abs(zero_frac - 0.5) < 0.01
    assert float(out.mean()) == pytest.approx(1.0, abs=0.02)   # E[out] ~ x
    assert set(np.unique(out)) == {0.0, 2.0}                    # survivors scaled by 1/(1-p)


def test_dropout_deterministic_per_seed():
    x = np.ones(1000)
    a, _ = dropout(x, 0.5, train=True, seed=9)
    b, _ = dropout(x, 0.5, train=True, seed=9)
    c, _ = dropout(x, 0.5, train=True, seed=10)
    assert (a == b).all()
    assert (a != c).any()


def test_adam_zero_gradient_is_noop():
    p = np.array([1.0, -2.0], dtype=np.float32)
    st = AdamState.for_param(p)
    adam_step(p, np.zeros_like(p), st)
    assert p.tolist() == [1.0, -2.0]


def test_adam_first_step_hand_value():
    # t=1, g=1: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
    p = np.array([0.5], dtype=np.float64)
    st = AdamState.for_param(p, lr=1e-3)
    adam_step(p, np.array([1.0]), st)
    expected = 0.5 - 1e-3 * 1.0 / (1.0 + 1e-8)
    assert p[0] == pytest.approx(expected, rel=1e-12)


def _reference_adam_quadratic(steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    # independent scalar recurrence for f(p) = p^2 from p = 5
    p, m, v = 5.0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = 2.0 * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    return p


def test_adam_minimizes_quadratic():
    # step size is bounded by ~lr, so 2000 steps converge from 5.0 at lr 1e-2
    p = np.array([5.0], dtype=np.float64)
    st = AdamState.for_param(p, lr=1e-2)
    for _ in range(2000):
        adam_step(p, 2.0 * p, st)
    assert abs(p[0]) < 0.1
    assert p[0] == pytest.approx(_reference_adam_quadratic(2000, lr=1e-2), abs=1e-12)


def test_adam_matches_reference_loop_at_default_lr():
    p = np.array([5.0], dtype=np.float64)
    st = AdamState.for_param(p, lr=1e-3)
    for _ in range(500):
        adam_step(p, 2.0 * p, st)
    assert p[0] == pytest.approx(_reference_adam_quadratic(500, lr=1e-3), abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_bit_identical_to_reference(dtype):
    rng = np.random.default_rng(4)
    p = rng.normal(size=(50, 7)).astype(dtype)
    q = p.copy()
    st = AdamState.for_param(p, lr=1e-2)
    ref = AdamState.for_param(q, lr=1e-2)
    m_buf, v_buf = st.m, st.v
    for step in range(5):
        g = rng.normal(size=p.shape).astype(dtype)
        g[rng.random(p.shape[0]) < 0.3] = 0.0          # untouched rows, as for embeddings
        out, _ = adam_step(p, g, st)
        adam_step_reference(q, g, ref)
        assert out is p and st.m is m_buf and st.v is v_buf
        assert p.dtype == st.m.dtype == st.v.dtype == dtype
        assert st.t == ref.t == step + 1
        assert p.tobytes() == q.tobytes()
        assert st.m.tobytes() == ref.m.tobytes() and st.v.tobytes() == ref.v.tobytes()


def test_adam_rejects_shape_mismatch():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(4), AdamState.for_param(p))


def test_cross_entropy_batch_mean():
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    got = cross_entropy_batch(p, np.array([0, 1]))
    assert got == pytest.approx((-math.log(0.5) - math.log(0.75)) / 2)
