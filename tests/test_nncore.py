import math

import numpy as np
import pytest

from oracles import adam_step_reference, csr_counts
from tweetgeo import bayes, geo, nncore
from tweetgeo.geo import City, CityTable
from tweetgeo.ingest import Record
from tweetgeo.nncore import adam_step, cross_entropy_batch, dropout, softmax


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
    adam_step(p, np.zeros_like(p), np.zeros_like(p), np.zeros_like(p), 1, 1e-3)
    assert p.tolist() == [1.0, -2.0]


def test_adam_first_step_hand_value():
    # t=1, g=1: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
    p = np.array([0.5], dtype=np.float64)
    adam_step(p, np.array([1.0]), np.zeros(1), np.zeros(1), 1, 1e-3)
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
    p, m, v = np.array([5.0]), np.zeros(1), np.zeros(1)
    for t in range(1, 2001):
        adam_step(p, 2.0 * p, m, v, t, 1e-2)
    assert abs(p[0]) < 0.1
    assert p[0] == pytest.approx(_reference_adam_quadratic(2000, lr=1e-2), abs=1e-12)


def test_adam_matches_reference_loop_at_default_lr():
    p, m, v = np.array([5.0]), np.zeros(1), np.zeros(1)
    for t in range(1, 501):
        adam_step(p, 2.0 * p, m, v, t, 1e-3)
    assert p[0] == pytest.approx(_reference_adam_quadratic(500, lr=1e-3), abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_bit_identical_to_reference(monkeypatch, dtype):
    rng = np.random.default_rng(4)
    cells = nncore.BLOCK_CELLS
    for shape, block_cells in [((50, 7), cells),
                               ((50, 7), 7),                          # a block per row
                               ((3 * (cells // 7) + 11, 7), cells),   # 3 blocks, a ragged 4th
                               ((13,), cells)]:                       # a bias
        monkeypatch.setattr(nncore, "BLOCK_CELLS", block_cells)
        p = rng.normal(size=shape).astype(dtype)
        q = p.copy()
        m, v = np.zeros_like(p), np.zeros_like(p)        # updated in place
        m_ref, v_ref = m.copy(), v.copy()                # replaced on every step
        for t in range(1, 6):
            g = rng.normal(size=p.shape).astype(dtype)
            g[rng.random(p.shape[0]) < 0.3] = 0.0          # untouched rows, as for embeddings
            adam_step(p, g, m, v, t, 1e-2)
            m_ref, v_ref = adam_step_reference(q, g, m_ref, v_ref, t, 1e-2)
            assert p.dtype == m.dtype == v.dtype == dtype
            assert p.tobytes() == q.tobytes()
            assert m.tobytes() == m_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def test_one_block_bound_reaches_every_blocked_walk(monkeypatch):
    # every walk reads nncore.BLOCK_CELLS when called: one monkeypatch splits
    # each of them into blocks of a row or a column, and no output bit moves
    rng = np.random.default_rng(5)
    counts = csr_counts(rng.integers(0, 3, size=(60, 40)) * (rng.random((60, 40)) < 0.3))
    labels = rng.integers(0, 4, size=60)
    model = bayes.fit_mnb(counts, labels, n_classes=4, alpha=0.1)
    table = CityTable([City(i + 1, f"c{i}", float(rng.uniform(-90, 90)),
                            float(rng.uniform(-180, 180)), "AA") for i in range(9)])
    points = rng.uniform([-90.0, -180.0], [90.0, 180.0], size=(50, 2)).tolist()
    param, grad = rng.normal(size=(6, 7)), rng.normal(size=(6, 7))

    def walks():
        records = [Record(f"u{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(points)]
        p = param.copy()
        adam_step(p, grad, np.zeros_like(p), np.zeros_like(p), 1, 1e-2)
        return (bayes.igr_scores(counts, labels, 4).tobytes(),
                bayes.posterior_mnb(model, counts).tobytes(),
                [r.city_id for r in geo.assign_cities(records, table)],
                p.tobytes())

    divisors = []

    class Cells(int):
        """A block bound that records each walk sizing its blocks from it."""
        def __floordiv__(self, other):
            divisors.append(other)
            return int(self) // other

    whole = walks()
    monkeypatch.setattr(nncore, "BLOCK_CELLS", Cells(5))
    assert walks() == whole
    assert divisors == [7, 4, 4, 9]     # adam_step, igr_scores, posterior_mnb, assign_cities


def test_adam_rejects_shape_mismatch():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        adam_step(p, np.zeros(4), np.zeros(3), np.zeros(3), 1, 1e-3)


def test_cross_entropy_batch_mean():
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    got = cross_entropy_batch(p, np.array([0, 1]))
    assert got == pytest.approx((-math.log(0.5) - math.log(0.75)) / 2)
