"""Minimal numeric kernel: stable softmax, batch cross-entropy,
inverted dropout, and Adam, as plain functions over numpy arrays. The
backward pass lives with the model (`cnn.backward`).

Parameters live in float32 by default; every op preserves the dtype it is
given so a float64 twin of a model can be used for finite-difference checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_FLOOR = 1e-12
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, shifted by the max for stability."""
    z = np.asarray(logits)
    if z.shape[-1] == 0:
        raise ValueError("softmax over an empty vector")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy_batch(p: np.ndarray, labels: np.ndarray) -> float:
    """Mean -ln p[i, labels[i]] over a batch."""
    picked = np.maximum(p[np.arange(p.shape[0]), labels], PROB_FLOOR)
    return float(np.mean(-np.log(picked)))


def dropout(x: np.ndarray, rate: float = 0.5, train: bool = True,
            seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout. Train: zero each element with probability `rate` and
    scale survivors by 1/(1-rate); infer: identity. Returns (output, mask)
    where mask already carries the survivor scaling.

    The mask comes from a counter-based Philox stream keyed by `seed`, so a
    given (seed, shape) always yields the same mask.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError("dropout rate must be in [0, 1)")
    if not train or rate == 0.0:
        return x, np.ones_like(x)
    rng = np.random.Generator(np.random.Philox(key=seed))
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param), lr=lr)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState):
    """One Adam update with bias correction; mutates param, state.m and
    state.v in place.

        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        p <- p - lr * m_hat / (sqrt(v_hat) + eps)

    Each elementwise operation is the one the formula names, in its order,
    so the result is bit-identical to evaluating it into new arrays; two
    temporary arrays of the parameter's size are the only allocations.
    """
    if param.shape != grad.shape:
        raise ValueError(f"param shape {param.shape} != grad shape {grad.shape}")
    state.t += 1
    m, v = state.m, state.v
    num = np.multiply(grad, 1.0 - BETA1)
    m *= BETA1
    m += num
    den = np.square(grad)
    den *= 1.0 - BETA2
    v *= BETA2
    v += den
    np.divide(m, 1.0 - BETA1 ** state.t, out=num)      # m_hat
    num *= state.lr
    np.divide(v, 1.0 - BETA2 ** state.t, out=den)      # v_hat
    np.sqrt(den, out=den)
    den += EPS
    num /= den
    param -= num.astype(param.dtype, copy=False)
    return param, state
