"""Minimal numeric kernel: stable softmax, batch cross-entropy,
inverted dropout, and Adam, as plain functions over numpy arrays. Adam's
state belongs to the caller: a moment pair per tensor and the step count.
The backward pass lives with the model (`cnn.backward`).

Parameters live in float32 by default; every op preserves the dtype it is
given so a float64 twin of a model can be used for finite-difference checks.
"""

from __future__ import annotations

import math

import numpy as np

PROB_FLOOR = 1e-12
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor
# Cells per temporary of every blocked walk: adam_step, bayes._joint_log_likelihood,
# bayes.igr_scores and geo._nearest_ids size their blocks from it (512 KiB of
# float64), so their memory is bounded by a block, not by the tensor or the corpus.
# They read it as nncore.BLOCK_CELLS when called.
BLOCK_CELLS = 1 << 16


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


def dropout(x: np.ndarray, rate: float, train: bool, seed: int) -> tuple[np.ndarray, np.ndarray]:
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


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float):
    """Adam update number t (from 1) of one tensor with bias correction;
    mutates param and its moments m and v in place. Every tensor of a model
    takes the same t, the training loop's step count.

        m <- b1*m + (1-b1)*g        v <- b2*v + (1-b2)*g^2
        p <- p - lr * m_hat / (sqrt(v_hat) + eps)

    Each block runs the formula's operations in its order, with the moments
    updated in place, so the result is bit-identical to evaluating it over
    the whole tensor. Blocks are leading-axis rows of about BLOCK_CELLS
    elements, so the temporaries hold one block, not the whole tensor.
    """
    if param.shape != grad.shape:
        raise ValueError(f"param shape {param.shape} != grad shape {grad.shape}")
    m_corr, v_corr = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    rows = max(1, BLOCK_CELLS // max(1, math.prod(param.shape[1:])))
    for r in range(0, param.shape[0], rows):
        p, g = param[r:r + rows], grad[r:r + rows]
        mb, vb = m[r:r + rows], v[r:r + rows]
        mb *= BETA1
        mb += g * (1.0 - BETA1)
        vb *= BETA2
        vb += np.square(g) * (1.0 - BETA2)
        p -= (mb / m_corr * lr / (np.sqrt(vb / v_corr) + EPS)).astype(param.dtype, copy=False)
