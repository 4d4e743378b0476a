"""Finite-difference sweep over CNN parameters, plus a smoothness check that
guarantees the sweep is taken at a differentiable point (no max-pool argmax
races, no ReLU boundary crossings within the step size)."""

import numpy as np

from oracles import dense_conv
from tweetgeo.cnn import FIELDS, FeatureBatch, backward, forward
from tweetgeo.nncore import cross_entropy_batch, relu
from tweetgeo.textproc import PAD_INDEX


def smoothness_margin(model, batch: FeatureBatch) -> float:
    """Smallest distance to a gradient discontinuity across the batch:
    the winning activation's lead over any different-content window, the
    winning pre-activation's distance from 0, and (for all-clamped filters)
    every pre-activation's clearance below 0."""
    margin = np.inf
    cfg = model.config
    for f in FIELDS:
        idx = batch.tokens[f]
        for h in cfg.windows:
            _, pre = dense_conv(model, batch, f, h)
            act = relu(pre)
            n_b, n_p, n_m = act.shape
            for b in range(n_b):
                contents = [tuple(idx[b, o:o + h]) for o in range(n_p)]
                for j in range(n_m):
                    top = int(act[b, :, j].argmax())
                    if act[b, top, j] > 0:
                        margin = min(margin, pre[b, top, j])
                        for o in range(n_p):
                            if contents[o] != contents[top]:
                                margin = min(margin, act[b, top, j] - act[b, o, j])
                    else:
                        margin = min(margin, -pre[b, :, j].max())
    return float(margin)


def fd_sweep(model, batch: FeatureBatch, labels, eps=1e-5, train=False,
             dropout_seed=0, sample=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    Skips the frozen PAD embedding row (but asserts its analytic gradient is
    exactly zero). `sample` limits the sweep to that many coordinates per
    tensor, chosen by `rng`.
    """
    def loss():
        fwd = forward(model, batch, train=train, dropout_seed=dropout_seed)
        return cross_entropy_batch(fwd.probs, labels)

    fwd = forward(model, batch, train=train, dropout_seed=dropout_seed)
    grads = backward(model, fwd, labels)
    assert not grads["embedding"][PAD_INDEX].any()

    worst = 0.0
    n_checked = 0
    for name, p in model.params.items():
        coords = [ix for ix in np.ndindex(p.shape)
                  if not (name == "embedding" and ix[0] == PAD_INDEX)]
        if sample is not None and len(coords) > sample:
            pick = rng.choice(len(coords), size=sample, replace=False)
            coords = [coords[i] for i in pick]
        for ix in coords:
            old = p[ix]
            p[ix] = old + eps
            lp = loss()
            p[ix] = old - eps
            lm = loss()
            p[ix] = old
            fd = (lp - lm) / (2 * eps)
            g = grads[name][ix]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
            n_checked += 1
    return worst, n_checked
