"""Finite-difference verification of the analytic backward passes.

The loss is the sum of the block output. Analytic gradients for the input
and every parameter array are compared against central differences with
step 1e-5 in double precision; the relative error of an element is
|a - n| / max(|a|, |n|, 1), so the reported maximum is meaningful for
gradients at or above unit scale and degrades gracefully to an absolute
comparison below it.
"""

import numpy as np

from foodcal.nnblocks import blocks, ops

BLOCK_NAMES = ("conv", "coordconv", "cbam", "c2fcd")

_FD_STEP = 1e-5


def _make_case(block: str, seed: int):
    """Input, params, and fwd/bwd callables for one named block."""
    rng = np.random.default_rng(seed)
    if block == "conv":
        x = rng.normal(size=(2, 3, 6, 5))
        p = ops.ConvParams.init(4, 3, (3, 2), rng, stride=2, padding=1)

        def fwd(x):
            return ops.conv2d_fwd(x, p)

        def bwd(cache, gy):
            gx, gw, gb = ops.conv2d_bwd(cache, gy)
            return gx, {"weight": gw, "bias": gb}

        return x, p, fwd, bwd
    if block == "coordconv":
        x = rng.normal(size=(2, 3, 5, 6))
        p = ops.ConvParams.init(4, 5, 3, rng, padding=1)

        def fwd(x):
            return ops.coordconv_fwd(x, p)

        def bwd(cache, gy):
            gx, gw, gb = ops.coordconv_bwd(cache, gy)
            return gx, {"weight": gw, "bias": gb}

        return x, p, fwd, bwd
    if block == "cbam":
        x = rng.normal(size=(2, 5, 6, 7))
        p = blocks.CbamParams.init(5, reduction=2, rng=rng)

        def fwd(x):
            return blocks.cbam_fwd(x, p)

        return x, p, fwd, blocks.cbam_bwd
    if block == "c2fcd":
        x = rng.normal(size=(1, 6, 5, 5))
        p = blocks.C2fCdParams.init(6, 8, n=1, reduction=4, rng=rng)

        def fwd(x):
            return blocks.c2f_cd_fwd(x, p)

        return x, p, fwd, blocks.c2f_cd_bwd
    raise ValueError(f"unknown block {block!r}; expected one of {BLOCK_NAMES}")


def _max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


def gradcheck(block: str, seed: int = 0, step: float = _FD_STEP) -> float:
    """Max relative error between analytic and central-difference gradients
    of sum(output) over the input and all parameters."""
    x, params, fwd, bwd = _make_case(block, seed)
    y, cache = fwd(x)
    gx, grads = bwd(cache, np.ones_like(y))

    arrays = ops.param_arrays(params)
    names = sorted(name for name, _ in arrays)
    if sorted(grads) != names:
        raise ValueError(f"{block}: backward returns gradients of {sorted(grads)}, the check covers {names}")
    worst = 0.0
    targets = [("input", x, gx)] + [(name, arr, grads[name]) for name, arr in arrays]

    for _name, arr, analytic in targets:
        numeric = np.empty_like(arr)
        flat = arr.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(fwd(x)[0].sum())
            flat[i] = orig - step
            dn = float(fwd(x)[0].sum())
            flat[i] = orig
            num_flat[i] = (up - dn) / (2.0 * step)
        worst = max(worst, _max_rel_err(np.asarray(analytic), numeric))
    return worst
