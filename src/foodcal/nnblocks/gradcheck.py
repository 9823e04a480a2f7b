"""Finite-difference verification of the analytic backward passes.

The loss is the sum of the block output. Analytic gradients for the input
and every parameter array are compared against central differences with
step 1e-5 in double precision; the relative error of an element is
|a - n| / max(|a|, |n|, 1), so the reported maximum is meaningful for
gradients at or above unit scale and degrades gracefully to an absolute
comparison below it.

Each element still gets its own central difference, but the forwards are
batched: a chunk of elements of one target array becomes 2k perturbed
copies of that array, evaluated in one forward. Input copies ride the
batch axis; a parameter array is swapped for its stacked copies (see
``ops.with_copy_axis``) for the duration of the call.
"""

from functools import partial

import numpy as np

from foodcal.nnblocks import blocks, ops

BLOCK_NAMES = ("conv", "coordconv", "cbam", "c2fcd")

_FD_STEP = 1e-5

# elements perturbed per forward (2x as many stacked copies); bounds the
# memory of one forward. Seed 0 of all four blocks, medians of 16
# alternations on 2 CPUs: 108 ms at 16, 97 ms at 32, 95 ms at 64; peak RSS
# of the four checks 38, 41 and 47 MB
_CHUNK = 32


def _make_case(block: str, seed: int):
    """Input, params, and fwd/bwd callables for one named block; the table is
    built per call, so rebound ``ops`` and ``blocks`` functions are the ones run."""
    cases = {  # input shape, params constructor, forward, backward
        "conv": ((2, 3, 6, 5), partial(ops.ConvParams.init, 4, 3, (3, 2), stride=2, padding=1),
                 ops.conv2d_fwd, ops.conv2d_bwd),
        "coordconv": ((2, 3, 5, 6), partial(ops.ConvParams.init, 4, 5, 3, padding=1),
                      ops.coordconv_fwd, ops.coordconv_bwd),
        "cbam": ((2, 5, 6, 7), partial(blocks.CbamParams.init, 5, reduction=2),
                 blocks.cbam_fwd, blocks.cbam_bwd),
        "c2fcd": ((1, 6, 5, 5), partial(blocks.C2fCdParams.init, 6, 8, n=1, reduction=4),
                  blocks.c2f_cd_fwd, blocks.c2f_cd_bwd),
    }
    if block not in cases:
        raise ValueError(f"unknown block {block!r}; expected one of {BLOCK_NAMES}")
    shape, init, fwd, bwd = cases[block]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    p = init(rng=rng)
    return x, p, lambda x: fwd(x, p), bwd


def _max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


def _swap_param(params, name: str, value: np.ndarray) -> np.ndarray:
    """Bind ``value`` to the parameter array at dotted ``name``, a name from
    ``ops.param_arrays``; return the array it replaces."""
    *path, field = name.split(".")
    owner = params
    for key in path:
        owner = owner[int(key)] if isinstance(owner, (list, tuple)) else getattr(owner, key)
    old = getattr(owner, field)
    setattr(owner, field, value)
    return old


def _forward_with(fwd, x, params, name, stacked):
    """Output of ``fwd`` over ``x`` tiled once per copy in ``stacked``, with
    ``stacked`` bound in place of the parameter ``name`` for the call."""
    arr = _swap_param(params, name, stacked)
    try:
        return fwd(np.tile(x, (len(stacked), 1, 1, 1)))[0]
    finally:
        _swap_param(params, name, arr)


def _central_differences(arr: np.ndarray, forward, step: float) -> np.ndarray:
    """d sum(output) / d arr by central differences, one per element.
    ``forward`` takes (2k, *arr.shape) copies of ``arr``, copy i < k with
    one element raised by ``step`` and copy k + i with it lowered, and
    returns an output whose batch holds 2k equal groups, one per copy."""
    flat = arr.reshape(-1)
    numeric = np.empty(flat.size)
    for start in range(0, flat.size, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, flat.size))
        k = len(idx)
        stacked = np.tile(flat, (2 * k, 1))
        stacked[np.arange(k), idx] = flat[idx] + step
        stacked[np.arange(k, 2 * k), idx] = flat[idx] - step
        loss = forward(stacked.reshape(2 * k, *arr.shape)).reshape(2 * k, -1).sum(axis=1)
        numeric[idx] = (loss[:k] - loss[k:]) / (2.0 * step)
    return numeric.reshape(arr.shape)


def _numeric_gradients(x, params, fwd, step: float) -> dict[str, np.ndarray]:
    """Central-difference gradients of sum(fwd(x)) for ``"input"`` and for
    every parameter array, keyed by its dotted name."""
    numeric = {"input": _central_differences(x, lambda xs: fwd(xs.reshape(-1, *x.shape[1:]))[0], step)}
    for name, arr in ops.param_arrays(params):
        numeric[name] = _central_differences(arr, partial(_forward_with, fwd, x, params, name), step)
    return numeric


def gradcheck(block: str, seed: int = 0, step: float = _FD_STEP) -> float:
    """Max relative error between analytic and central-difference gradients
    of sum(output) over the input and all parameters."""
    x, params, fwd, bwd = _make_case(block, seed)
    y, cache = fwd(x)
    gx, grads = bwd(cache, np.ones_like(y))

    names = sorted(name for name, _ in ops.param_arrays(params))
    if sorted(grads) != names:
        raise ValueError(f"{block}: backward returns gradients of {sorted(grads)}, the check covers {names}")
    analytic = {"input": gx, **grads}
    numeric = _numeric_gradients(x, params, fwd, step)
    return max(_max_rel_err(np.asarray(analytic[name]), num) for name, num in numeric.items())
