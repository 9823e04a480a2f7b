"""Finite-difference verification of the analytic backward passes.

The loss is the sum of the block output. Analytic gradients for the input
and every parameter array are compared against central differences with
step 1e-5 in double precision; the relative error of an element is
|a - n| / max(|a|, |n|, 1), so the reported maximum is meaningful for
gradients at or above unit scale and degrades gracefully to an absolute
comparison below it.

Each element still gets its own central difference, but the forwards are
batched: a chunk of k elements of one target array becomes 2k perturbed
copies, evaluated in one forward, and each forward computes only what its
perturbation can change. An input copy is the one sample that holds its
element, so the batch is 2k samples; the other samples of its loss row
keep the output of the analytic pass. A parameter array is swapped, for
the duration of the call, for its 2k copies stacked on a copy axis (see
``ops``) and the input runs once, untiled: the ops before the parameter's
first use run once, and the rest run per copy. Each loss row is summed as
the full block output would be, so every numeric gradient has the bits of
a forward of the whole tiled batch. The case input is made here, finite
and 4-D, so the ``*_fwd`` forwards take it and its copies unchecked.
"""

from functools import partial

import numpy as np

from foodcal.nnblocks import blocks, ops

BLOCK_NAMES = ("conv", "coordconv", "cbam", "c2fcd")

_FD_STEP = 1e-5

# elements perturbed per forward (2x as many stacked copies); bounds the
# memory of one forward. Seed 0 of all four blocks in a new process, medians
# of 16 alternations on 2 shared CPUs: 61 ms at 16, 57 ms at 32, 54 ms at
# 64; peak RSS of that process 37.5, 38.2 and 41.4 MB
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


def _perturbed(rows: np.ndarray, row, col, delta) -> np.ndarray:
    """Copies ``rows[row[i]]``, each with element ``col[i]`` moved by ``delta[i]``."""
    copies = rows[row]
    copies[np.arange(len(copies)), col] += delta
    return copies


def _input_losses(fwd, x, y):
    """Loss of each perturbed copy of ``x``. A copy runs only the sample
    that holds its element; the other samples keep their output ``y``."""
    samples = x.reshape(len(x), -1)

    def losses(idx, delta):
        s, j = np.divmod(idx, samples.shape[1])
        out = fwd(_perturbed(samples, s, j, delta).reshape(len(idx), *x.shape[1:]))[0]
        rows = np.repeat(y[None], len(idx), axis=0)
        rows[np.arange(len(idx)), s] = out
        return rows.reshape(len(idx), -1).sum(axis=1)

    return losses


def _param_losses(fwd, x, params, name, arr):
    """Loss of each perturbed copy of the parameter ``name``: the copies are
    bound in its place, stacked (see ``ops``), for one forward of ``x``."""
    flat = arr.reshape(1, -1)

    def losses(idx, delta):
        stacked = _perturbed(flat, np.zeros_like(idx), idx, delta).reshape(len(idx), *arr.shape)
        old = _swap_param(params, name, stacked)
        try:
            out = fwd(x)[0]
        finally:
            _swap_param(params, name, old)
        return out.reshape(len(idx), -1).sum(axis=1)

    return losses


def _central_differences(shape, losses, step: float) -> np.ndarray:
    """d loss / d element of an array of ``shape`` by central differences,
    one per element. ``losses(idx, delta)`` gives, in one forward, the loss
    with element ``idx[i]`` alone moved by ``delta[i]``, for each i."""
    numeric = np.empty(int(np.prod(shape)))
    for start in range(0, numeric.size, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, numeric.size))
        k = len(idx)
        loss = losses(np.concatenate([idx, idx]), np.repeat([step, -step], k))
        numeric[idx] = (loss[:k] - loss[k:]) / (2.0 * step)
    return numeric.reshape(shape)


def _numeric_gradients(x, y, params, fwd, step: float) -> dict[str, np.ndarray]:
    """Central-difference gradients of sum(fwd(x)) for ``"input"`` and for
    every parameter array, keyed by its dotted name; ``y`` is fwd(x)."""
    numeric = {"input": _central_differences(x.shape, _input_losses(fwd, x, y), step)}
    for name, arr in ops.param_arrays(params):
        numeric[name] = _central_differences(arr.shape, _param_losses(fwd, x, params, name, arr), step)
    return numeric


def gradcheck(block: str, seed: int = 0, step: float = _FD_STEP) -> tuple[float, str]:
    """Max relative error between analytic and central-difference gradients
    of sum(output) over the input and all parameters, and the dotted name
    of the array where it occurs (``"input"`` for the input)."""
    x, params, fwd, bwd = _make_case(block, seed)
    y, cache = fwd(x)
    gx, grads = bwd(cache, np.ones_like(y))

    names = sorted(name for name, _ in ops.param_arrays(params))
    if sorted(grads) != names:
        raise ValueError(f"{block}: backward returns gradients of {sorted(grads)}, the check covers {names}")
    analytic = {"input": gx, **grads}
    numeric = _numeric_gradients(x, y, params, fwd, step)
    errors = {name: _max_rel_err(np.asarray(analytic[name]), num) for name, num in numeric.items()}
    worst = max(errors, key=errors.get)
    return errors[worst], worst
