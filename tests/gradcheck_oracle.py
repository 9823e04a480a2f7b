"""The central differences of ``gradcheck`` as they were computed before
each forward ran only what its perturbation can change.

Every forward runs the whole block on 2k perturbed copies of the input, or,
for a parameter, on 2k identical copies of the input, one per stacked copy
of the parameter: each op sees the batch it saw then, so the results are
bit for bit those of the batched check.
"""

from functools import partial

import numpy as np

from foodcal.nnblocks import ops

CHUNK = 32  # elements perturbed per forward, as in gradcheck


def _swap_param(params, name, value):
    """Bind ``value`` to the parameter array at dotted ``name``; return the
    array it replaces."""
    *path, field = name.split(".")
    owner = params
    for key in path:
        owner = owner[int(key)] if isinstance(owner, (list, tuple)) else getattr(owner, key)
    old = getattr(owner, field)
    setattr(owner, field, value)
    return old


def _forward_with(fwd, x, params, name, stacked):
    """Output of ``fwd`` over one copy of ``x`` per copy in ``stacked``,
    with ``stacked`` bound in place of the parameter ``name`` for the call."""
    arr = _swap_param(params, name, stacked)
    try:
        return fwd(np.stack([x] * len(stacked)))[0]
    finally:
        _swap_param(params, name, arr)


def _central_differences(arr, forward, step):
    """d sum(output) / d arr by central differences: ``forward`` takes
    (2k, *arr.shape) copies of ``arr``, copy i < k with one element raised
    by ``step`` and copy k + i with it lowered."""
    flat = arr.reshape(-1)
    numeric = np.empty(flat.size)
    for start in range(0, flat.size, CHUNK):
        idx = np.arange(start, min(start + CHUNK, flat.size))
        k = len(idx)
        stacked = np.tile(flat, (2 * k, 1))
        stacked[np.arange(k), idx] = flat[idx] + step
        stacked[np.arange(k, 2 * k), idx] = flat[idx] - step
        loss = forward(stacked.reshape(2 * k, *arr.shape)).reshape(2 * k, -1).sum(axis=1)
        numeric[idx] = (loss[:k] - loss[k:]) / (2.0 * step)
    return numeric.reshape(arr.shape)


def tiled_numeric_gradients(x, params, fwd, step):
    """Central-difference gradients of sum(fwd(x)) for ``"input"`` and for
    every parameter array, keyed by its dotted name."""
    numeric = {"input": _central_differences(x, lambda xs: fwd(xs.reshape(-1, *x.shape[1:]))[0], step)}
    for name, arr in ops.param_arrays(params):
        numeric[name] = _central_differences(arr, partial(_forward_with, fwd, x, params, name), step)
    return numeric
