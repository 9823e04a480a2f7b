"""Loop oracles of the max pools' gradient routing at ties.

A max pool passes each window's gradient to one element of the window: the
first maximal one, in row-major order for a spatial map and in channel
order for a pixel, found here by a plain loop. At a tie the pool has no
derivative, so finite differences of the block itself give no reference.
With each pool's chosen element held fixed, though, CBAM is smooth, and its
central differences give the gradient that the backward must return.
"""

import numpy as np


def first_maximum(values) -> int:
    """Index of the first largest of ``values``, by a plain loop."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def spatial_routes(x) -> list[list[int]]:
    """For each (sample, channel) map of ``x`` (n, c, h, w), the row-major
    index of its first maximum."""
    n, c, _, _ = x.shape
    return [[first_maximum(x[b, k].reshape(-1).tolist()) for k in range(c)] for b in range(n)]


def channel_routes(x) -> list[list[list[int]]]:
    """For each pixel (sample, row, column) of ``x``, its first maximal channel."""
    n, _, h, w = x.shape
    return [[[first_maximum(x[b, :, i, j].tolist()) for j in range(w)] for i in range(h)] for b in range(n)]


def route_spatial_max(x, gp):
    """Gradient of the (n, c) spatial max pool of ``x`` given its output
    gradient ``gp``: all of ``gp[b, k]`` on the first maximum of map (b, k)."""
    n, c, h, w = x.shape
    gx = np.zeros(x.shape)
    for b, row in enumerate(spatial_routes(x)):
        for k, at in enumerate(row):
            gx[b, k, at // w, at % w] = gp[b, k]
    return gx


def route_channel_max(x, gp):
    """Gradient of the (n, 1, h, w) channel max pool of ``x`` given its
    output gradient ``gp``: all of ``gp[b, 0, i, j]`` on the first maximal
    channel of pixel (b, i, j)."""
    gx = np.zeros(x.shape)
    for b, rows in enumerate(channel_routes(x)):
        for i, row in enumerate(rows):
            for j, k in enumerate(row):
                gx[b, k, i, j] = gp[b, 0, i, j]
    return gx


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def _conv_same(x, weight, bias):
    """Stride-1 cross-correlation of ``x`` with an odd square kernel, zero
    padded to keep the spatial size."""
    n, _, h, w = x.shape
    k = weight.shape[-1]
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.empty((n, weight.shape[0], h, w))
    for b, o, i, j in np.ndindex(out.shape):
        out[b, o, i, j] = bias[o] + (xp[b, :, i : i + k, j : j + k] * weight[o]).sum()
    return out


def _gated(x, p, spatial):
    """``x`` times its CBAM channel gates, the spatial max of map (b, k)
    read at element ``spatial[b][k]``."""
    n, c, _, _ = x.shape
    avg = x.mean(axis=(2, 3))
    mx = np.array([[x[b, k].reshape(-1)[spatial[b][k]] for k in range(c)] for b in range(n)])

    def mlp(v):
        return np.maximum(v @ p.w1.T + p.b1, 0.0) @ p.w2.T + p.b2

    return x * _sigmoid(mlp(avg) + mlp(mx))[:, :, None, None]


def cbam_with_routes(x, p, spatial, channel):
    """CBAM of ``x`` under parameters ``p`` in which the spatial max of
    map (b, k) reads element ``spatial[b][k]`` and the channel max of pixel
    (b, i, j) reads channel ``channel[b][i][j]``, whatever their values."""
    n, _, h, w = x.shape
    x1 = _gated(x, p, spatial)
    mean_map = x1.mean(axis=1)
    max_map = np.array([[[x1[b, channel[b][i][j], i, j] for j in range(w)] for i in range(h)] for b in range(n)])
    pre = _conv_same(np.stack([mean_map, max_map], axis=1), p.spatial.weight, p.spatial.bias)
    return x1 * _sigmoid(pre)


def cbam_input_gradient(x, p, gy, step=1e-5):
    """d sum(cbam(x) * gy) / dx with each max pool routed to the first
    maximum of the unperturbed forward: central differences of
    ``cbam_with_routes``, one element at a time."""
    spatial = spatial_routes(x)
    channel = channel_routes(_gated(x, p, spatial))
    grad = np.empty(x.shape)
    for idx in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += step
        down[idx] -= step
        loss_up = (cbam_with_routes(up, p, spatial, channel) * gy).sum()
        loss_down = (cbam_with_routes(down, p, spatial, channel) * gy).sum()
        grad[idx] = (loss_up - loss_down) / (2.0 * step)
    return grad
