"""Attention blocks: channel/spatial attention (CBAM) and the C2f variant
with a coordinate-aware entry convolution and CBAM on the concatenated
branch outputs (C2f_CD).

Wiring of the composite block: a 1x1 coordinate convolution enters, the
channels split into two halves, a chain of residual 3x3 bottlenecks runs on
the second half with every intermediate retained, the retained tensors are
concatenated, CBAM gates the concatenation, and a 1x1 convolution exits.
Every convolution is followed by SiLU and keeps the spatial size (stride 1,
a (2 * padding + 1)-square kernel). Each ``*_fwd`` has a ``*_bwd`` for the
gradient checker that follows the ``(gx, grads)`` protocol of ``ops``, and
follows its stacked-copy protocol too: gates, residual adds and
concatenations broadcast the copy axis, and each forward returns its copies
flattened into the batch. The public forwards check their input with
``ops.as_tensor``; a ``*_fwd`` takes it as checked, as it does every
tensor a block makes from it, and checks only channel counts.
"""

from dataclasses import dataclass

import numpy as np

from foodcal.errors import ShapeMismatch
from foodcal.nnblocks import ops
from foodcal.nnblocks.ops import ConvParams


def _same_size(*convs: ConvParams) -> None:
    for c in convs:
        if c.stride != 1 or c.kernel != (2 * c.padding + 1,) * 2:
            raise ShapeMismatch(f"a block's conv must keep the spatial size (stride 1, a (2 * padding + 1)-square "
                                f"kernel), got kernel {c.kernel} stride {c.stride} padding {c.padding}")


def _fwd(fwd, x, p):
    """``fwd(x, p)``, the copies of its output, if any, back on a leading
    axis: (P, n, ...) from the flattened (P * n, ...)."""
    y, cache = fwd(x, p)
    n = x.shape[-4]
    return (y if x.ndim == 4 and len(y) == n else y.reshape(-1, n, *y.shape[1:])), cache


def _flat(y: np.ndarray) -> np.ndarray:
    """A block output with its copies flattened into the batch axis."""
    return y.reshape(-1, *y.shape[-3:])


def _under(prefix: str, grads: dict) -> dict:
    """A sub-block's ``grads`` under ``prefix``, as ``ops.param_arrays`` names them."""
    return {f"{prefix}.{name}": g for name, g in grads.items()}


def _zeroed(params):
    """``params`` with every parameter array set to zero in place."""
    for _, arr in ops.param_arrays(params):
        arr[...] = 0.0
    return params


@dataclass
class CbamParams:
    """Shared-MLP channel attention plus 7x7 spatial attention parameters.

    The MLP (w1/b1 -> ReLU -> w2/b2) is applied identically to the average-
    and max-pooled descriptors. Hidden size is max(1, channels // reduction).
    """

    w1: np.ndarray  # (hidden, c)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (c, hidden)
    b2: np.ndarray  # (c,)
    spatial: ConvParams  # (1, 2, 7, 7), padding 3
    reduction: int = 16

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        ops.check_int("reduction", self.reduction, 1)
        hidden, c = self.w1.shape
        if self.b1.shape != (hidden,) or self.w2.shape != (c, hidden) or self.b2.shape != (c,):
            raise ShapeMismatch("inconsistent channel-attention MLP shapes")
        if self.spatial.c_out != 1 or self.spatial.c_in != 2:
            raise ShapeMismatch("spatial attention conv must be 2-in 1-out")
        _same_size(self.spatial)

    @property
    def channels(self) -> int:
        return self.w1.shape[-1]

    @classmethod
    def init(cls, channels, reduction=16, rng=None, spatial_kernel=7) -> "CbamParams":
        ops.check_int("reduction", reduction, 1)
        hidden = max(1, channels // reduction)
        scale = 1.0 / np.sqrt(channels)
        return cls(
            w1=rng.normal(0.0, scale, size=(hidden, channels)),
            b1=rng.normal(0.0, 0.1, size=hidden),
            w2=rng.normal(0.0, scale, size=(channels, hidden)),
            b2=rng.normal(0.0, 0.1, size=channels),
            spatial=ConvParams.init(1, 2, spatial_kernel, rng, padding=(spatial_kernel - 1) // 2),
            reduction=reduction,
        )

    @classmethod
    def zeros(cls, channels, reduction=16, spatial_kernel=7) -> "CbamParams":
        return _zeroed(cls.init(channels, reduction, np.random.default_rng(0), spatial_kernel))


def _mlp_fwd(v, p: CbamParams):
    """The MLP over descriptors ``v``: (2, n, c), or (2, P, n, c) with a copy
    axis, the average- and max-pooled ones stacked. Plain parameters take
    every row in one product, so a shared row is multiplied as a row of a
    larger batch; stacked ones make one product per copy and descriptor.
    The cache is for plain parameters."""
    arrays = [ops.with_copy_axis(a, nd) for a, nd in ((p.w1, 2), (p.b1, 1), (p.w2, 2), (p.b2, 1))]
    if all(len(a) == 1 for a in arrays):
        rows = v.reshape(-1, v.shape[-1])
        pre = rows @ p.w1.T + p.b1
        h = ops.relu(pre)
        z = h @ p.w2.T + p.b2
        return z.reshape(v.shape), (v, pre.reshape(*v.shape[:-1], -1), h.reshape(*v.shape[:-1], -1), p)
    w1, b1, w2, b2 = arrays
    v = v.reshape(2, -1, *v.shape[-2:])
    ops.check_copies(v.shape[1], *map(len, arrays))
    h = ops.relu(v @ w1.transpose(0, 2, 1) + b1[:, None])
    return h @ w2.transpose(0, 2, 1) + b2[:, None], None


def _mlp_bwd(cache, gz):
    v, pre, h, p = cache
    gpre = ops.relu_bwd(pre, gz @ p.w2)
    return gpre @ p.w1, {"w1": gpre.T @ v, "b1": gpre.sum(axis=0), "w2": gz.T @ h, "b2": gz.sum(axis=0)}


def cbam_channel_attention_fwd(x, p: CbamParams):
    if x.shape[-3] != p.channels:
        raise ShapeMismatch(f"input has {x.shape[-3]} channels, CBAM expects {p.channels}")
    avg, avg_cache = ops.spatial_mean_fwd(x)
    mx, max_cache = ops.spatial_max_fwd(x)
    z, mlp = _mlp_fwd(np.stack([avg, mx]), p)
    gates = ops.sigmoid(z[0] + z[1])
    return gates.reshape(-1, gates.shape[-1]), (avg_cache, max_cache, mlp, gates)


def cbam_channel_attention(x, p: CbamParams) -> np.ndarray:
    """Per-(sample, channel) gates: sigmoid(MLP(avgpool) + MLP(maxpool))."""
    return cbam_channel_attention_fwd(ops.as_tensor(x), p)[0]


def _channel_attention_bwd(cache, gg):
    avg_cache, max_cache, (v, pre, h, p), gates = cache
    gz = ops.sigmoid_bwd(gates, gg)
    gavg, grads_a = _mlp_bwd((v[0], pre[0], h[0], p), gz)
    gmx, grads_m = _mlp_bwd((v[1], pre[1], h[1], p), gz)
    gx = ops.spatial_mean_bwd(avg_cache, gavg) + ops.spatial_max_bwd(max_cache, gmx)
    return gx, {k: grads_a[k] + grads_m[k] for k in grads_a}


def cbam_spatial_attention_fwd(x, p: CbamParams):
    mean_map, mean_cache = ops.channel_mean_fwd(x)
    max_map, max_cache = ops.channel_max_fwd(x)
    cat = np.concatenate([mean_map, max_map], axis=-3)
    pre, conv_cache = ops.conv2d_fwd(cat, p.spatial)
    gates = ops.sigmoid(pre)
    return gates, (mean_cache, max_cache, conv_cache, gates)


def cbam_spatial_attention(x, p: CbamParams) -> np.ndarray:
    """Per-pixel gates: sigmoid(conv7x7([channel mean; channel max]))."""
    return cbam_spatial_attention_fwd(ops.as_tensor(x), p)[0]


def _spatial_attention_bwd(cache, gg):
    mean_cache, max_cache, conv_cache, gates = cache
    gpre = ops.sigmoid_bwd(gates, gg)
    gcat, conv_grads = ops.conv2d_bwd(conv_cache, gpre)
    gx = ops.channel_mean_bwd(mean_cache, gcat[:, :1]) + ops.channel_max_bwd(
        max_cache, gcat[:, 1:2]
    )
    return gx, _under("spatial", conv_grads)


def cbam_fwd(x, p: CbamParams):
    gc, ca_cache = _fwd(cbam_channel_attention_fwd, x, p)
    x1 = x * gc[..., None, None]
    gs, sa_cache = _fwd(cbam_spatial_attention_fwd, x1, p)
    y = x1 * gs
    return _flat(y), (x, gc, x1, gs, ca_cache, sa_cache)


def cbam(x, p: CbamParams) -> np.ndarray:
    """Channel attention first, then spatial attention, each rescaling the
    tensor it was computed from."""
    return cbam_fwd(ops.as_tensor(x), p)[0]


def cbam_bwd(cache, gy):
    x, gc, x1, gs, ca_cache, sa_cache = cache
    ggs = (gy * x1).sum(axis=1, keepdims=True)
    gx1 = gy * gs
    gx1_att, sa_grads = _spatial_attention_bwd(sa_cache, ggs)
    gx1 = gx1 + gx1_att
    ggc = (gx1 * x).sum(axis=(2, 3))
    gx = gx1 * gc[:, :, None, None]
    gx_att, ca_grads = _channel_attention_bwd(ca_cache, ggc)
    return gx + gx_att, {**ca_grads, **sa_grads}


@dataclass
class C2fCdParams:
    """Parameters of the composite block: 1x1 coordinate entry conv, chained
    residual bottlenecks (two 3x3 convs each), CBAM over the concatenation,
    1x1 exit conv."""

    entry: ConvParams
    bottlenecks: list[tuple[ConvParams, ConvParams]]
    cbam: CbamParams
    exit: ConvParams

    def __post_init__(self):
        if self.entry.c_out % 2 != 0:
            raise ShapeMismatch("entry conv must produce an even channel count")
        ch = self.entry.c_out // 2
        for p1, p2 in self.bottlenecks:
            if p1.c_in != ch or p1.c_out != ch or p2.c_in != ch or p2.c_out != ch:
                raise ShapeMismatch("bottleneck convs must map the half width onto itself")
        _same_size(self.entry, *(conv for pair in self.bottlenecks for conv in pair), self.exit)
        cat_ch = (2 + len(self.bottlenecks)) * ch
        if self.cbam.channels != cat_ch:
            raise ShapeMismatch(f"CBAM expects {self.cbam.channels} channels, concat has {cat_ch}")
        if self.exit.c_in != cat_ch:
            raise ShapeMismatch(f"exit conv expects {self.exit.c_in} channels, concat has {cat_ch}")

    @property
    def c_in(self) -> int:
        return self.entry.c_in - 2

    @property
    def c_out(self) -> int:
        return self.exit.c_out

    @classmethod
    def init(cls, c_in, c_out, n=1, reduction=16, rng=None) -> "C2fCdParams":
        ops.check_int("n, the bottleneck count,", n, 0)
        if c_out % 2 != 0:
            raise ShapeMismatch("c_out must be even (channels split into halves)")
        ch = c_out // 2
        cat_ch = (2 + n) * ch
        return cls(
            entry=ConvParams.init(2 * ch, c_in + 2, 1, rng),
            bottlenecks=[
                (ConvParams.init(ch, ch, 3, rng, padding=1), ConvParams.init(ch, ch, 3, rng, padding=1))
                for _ in range(n)
            ],
            cbam=CbamParams.init(cat_ch, reduction, rng),
            exit=ConvParams.init(c_out, cat_ch, 1, rng),
        )

    @classmethod
    def zeros(cls, c_in, c_out, n=1, reduction=16) -> "C2fCdParams":
        return _zeroed(cls.init(c_in, c_out, n, reduction, np.random.default_rng(0)))


def _bottleneck_fwd(x, p1: ConvParams, p2: ConvParams):
    a1, c1 = _fwd(ops.conv2d_fwd, x, p1)
    h1 = ops.silu(a1)
    a2, c2 = _fwd(ops.conv2d_fwd, h1, p2)
    h2 = ops.silu(a2)
    return h2 + x, (a1, c1, a2, c2)


def _bottleneck_bwd(cache, gy):
    a1, c1, a2, c2 = cache
    ga2 = ops.silu_bwd(a2, gy)
    gh1, grads2 = ops.conv2d_bwd(c2, ga2)
    ga1 = ops.silu_bwd(a1, gh1)
    gx, grads1 = ops.conv2d_bwd(c1, ga1)
    return gx + gy, {**_under("0", grads1), **_under("1", grads2)}


def c2f_cd_fwd(x, p: C2fCdParams):
    a0, e_cache = _fwd(ops.coordconv_fwd, x, p.entry)
    h0 = ops.silu(a0)
    ch = p.entry.c_out // 2
    retained = [h0[..., :ch, :, :], h0[..., ch:, :, :]]
    b_caches = []
    cur = retained[1]
    for p1, p2 in p.bottlenecks:
        cur, cache = _bottleneck_fwd(cur, p1, p2)
        retained.append(cur)
        b_caches.append(cache)
    cat = ops.concat_channels(retained)
    att, cbam_cache = _fwd(cbam_fwd, cat, p.cbam)
    aN, x_cache = _fwd(ops.conv2d_fwd, att, p.exit)
    out = ops.silu(aN)
    return _flat(out), (a0, e_cache, ch, b_caches, cbam_cache, aN, x_cache, p)


def c2f_cd(x, p: C2fCdParams) -> np.ndarray:
    """Forward pass of the composite block; spatial dimensions are preserved."""
    return c2f_cd_fwd(ops.as_tensor(x), p)[0]


def c2f_cd_bwd(cache, gy):
    a0, e_cache, ch, b_caches, cbam_cache, aN, x_cache, p = cache
    gaN = ops.silu_bwd(aN, gy)
    gatt, exit_grads = ops.conv2d_bwd(x_cache, gaN)
    gcat, cbam_grads = cbam_bwd(cbam_cache, gatt)
    grads = {**_under("exit", exit_grads), **_under("cbam", cbam_grads)}
    n = len(p.bottlenecks)
    chunks = [gcat[:, i * ch : (i + 1) * ch] for i in range(2 + n)]
    g = chunks[1 + n]  # gradient on the last retained tensor
    for k in range(n - 1, -1, -1):
        gin, bottleneck_grads = _bottleneck_bwd(b_caches[k], g)
        grads.update(_under(f"bottlenecks.{k}", bottleneck_grads))
        g = gin + chunks[1 + k]
    gh0 = np.concatenate([chunks[0], g], axis=1)
    ga0 = ops.silu_bwd(a0, gh0)
    gx, entry_grads = ops.coordconv_bwd(e_cache, ga0)
    return gx, {**grads, **_under("entry", entry_grads)}
