"""Attention blocks: channel/spatial attention (CBAM) and the C2f variant
with a coordinate-aware entry convolution and CBAM on the concatenated
branch outputs (C2f_CD).

Wiring of the composite block: a 1x1 coordinate convolution enters, the
channels split into two halves, a chain of residual 3x3 bottlenecks runs on
the second half with every intermediate retained, the retained tensors are
concatenated, CBAM gates the concatenation, and a 1x1 convolution exits.
Every convolution is followed by SiLU. All forwards have ``*_fwd``/
``*_bwd`` pairs for the gradient checker.
"""

from dataclasses import dataclass

import numpy as np

from foodcal.errors import ShapeMismatch
from foodcal.nnblocks import ops
from foodcal.nnblocks.ops import ConvParams


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
        hidden, c = self.w1.shape
        if self.b1.shape != (hidden,) or self.w2.shape != (c, hidden) or self.b2.shape != (c,):
            raise ShapeMismatch("inconsistent channel-attention MLP shapes")
        sk = self.spatial.weight.shape
        if sk[0] != 1 or sk[1] != 2 or self.spatial.padding != (sk[2] - 1) // 2:
            raise ShapeMismatch("spatial attention conv must be 2-in 1-out with same-size padding")

    @property
    def channels(self) -> int:
        return self.w1.shape[1]

    @classmethod
    def init(cls, channels, reduction=16, rng=None, spatial_kernel=7) -> "CbamParams":
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
    pre = v @ p.w1.T + p.b1
    h = ops.relu(pre)
    return h @ p.w2.T + p.b2, (v, pre, h)


def _mlp_bwd(cache, p: CbamParams, gz):
    v, pre, h = cache
    gw2 = gz.T @ h
    gb2 = gz.sum(axis=0)
    gh = gz @ p.w2
    gpre = ops.relu_bwd(pre, gh)
    gw1 = gpre.T @ v
    gb1 = gpre.sum(axis=0)
    gv = gpre @ p.w1
    return gv, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


def cbam_channel_attention_fwd(x, p: CbamParams):
    x = ops.as_tensor4(x)
    if x.shape[1] != p.channels:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, CBAM expects {p.channels}")
    avg, avg_cache = ops.spatial_mean_fwd(x)
    mx, max_cache = ops.spatial_max_fwd(x)
    za, mlp_a = _mlp_fwd(avg, p)
    zm, mlp_m = _mlp_fwd(mx, p)
    gates = ops.sigmoid(za + zm)
    return gates, (avg_cache, max_cache, mlp_a, mlp_m, gates)


def cbam_channel_attention(x, p: CbamParams) -> np.ndarray:
    """Per-(sample, channel) gates: sigmoid(MLP(avgpool) + MLP(maxpool))."""
    return cbam_channel_attention_fwd(x, p)[0]


def _channel_attention_bwd(cache, p: CbamParams, gg):
    avg_cache, max_cache, mlp_a, mlp_m, gates = cache
    gz = ops.sigmoid_bwd(gates, gg)
    gavg, grads_a = _mlp_bwd(mlp_a, p, gz)
    gmx, grads_m = _mlp_bwd(mlp_m, p, gz)
    grads = {k: grads_a[k] + grads_m[k] for k in grads_a}
    gx = ops.spatial_mean_bwd(avg_cache, gavg) + ops.spatial_max_bwd(max_cache, gmx)
    return gx, grads


def cbam_spatial_attention_fwd(x, p: CbamParams):
    x = ops.as_tensor4(x)
    mean_map, mean_cache = ops.channel_mean_fwd(x)
    max_map, max_cache = ops.channel_max_fwd(x)
    cat = np.concatenate([mean_map, max_map], axis=1)
    pre, conv_cache = ops.conv2d_fwd(cat, p.spatial)
    gates = ops.sigmoid(pre)
    return gates, (mean_cache, max_cache, conv_cache, gates)


def cbam_spatial_attention(x, p: CbamParams) -> np.ndarray:
    """Per-pixel gates: sigmoid(conv7x7([channel mean; channel max]))."""
    return cbam_spatial_attention_fwd(x, p)[0]


def _spatial_attention_bwd(cache, gg):
    mean_cache, max_cache, conv_cache, gates = cache
    gpre = ops.sigmoid_bwd(gates, gg)
    gcat, gw, gb = ops.conv2d_bwd(conv_cache, gpre)
    gx = ops.channel_mean_bwd(mean_cache, gcat[:, :1]) + ops.channel_max_bwd(
        max_cache, gcat[:, 1:2]
    )
    return gx, {"spatial.weight": gw, "spatial.bias": gb}


def cbam_fwd(x, p: CbamParams):
    x = ops.as_tensor4(x)
    gc, ca_cache = cbam_channel_attention_fwd(x, p)
    x1 = x * gc[:, :, None, None]
    gs, sa_cache = cbam_spatial_attention_fwd(x1, p)
    y = x1 * gs
    return y, (x, gc, x1, gs, ca_cache, sa_cache, p)


def cbam(x, p: CbamParams) -> np.ndarray:
    """Channel attention first, then spatial attention, each rescaling the
    tensor it was computed from."""
    return cbam_fwd(x, p)[0]


def cbam_bwd(cache, gy):
    """Input gradient and a parameter-gradient dict keyed like
    {w1, b1, w2, b2, spatial.weight, spatial.bias}."""
    x, gc, x1, gs, ca_cache, sa_cache, p = cache
    ggs = (gy * x1).sum(axis=1, keepdims=True)
    gx1 = gy * gs
    gx1_att, sa_grads = _spatial_attention_bwd(sa_cache, ggs)
    gx1 = gx1 + gx1_att
    ggc = (gx1 * x).sum(axis=(2, 3))
    gx = gx1 * gc[:, :, None, None]
    gx_att, ca_grads = _channel_attention_bwd(ca_cache, p, ggc)
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
    a1, c1 = ops.conv2d_fwd(x, p1)
    h1 = ops.silu(a1)
    a2, c2 = ops.conv2d_fwd(h1, p2)
    h2 = ops.silu(a2)
    return h2 + x, (a1, c1, a2, c2)


def _bottleneck_bwd(cache, gy):
    a1, c1, a2, c2 = cache
    ga2 = ops.silu_bwd(a2, gy)
    gh1, gw2, gb2 = ops.conv2d_bwd(c2, ga2)
    ga1 = ops.silu_bwd(a1, gh1)
    gx, gw1, gb1 = ops.conv2d_bwd(c1, ga1)
    return gx + gy, (gw1, gb1, gw2, gb2)


def c2f_cd_fwd(x, p: C2fCdParams):
    x = ops.as_tensor4(x)
    a0, e_cache = ops.coordconv_fwd(x, p.entry)
    h0 = ops.silu(a0)
    ch = p.entry.c_out // 2
    retained = [h0[:, :ch], h0[:, ch:]]
    b_caches = []
    cur = retained[1]
    for p1, p2 in p.bottlenecks:
        cur, cache = _bottleneck_fwd(cur, p1, p2)
        retained.append(cur)
        b_caches.append(cache)
    cat = np.concatenate(retained, axis=1)
    att, cbam_cache = cbam_fwd(cat, p.cbam)
    aN, x_cache = ops.conv2d_fwd(att, p.exit)
    out = ops.silu(aN)
    return out, (a0, e_cache, ch, b_caches, cbam_cache, aN, x_cache, p)


def c2f_cd(x, p: C2fCdParams) -> np.ndarray:
    """Forward pass of the composite block; spatial dimensions are preserved."""
    return c2f_cd_fwd(x, p)[0]


def c2f_cd_bwd(cache, gy):
    a0, e_cache, ch, b_caches, cbam_cache, aN, x_cache, p = cache
    grads = {}
    gaN = ops.silu_bwd(aN, gy)
    gatt, gw, gb = ops.conv2d_bwd(x_cache, gaN)
    grads["exit.weight"] = gw
    grads["exit.bias"] = gb
    gcat, cbam_grads = cbam_bwd(cbam_cache, gatt)
    for k, v in cbam_grads.items():
        grads[f"cbam.{k}"] = v
    n = len(p.bottlenecks)
    chunks = [gcat[:, i * ch : (i + 1) * ch] for i in range(2 + n)]
    g = chunks[1 + n]  # gradient on the last retained tensor
    for k in range(n - 1, -1, -1):
        gin, (gw1, gb1, gw2, gb2) = _bottleneck_bwd(b_caches[k], g)
        grads[f"bottlenecks.{k}.0.weight"] = gw1
        grads[f"bottlenecks.{k}.0.bias"] = gb1
        grads[f"bottlenecks.{k}.1.weight"] = gw2
        grads[f"bottlenecks.{k}.1.bias"] = gb2
        g = gin + chunks[1 + k]
    gh0 = np.concatenate([chunks[0], g], axis=1)
    ga0 = ops.silu_bwd(a0, gh0)
    gx, gw, gb = ops.coordconv_bwd(e_cache, ga0)
    grads["entry.weight"] = gw
    grads["entry.bias"] = gb
    return gx, grads
