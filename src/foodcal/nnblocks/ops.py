"""Primitive forward/backward operations: convolution, coordinate channels,
activations, and pooling reductions.

Everything runs in float64 and is inference-oriented: forward functions are
pure, and each has a ``*_fwd`` variant returning a cache consumed by the
matching ``*_bwd`` to produce analytic gradients (used by the gradient
checker). Max reductions route gradient to the first maximal element.
"""

from dataclasses import dataclass, fields, is_dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from foodcal.errors import ShapeMismatch


def as_tensor4(x) -> np.ndarray:
    t = np.asarray(x, dtype=np.float64)
    if t.ndim != 4 or min(t.shape) < 1:
        raise ShapeMismatch(f"expected a (n, c, h, w) tensor, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor values must be finite")
    return t


@dataclass
class ConvParams:
    """Cross-correlation parameters: weight (c_out, c_in, k_h, k_w), bias
    (c_out,), uniform stride and zero padding."""

    weight: np.ndarray
    bias: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 4:
            raise ShapeMismatch(f"weight must be 4D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatch("bias length must equal the output channel count")
        if self.stride < 1 or self.padding < 0:
            raise ShapeMismatch("stride must be >= 1 and padding >= 0")

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]

    @classmethod
    def init(cls, c_out, c_in, kernel, rng, stride=1, padding=0) -> "ConvParams":
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        scale = 1.0 / np.sqrt(c_in * kh * kw)
        return cls(
            weight=rng.normal(0.0, scale, size=(c_out, c_in, kh, kw)),
            bias=rng.normal(0.0, 0.1, size=c_out),
            stride=stride,
            padding=padding,
        )


def param_arrays(params, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    """Live (name, array) views of every array of a parameter dataclass, in
    field order. Nested dataclasses and lists of them give dotted names
    (``cbam.spatial.weight``, ``bottlenecks.0.1.bias``): the keys of the
    block backwards' gradient dicts."""
    if is_dataclass(params):
        children = [(f.name, getattr(params, f.name)) for f in fields(params)]
    elif isinstance(params, (list, tuple)):
        children = list(enumerate(params))
    else:
        raise TypeError(f"unsupported parameter object {type(params)!r}")
    out = []
    for key, value in children:
        if isinstance(value, np.ndarray):
            out.append((f"{prefix}{key}", value))
        elif is_dataclass(value) or isinstance(value, (list, tuple)):
            out.extend(param_arrays(value, f"{prefix}{key}."))
    return out


def conv_out_hw(h: int, w: int, p: ConvParams) -> tuple[int, int]:
    kh, kw = p.kernel
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatch(
            f"kernel {kh}x{kw} stride {p.stride} pad {p.padding} produces empty output for {h}x{w}"
        )
    return oh, ow


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


# ---------------------------------------------------------------------------
# convolution: kernels take the pre-padded input and write into ``out``/
# ``gw``/``gxp``; strided windows plus einsum, which lowers to BLAS for
# channel-rich tensors


def _windows(xp, oh, ow, kh, kw, stride):
    n, c, _, _ = xp.shape
    sn, sc, sy, sx = xp.strides
    return as_strided(
        xp, (n, c, oh, ow, kh, kw), (sn, sc, sy * stride, sx * stride, sy, sx), writeable=False
    )


def _conv_fwd(xp, wt, stride, out):
    _, _, oh, ow = out.shape
    kh, kw = wt.shape[2], wt.shape[3]
    win = _windows(xp, oh, ow, kh, kw, stride)
    np.einsum("nihwyx,oiyx->nohw", win, wt, out=out, optimize=True)


def _conv_grad_w(xp, gy, stride, gw):
    _, _, oh, ow = gy.shape
    kh, kw = gw.shape[2], gw.shape[3]
    win = _windows(xp, oh, ow, kh, kw, stride)
    np.einsum("nihwyx,nohw->oiyx", win, gy, out=gw, optimize=True)


def _conv_grad_x(gy, wt, stride, gxp):
    _, _, oh, ow = gy.shape
    kh, kw = wt.shape[2], wt.shape[3]
    for ky in range(kh):
        for kx in range(kw):
            patch = np.einsum("nohw,oi->nihw", gy, wt[:, :, ky, kx])
            gxp[:, :, ky : ky + oh * stride : stride, kx : kx + ow * stride : stride] += patch


def conv2d_fwd(x, p: ConvParams):
    x = as_tensor4(x)
    if x.shape[1] != p.c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {p.c_in}")
    oh, ow = conv_out_hw(x.shape[2], x.shape[3], p)
    xp = _pad(x, p.padding)
    out = np.empty((x.shape[0], p.c_out, oh, ow))
    _conv_fwd(xp, p.weight, p.stride, out)
    out += p.bias[None, :, None, None]
    return out, (xp, x.shape, p)


def conv2d(x, p: ConvParams) -> np.ndarray:
    """Cross-correlation with zero padding; output (n, c_out, oh, ow)."""
    return conv2d_fwd(x, p)[0]


def conv2d_bwd(cache, gy):
    xp, x_shape, p = cache
    gy = np.ascontiguousarray(gy)
    gb = gy.sum(axis=(0, 2, 3))
    gw = np.empty_like(p.weight)
    _conv_grad_w(xp, gy, p.stride, gw)
    gxp = np.zeros_like(xp)
    _conv_grad_x(gy, p.weight, p.stride, gxp)
    if p.padding:
        gx = gxp[:, :, p.padding : p.padding + x_shape[2], p.padding : p.padding + x_shape[3]]
    else:
        gx = gxp
    return gx, gw, gb


def coord_channels(n: int, h: int, w: int) -> np.ndarray:
    """Two (n, 1, h, w) channels: x position scaled to [-1, 1] across columns
    and y position across rows; a dimension of 1 maps to 0."""
    xs = np.zeros(w) if w == 1 else 2.0 * np.arange(w) / (w - 1) - 1.0
    ys = np.zeros(h) if h == 1 else 2.0 * np.arange(h) / (h - 1) - 1.0
    cx = np.broadcast_to(xs[None, None, None, :], (n, 1, h, w))
    cy = np.broadcast_to(ys[None, None, :, None], (n, 1, h, w))
    return np.concatenate([cx, cy], axis=1).astype(np.float64)


def coordconv_fwd(x, p: ConvParams):
    x = as_tensor4(x)
    if p.c_in != x.shape[1] + 2:
        raise ShapeMismatch(
            f"coordconv kernel expects {p.c_in} channels but input+coords has {x.shape[1] + 2}"
        )
    aug = np.concatenate([x, coord_channels(x.shape[0], x.shape[2], x.shape[3])], axis=1)
    y, cache = conv2d_fwd(aug, p)
    return y, (cache, x.shape[1])


def coordconv(x, p: ConvParams) -> np.ndarray:
    """conv2d over the input augmented with normalized x/y coordinate channels."""
    return coordconv_fwd(x, p)[0]


def coordconv_bwd(cache, gy):
    conv_cache, c = cache
    gaug, gw, gb = conv2d_bwd(conv_cache, gy)
    return gaug[:, :c], gw, gb


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_bwd(y: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return gy * y * (1.0 - y)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_bwd(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    return gy * (x > 0)


def silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def silu_bwd(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    return gy * s * (1.0 + x * (1.0 - s))


# ---------------------------------------------------------------------------
# reductions (pooling over spatial or channel axes)


def spatial_mean_fwd(x):
    return x.mean(axis=(2, 3)), x.shape


def spatial_mean_bwd(shape, gp):
    n, c, h, w = shape
    return np.broadcast_to(gp[:, :, None, None], shape) / (h * w)


def spatial_max_fwd(x):
    n, c, h, w = x.shape
    flat = x.reshape(n, c, h * w)
    arg = flat.argmax(axis=2)  # first maximum
    return flat.max(axis=2), (x.shape, arg)


def spatial_max_bwd(cache, gp):
    (n, c, h, w), arg = cache
    gx = np.zeros((n, c, h * w))
    ni, ci = np.ogrid[:n, :c]
    gx[ni, ci, arg] = gp
    return gx.reshape(n, c, h, w)


def channel_mean_fwd(x):
    return x.mean(axis=1, keepdims=True), x.shape


def channel_mean_bwd(shape, gp):
    return np.broadcast_to(gp, shape) / shape[1]


def channel_max_fwd(x):
    arg = x.argmax(axis=1)  # (n, h, w), first maximum
    return x.max(axis=1, keepdims=True), (x.shape, arg)


def channel_max_bwd(cache, gp):
    (n, c, h, w), arg = cache
    gx = np.zeros((n, c, h, w))
    ni, hi, wi = np.ogrid[:n, :h, :w]
    gx[ni, arg, hi, wi] = gp[:, 0]
    return gx
