"""Primitive forward/backward operations: convolution, coordinate channels,
activations, and pooling reductions.

Everything runs in float64 and is inference-oriented: forward functions are
pure, and each has a ``*_fwd`` variant returning a cache consumed by the
matching ``*_bwd`` to produce analytic gradients (used by the gradient
checker). A backward with parameters maps ``(cache, gy)`` to ``(gx, grads)``,
``grads`` keyed by the names of ``param_arrays`` (``weight``, ``bias`` for a
convolution). Max reductions route gradient to the first maximal element.
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
    (c_out,), uniform stride and zero padding.

    A weight stacked to (P, c_out, c_in, k_h, k_w) or a bias stacked to
    (P, c_out) holds P copies of that parameter (see ``with_copy_axis``);
    the shape properties read the trailing axes, so they hold for both."""

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
        return self.weight.shape[-4]

    @property
    def c_in(self) -> int:
        return self.weight.shape[-3]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weight.shape[-2], self.weight.shape[-1]

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


def with_copy_axis(a: np.ndarray, ndim: int) -> np.ndarray:
    """A parameter of ``ndim`` axes with a leading copy axis: (1, *shape)
    when plain, unchanged when stacked to (P, *shape).

    Stacked parameters run P copies of a block in one forward: the batch
    holds P groups of n samples, and group i meets copy i of every stacked
    array. Only the ops that read parameters see the groups; activations
    stay (P * n, c, h, w)."""
    return a.reshape((-1,) + a.shape[a.ndim - ndim :])


def copy_count(batch: int, *arrays: np.ndarray) -> int:
    """P, the copy count of ``arrays`` (each from ``with_copy_axis``), once
    it is checked that every array has 1 or P copies and that ``batch``
    splits into P groups."""
    copies = max(len(a) for a in arrays)
    if any(len(a) not in (1, copies) for a in arrays) or batch % copies:
        raise ShapeMismatch(
            f"parameter copies {[len(a) for a in arrays]} do not split a batch of {batch}"
        )
    return copies


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
    """``x`` with ``padding`` zero rows and columns on each side."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


# ---------------------------------------------------------------------------
# convolution: a window matrix of the padded input against the weight, one
# matmul that lowers to BLAS


def _window_matrix(xp, oh, ow, kh, kw, stride):
    """(n, c * kh * kw, oh * ow) receptive fields of the pre-padded ``xp``,
    rows in the order of a flattened (c, kh, kw) weight."""
    n, c, _, _ = xp.shape
    sn, sc, sy, sx = xp.strides
    win = as_strided(
        xp, (n, c, kh, kw, oh, ow), (sn, sc, sy, sx, sy * stride, sx * stride), writeable=False
    )
    return win.reshape(n, c * kh * kw, oh * ow)


def conv2d_fwd(x, p: ConvParams):
    x = as_tensor4(x)
    if x.shape[1] != p.c_in:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {p.c_in}")
    oh, ow = conv_out_hw(x.shape[2], x.shape[3], p)
    xp = _pad(x, p.padding)
    w, b = with_copy_axis(p.weight, 4), with_copy_axis(p.bias, 1)
    copies = copy_count(x.shape[0], w, b)
    cols = _window_matrix(xp, oh, ow, *p.kernel, p.stride)
    out = np.matmul(w.reshape(len(w), 1, p.c_out, -1), cols.reshape(copies, -1, *cols.shape[1:]))
    out += b[:, None, :, None]
    return out.reshape(x.shape[0], p.c_out, oh, ow), (xp, x.shape, p)


def conv2d(x, p: ConvParams) -> np.ndarray:
    """Cross-correlation with zero padding; output (n, c_out, oh, ow)."""
    return conv2d_fwd(x, p)[0]


def conv2d_bwd(cache, gy):
    """Input, weight and bias gradients of a forward with plain parameters."""
    xp, x_shape, p = cache
    n, c_out, oh, ow = gy.shape
    kh, kw = p.kernel
    g = gy.reshape(n, c_out, oh * ow)
    gb = g.sum(axis=(0, 2))
    cols = _window_matrix(xp, oh, ow, kh, kw, p.stride)
    gw = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(p.weight.shape)
    gcols = np.matmul(p.weight.reshape(c_out, -1).T, g).reshape(n, p.c_in, kh, kw, oh, ow)
    gxp = np.zeros_like(xp)
    s = p.stride
    for ky in range(kh):
        for kx in range(kw):
            gxp[:, :, ky : ky + oh * s : s, kx : kx + ow * s : s] += gcols[:, :, ky, kx]
    gx = gxp[:, :, p.padding : p.padding + x_shape[2], p.padding : p.padding + x_shape[3]]
    return gx, {"weight": gw, "bias": gb}


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
    gaug, grads = conv2d_bwd(conv_cache, gy)
    return gaug[:, :c], grads


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp
    overflows; both branches from one e^-|x|, with no masked indexing."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
