"""Primitive forward/backward operations: convolution, coordinate channels,
activations, and pooling reductions.

Everything runs in float64 and is inference-oriented: forward functions are
pure, and each has a ``*_fwd`` variant returning a cache consumed by the
matching ``*_bwd`` to produce analytic gradients (used by the gradient
checker). A backward with parameters maps ``(cache, gy)`` to ``(gx, grads)``,
``grads`` keyed by the names of ``param_arrays`` (``weight``, ``bias`` for a
convolution). A max's forward caches only its input; the backward takes the
argmax from it and routes gradient to the first maximal element.

Values are checked once, where they enter: parameters at construction, and
a tensor by ``as_tensor`` in the public forwards (``conv2d``,
``coordconv``, those of ``blocks``). A ``*_fwd`` takes a checked tensor,
and checks only its channel count.

Stacked copies: any parameter array may be replaced by P copies stacked on
a new leading axis, and an activation may carry a leading copy axis,
(P, n, c, h, w); a 4-D activation is one copy. Every op broadcasts over
that axis: copy i of its output comes from copy i of each input or
parameter with P copies, and an input with one copy is shared by all. So
the ops before the first one that reads a stacked array run once. A
forward returns its copies flattened, copy-major, into the batch axis:
``conv2d_fwd`` of P copies of n samples returns (P * n, c_out, oh, ow).
Backward passes take plain parameters and 4-D activations.
"""

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from foodcal.errors import ShapeMismatch


def as_tensor(x) -> np.ndarray:
    """``x`` as a float64 (n, c, h, w) tensor, or (P, n, c, h, w) with a copy axis."""
    t = np.asarray(x, dtype=np.float64)
    if t.ndim not in (4, 5) or min(t.shape) < 1:
        raise ShapeMismatch(f"expected a (n, c, h, w) or (copies, n, c, h, w) tensor, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor values must be finite")
    return t


def check_int(name: str, value, minimum: int) -> None:
    """Reject a ``value`` that is not an integer (a bool is not one) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ShapeMismatch(f"{name} must be an integer >= {minimum}, got {value!r}")


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
        if self.weight.ndim != 4 or min(self.weight.shape) < 1:
            raise ShapeMismatch(f"weight must be 4D with no empty axis, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeMismatch("bias length must equal the output channel count")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("weight and bias values must be finite")
        check_int("stride", self.stride, 1)
        check_int("padding", self.padding, 0)

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
    """An array of ``ndim`` axes with a leading copy axis: (1, *shape) when
    plain, unchanged when it already has one, (P, *shape)."""
    return a.reshape((-1,) + a.shape[a.ndim - ndim :])


def check_copies(*counts: int) -> None:
    """Reject copy ``counts`` that do not broadcast: each must be 1 or P."""
    if any(c not in (1, max(counts)) for c in counts):
        raise ShapeMismatch(f"copy counts {list(counts)} do not broadcast")


def concat_channels(arrays) -> np.ndarray:
    """``arrays`` concatenated on the channel axis (-3), their leading axes
    broadcast, so a shared activation meets each copy of a stacked one."""
    lead = np.broadcast_shapes(*(a.shape[:-3] for a in arrays))
    return np.concatenate([a if a.shape[:-3] == lead else np.broadcast_to(a, lead + a.shape[-3:])
                           for a in arrays], axis=-3)


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
    """``x`` with ``padding`` zero rows and columns on each side, C-contiguous."""
    if padding == 0:
        return np.ascontiguousarray(x)
    *lead, h, w = x.shape
    xp = np.zeros((*lead, h + 2 * padding, w + 2 * padding), x.dtype)
    xp[..., padding : padding + h, padding : padding + w] = x
    return xp


# ---------------------------------------------------------------------------
# convolution: a window matrix of the padded input against the weight, one
# matmul that lowers to BLAS


def _window_matrix(xp, oh, ow, kh, kw, stride):
    """(..., n, c * kh * kw, oh * ow) receptive fields of the pre-padded,
    C-contiguous ``xp``, rows in the order of a flattened (c, kh, kw) weight."""
    *lead, c, _, _ = xp.shape
    *s_lead, sc, sy, sx = xp.strides
    win = np.ndarray((*lead, c, kh, kw, oh, ow), xp.dtype, xp, 0, (*s_lead, sc, sy, sx, sy * stride, sx * stride))
    return win.reshape(*lead, c * kh * kw, oh * ow)


def conv2d_fwd(x, p: ConvParams):
    if x.shape[-3] != p.c_in:
        raise ShapeMismatch(f"input has {x.shape[-3]} channels, kernel expects {p.c_in}")
    oh, ow = conv_out_hw(x.shape[-2], x.shape[-1], p)
    xp = _pad(x, p.padding)
    w, b = with_copy_axis(p.weight, 4), with_copy_axis(p.bias, 1)
    cols = _window_matrix(with_copy_axis(xp, 4), oh, ow, *p.kernel, p.stride)
    check_copies(len(cols), len(w), len(b))
    # one (c_out, c_in * kh * kw) @ (c_in * kh * kw, oh * ow) product per sample and copy
    out = np.matmul(w.reshape(len(w), 1, p.c_out, -1), cols) + b[:, None, :, None]
    return out.reshape(-1, p.c_out, oh, ow), (xp, x.shape, p)


def conv2d(x, p: ConvParams) -> np.ndarray:
    """Cross-correlation with zero padding; output (P * n, c_out, oh, ow)."""
    return conv2d_fwd(as_tensor(x), p)[0]


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
    coords = np.empty((n, 2, h, w))
    coords[:, 0] = xs
    coords[:, 1] = ys[:, None]
    return coords


def coordconv_fwd(x, p: ConvParams):
    n, c, h, w = x.shape[-4:]
    if p.c_in != c + 2:
        raise ShapeMismatch(f"coordconv kernel expects {p.c_in} channels but input+coords has {c + 2}")
    aug = concat_channels([x, coord_channels(n, h, w)])
    y, cache = conv2d_fwd(aug, p)
    return y, (cache, c)


def coordconv(x, p: ConvParams) -> np.ndarray:
    """conv2d over the input augmented with normalized x/y coordinate channels."""
    return coordconv_fwd(as_tensor(x), p)[0]


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
# reductions (pooling over spatial or channel axes); a mean is sum / count, as in ndarray.mean


def spatial_mean_fwd(x):
    return np.add.reduce(x, axis=(-2, -1)) / (x.shape[-2] * x.shape[-1]), x.shape


def spatial_mean_bwd(shape, gp):
    n, c, h, w = shape
    return np.broadcast_to(gp[:, :, None, None], shape) / (h * w)


def spatial_max_fwd(x):
    return np.maximum.reduce(x, axis=(-2, -1)), x


def spatial_max_bwd(x, gp):
    n, c, h, w = x.shape
    gx = np.zeros((n, c, h * w))
    ni, ci = np.ogrid[:n, :c]
    gx[ni, ci, x.reshape(n, c, h * w).argmax(axis=-1)] = gp  # argmax: the first maximum
    return gx.reshape(n, c, h, w)


def channel_mean_fwd(x):
    return np.add.reduce(x, axis=-3, keepdims=True) / x.shape[-3], x.shape


def channel_mean_bwd(shape, gp):
    return np.broadcast_to(gp, shape) / shape[1]


def channel_max_fwd(x):
    return np.maximum.reduce(x, axis=-3, keepdims=True), x


def channel_max_bwd(x, gp):
    n, c, h, w = x.shape
    gx = np.zeros((n, c, h, w))
    ni, hi, wi = np.ogrid[:n, :h, :w]
    gx[ni, x.argmax(axis=1), hi, wi] = gp[:, 0]  # argmax: the first maximum
    return gx
