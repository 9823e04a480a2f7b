import importlib
from dataclasses import replace

import numpy as np
import pytest

from foodcal.cli import GRADCHECK_TOLERANCE
from foodcal.errors import ShapeMismatch
from foodcal.nnblocks import blocks, flops, ops
from foodcal.nnblocks.gradcheck import (
    _FD_STEP,
    BLOCK_NAMES,
    _make_case,
    _numeric_gradients,
    _swap_param,
    gradcheck,
)
from gradcheck_oracle import tiled_numeric_gradients
from pool_oracle import cbam_input_gradient, route_channel_max, route_spatial_max

# the package exports the function under the module's name
gradcheck_module = importlib.import_module("foodcal.nnblocks.gradcheck")


def loop_conv_oracle(x, p):
    """Direct six-loop cross-correlation."""
    n, c_in, h, w = x.shape
    kh, kw = p.kernel
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p.padding, p.padding), (p.padding, p.padding)))
    out = np.zeros((n, p.c_out, oh, ow))
    for b in range(n):
        for o in range(p.c_out):
            for oy in range(oh):
                for ox in range(ow):
                    acc = p.bias[o]
                    for i in range(c_in):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[b, i, oy * p.stride + ky, ox * p.stride + kx] * p.weight[o, i, ky, kx]
                    out[b, o, oy, ox] = acc
    return out


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


# ---------------------------------------------------------------------------
# conv2d


def test_identity_1x1_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    p = ops.ConvParams(w, np.zeros(3))
    assert np.allclose(ops.conv2d(x, p), x, atol=1e-15)


def test_zero_input_gives_bias_broadcast():
    rng = np.random.default_rng(1)
    p = ops.ConvParams.init(4, 2, 3, rng, padding=1)
    y = ops.conv2d(np.zeros((1, 2, 5, 5)), p)
    assert np.allclose(y, p.bias[None, :, None, None], atol=1e-15)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 3, 5, 5))
    p = ops.ConvParams.init(4, 3, 3, rng, padding=1)
    assert np.abs(ops.conv2d(x, p) - loop_conv_oracle(x, p)).max() < 1e-12


@pytest.mark.parametrize("stride,padding,kernel", [(1, 0, (3, 3)), (2, 1, (3, 2)), (3, 2, (5, 1))])
def test_conv_matches_loop_oracle_configs(stride, padding, kernel):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 7, 8))
    p = ops.ConvParams.init(3, 2, kernel, rng, stride=stride, padding=padding)
    assert np.abs(ops.conv2d(x, p) - loop_conv_oracle(x, p)).max() < 1e-12


def test_conv_channel_mismatch_raises():
    rng = np.random.default_rng(4)
    p = ops.ConvParams.init(2, 3, 3, rng)
    with pytest.raises(ShapeMismatch):
        ops.conv2d(np.zeros((1, 5, 6, 6)), p)


@pytest.mark.parametrize(
    "change, error, match",
    [
        ({"stride": 1.5}, ShapeMismatch, "stride"),
        ({"padding": 1.0}, ShapeMismatch, "padding"),
        ({"stride": True}, ShapeMismatch, "stride"),
        ({"padding": False}, ShapeMismatch, "padding"),
        ({"weight": "nan"}, ValueError, "finite"),
        ({"bias": "inf"}, ValueError, "finite"),
        ({"weight": np.zeros((0, 3, 3, 3)), "bias": np.zeros(0)}, ShapeMismatch, "no empty axis"),
    ],
    ids=["float-stride", "float-padding", "bool-stride", "bool-padding", "nan-weight", "inf-bias", "no-output"],
)
def test_conv_params_reject_bad_values_at_construction(change, error, match):
    # each of these used to construct; conv2d then raised a TypeError, or
    # returned NaN, or (c_out = 0) an empty output
    p = ops.ConvParams.init(2, 3, 3, np.random.default_rng(6), padding=1)
    fields = {"weight": p.weight, "bias": p.bias, "stride": p.stride, "padding": p.padding}
    for key, value in change.items():
        if isinstance(value, str):
            value = fields[key].copy()
            value.flat[1] = float(change[key])
        fields[key] = value
    with pytest.raises(error, match=match):
        ops.ConvParams(**fields)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda rng: blocks.CbamParams.init(4, reduction=0, rng=rng), "reduction"),
        (lambda rng: blocks.CbamParams.init(4, reduction=-1, rng=rng), "reduction"),
        (lambda rng: replace(blocks.CbamParams.init(4, 2, rng), reduction=0), "reduction"),
        (lambda rng: blocks.C2fCdParams.init(3, 4, n=-1, rng=rng), "n, the bottleneck count"),
    ],
    ids=["cbam-reduction-0", "cbam-reduction-negative", "cbam-field-reduction-0", "c2fcd-n-negative"],
)
def test_block_params_reject_a_bad_count(build, match):
    # reduction 0 raised ZeroDivisionError, -1 constructed, and n = -1 was
    # reported as a CBAM channel mismatch
    with pytest.raises(ShapeMismatch, match=match):
        build(np.random.default_rng(7))


def test_conv_empty_output_raises():
    rng = np.random.default_rng(5)
    p = ops.ConvParams.init(2, 1, 7, rng)
    with pytest.raises(ShapeMismatch):
        ops.conv2d(np.zeros((1, 1, 3, 3)), p)


# ---------------------------------------------------------------------------
# coordconv


def test_coord_channel_values_3x3():
    coords = ops.coord_channels(1, 3, 3)
    assert coords[0, 0].tolist() == [[-1, 0, 1]] * 3  # x channel
    assert coords[0, 1, :, 0].tolist() == [-1, 0, 1]  # y channel


def test_coord_channel_degenerate_width():
    coords = ops.coord_channels(1, 4, 1)
    assert np.all(coords[0, 0] == 0.0)


def test_coordconv_zero_weights_constant_output():
    p = ops.ConvParams(np.zeros((2, 5, 1, 1)), np.array([3.5, -1.0]))
    y = ops.coordconv(np.random.default_rng(6).normal(size=(1, 3, 4, 4)), p)
    assert np.allclose(y[0, 0], 3.5) and np.allclose(y[0, 1], -1.0)


def test_coordconv_channel_contract():
    rng = np.random.default_rng(7)
    p = ops.ConvParams.init(2, 4, 1, rng)  # expects c_in = 4 => x must have 2
    with pytest.raises(ShapeMismatch):
        ops.coordconv(np.zeros((1, 4, 3, 3)), p)


def test_coordconv_equals_conv_on_augmented_input():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 5, 6))
    p = ops.ConvParams.init(4, 5, 3, rng, padding=1)
    aug = np.concatenate([x, ops.coord_channels(2, 5, 6)], axis=1)
    assert np.array_equal(ops.coordconv(x, p), ops.conv2d(aug, p))


# ---------------------------------------------------------------------------
# CBAM


def test_channel_gates_half_with_zero_params():
    p = blocks.CbamParams.zeros(6)
    g = blocks.cbam_channel_attention(np.random.default_rng(9).normal(size=(2, 6, 4, 4)), p)
    assert np.all(g == 0.5)


def test_channel_gate_identity_mlp_all_ones():
    p = blocks.CbamParams.zeros(1, reduction=1)
    p.w1[0, 0] = 1.0
    p.w2[0, 0] = 1.0
    g = blocks.cbam_channel_attention(np.ones((1, 1, 3, 3)), p)
    assert g[0, 0] == pytest.approx(sigmoid(2.0), abs=1e-9)
    assert g[0, 0] == pytest.approx(0.880797, abs=1e-6)


def test_channel_gate_ordering_preserved_under_positive_scaling():
    rng = np.random.default_rng(10)
    p = blocks.CbamParams.zeros(4, reduction=2)
    p.w1[:] = rng.uniform(0.1, 1.0, p.w1.shape)
    p.w2[:] = rng.uniform(0.1, 1.0, p.w2.shape)
    x = rng.uniform(0.1, 1.0, size=(1, 4, 5, 5))
    g1 = blocks.cbam_channel_attention(x, p)
    g2 = blocks.cbam_channel_attention(2.5 * x, p)
    assert np.array_equal(np.argsort(g1[0]), np.argsort(g2[0]))


def test_spatial_gates_half_with_zero_params():
    p = blocks.CbamParams.zeros(3)
    g = blocks.cbam_spatial_attention(np.random.default_rng(11).normal(size=(1, 3, 8, 8)), p)
    assert np.all(g == 0.5)


def test_spatial_gate_constant_input_interior():
    rng = np.random.default_rng(12)
    p = blocks.CbamParams.init(3, rng=rng)
    g = blocks.cbam_spatial_attention(np.full((1, 3, 12, 12), 0.7), p)
    interior = g[0, 0, 3:-3, 3:-3]
    assert np.allclose(interior, interior[0, 0], atol=1e-12)


def test_spatial_gate_matches_direct_oracle():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 4, 6, 6))
    p = blocks.CbamParams.init(4, rng=rng)
    mean_map = x.mean(axis=1, keepdims=True)
    max_map = x.max(axis=1, keepdims=True)
    cat = np.concatenate([mean_map, max_map], axis=1)
    expected = sigmoid(loop_conv_oracle(cat, p.spatial))
    assert np.abs(blocks.cbam_spatial_attention(x, p) - expected).max() < 1e-12


def test_cbam_zero_input_zero_output():
    rng = np.random.default_rng(14)
    p = blocks.CbamParams.init(3, rng=rng)
    assert np.all(blocks.cbam(np.zeros((1, 3, 5, 5)), p) == 0.0)


def test_cbam_zero_params_quarter_scale():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 5, 6, 6))
    p = blocks.CbamParams.zeros(5)
    assert np.array_equal(blocks.cbam(x, p), 0.25 * x)


def test_cbam_preserves_shape():
    rng = np.random.default_rng(16)
    for _ in range(5):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 7))
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.normal(size=(n, c, h, w))
        p = blocks.CbamParams.init(c, rng=rng)
        assert blocks.cbam(x, p).shape == x.shape


def test_gates_strictly_inside_unit_interval():
    # strict in exact arithmetic; in float64 the sigmoid rounds to 0/1 once
    # |logit| exceeds ~37, so keep inputs below the saturation scale
    rng = np.random.default_rng(17)
    for _ in range(5):
        c = int(rng.integers(1, 6))
        x = rng.normal(0, 3, size=(1, c, 4, 4))
        p = blocks.CbamParams.init(c, rng=rng)
        gch = blocks.cbam_channel_attention(x, p)
        gsp = blocks.cbam_spatial_attention(x, p)
        for g in (gch, gsp):
            assert np.all(g > 0.0) and np.all(g < 1.0)


# ---------------------------------------------------------------------------
# C2f_CD


def c2f_cd_straightline_oracle(x, p):
    """The documented wiring, written inline with primitive calls only."""

    def conv(v, q):
        return loop_conv_oracle(v, q)

    def silu(v):
        return v * sigmoid(v)

    n, _, h, w = x.shape
    aug = np.concatenate([x, ops.coord_channels(n, h, w)], axis=1)
    h0 = silu(conv(aug, p.entry))
    ch = p.entry.c_out // 2
    parts = [h0[:, :ch], h0[:, ch:]]
    cur = parts[1]
    for p1, p2 in p.bottlenecks:
        cur = silu(conv(silu(conv(cur, p1)), p2)) + cur
        parts.append(cur)
    cat = np.concatenate(parts, axis=1)
    avg = cat.mean(axis=(2, 3))
    mx = cat.reshape(n, cat.shape[1], -1).max(axis=2)
    mlp = lambda v: np.maximum(v @ p.cbam.w1.T + p.cbam.b1, 0.0) @ p.cbam.w2.T + p.cbam.b2
    gch = sigmoid(mlp(avg) + mlp(mx))
    x1 = cat * gch[:, :, None, None]
    smaps = np.concatenate([x1.mean(axis=1, keepdims=True), x1.max(axis=1, keepdims=True)], axis=1)
    gsp = sigmoid(conv(smaps, p.cbam.spatial))
    att = x1 * gsp
    return silu(conv(att, p.exit))


def test_c2f_cd_output_shape():
    rng = np.random.default_rng(18)
    p = blocks.C2fCdParams.init(64, 64, n=1, rng=rng)
    y = blocks.c2f_cd(rng.normal(size=(1, 64, 8, 8)), p)
    assert y.shape == (1, 64, 8, 8)


def test_c2f_cd_zero_params_zero_output():
    p = blocks.C2fCdParams.zeros(6, 8, n=1)
    y = blocks.c2f_cd(np.zeros((1, 6, 5, 5)), p)
    assert np.all(y == 0.0)


def test_c2f_cd_matches_straightline_oracle():
    rng = np.random.default_rng(19)
    p = blocks.C2fCdParams.init(6, 8, n=2, reduction=4, rng=rng)
    x = rng.normal(size=(2, 6, 5, 6))
    assert np.abs(blocks.c2f_cd(x, p) - c2f_cd_straightline_oracle(x, p)).max() < 1e-12


def test_c2f_cd_preserves_spatial_dims():
    rng = np.random.default_rng(20)
    for _ in range(4):
        h, w = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        p = blocks.C2fCdParams.init(4, 6, n=1, reduction=3, rng=rng)
        y = blocks.c2f_cd(rng.normal(size=(1, 4, h, w)), p)
        assert y.shape == (1, 6, h, w)


def test_c2f_cd_rejects_odd_output_channels():
    rng = np.random.default_rng(21)
    with pytest.raises(ShapeMismatch):
        blocks.C2fCdParams.init(4, 5, rng=rng)


def _with_conv(params, rng, field, *conv_args, **conv_kwargs):
    """``params`` rebuilt, so checked again, with ``field`` set to a new conv."""
    conv = ops.ConvParams.init(*conv_args, rng, **conv_kwargs)
    if field == "bottleneck":
        return replace(params, bottlenecks=[(conv, params.bottlenecks[0][1])])
    return replace(params, **{field: conv})


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: _with_conv(blocks.CbamParams.init(4, 2, rng), rng, "spatial", 1, 2, (7, 5), padding=3),
        lambda rng: blocks.CbamParams.init(4, 2, rng, spatial_kernel=6),
        lambda rng: _with_conv(blocks.CbamParams.init(4, 2, rng), rng, "spatial", 1, 2, 7, stride=2, padding=3),
        lambda rng: _with_conv(blocks.C2fCdParams.init(3, 4, rng=rng), rng, "entry", 4, 5, 1, stride=2),
        lambda rng: _with_conv(blocks.C2fCdParams.init(3, 4, rng=rng), rng, "bottleneck", 2, 2, 3),
        lambda rng: _with_conv(blocks.C2fCdParams.init(3, 4, rng=rng), rng, "exit", 4, 6, 3),
    ],
    ids=["non-square-spatial", "even-spatial", "stride-2-spatial", "stride-2-entry", "unpadded-bottleneck",
         "unpadded-exit"],
)
def test_block_params_reject_a_conv_that_changes_the_spatial_size(build):
    # each of these used to construct; its forward then failed to broadcast, or
    # (entry, exit) gave an output smaller than its input
    with pytest.raises(ShapeMismatch, match="must keep the spatial size"):
        build(np.random.default_rng(30))


# ---------------------------------------------------------------------------
# gradcheck


@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_gradcheck_below_threshold(block):
    for seed in (0, 1):
        assert gradcheck(block, seed=seed)[0] < 1e-4


@pytest.mark.parametrize(
    "key, corrupt",
    [("exit.weight", lambda g: 3 * g + 1), ("exit.bias", lambda g: g - 5)],
    ids=["exit-weight", "exit-bias"],
)
def test_gradcheck_catches_a_wrong_exit_gradient(monkeypatch, key, corrupt):
    right = blocks.c2f_cd_bwd

    def wrong(cache, gy):
        gx, grads = right(cache, gy)
        return gx, {**grads, key: corrupt(grads[key])}

    monkeypatch.setattr(blocks, "c2f_cd_bwd", wrong)
    err, array = gradcheck("c2fcd", seed=0)
    assert err > GRADCHECK_TOLERANCE and array == key


def test_gradcheck_runs_the_backward_bound_at_call_time(monkeypatch):
    right = ops.conv2d_bwd

    def scaled_weight(cache, gy):
        gx, grads = right(cache, gy)
        return gx, {**grads, "weight": 2.0 * grads["weight"]}

    monkeypatch.setattr(ops, "conv2d_bwd", scaled_weight)
    for block in ("conv", "coordconv"):
        err, array = gradcheck(block, seed=0)
        assert err > GRADCHECK_TOLERANCE and array == "weight"


def test_gradcheck_rejects_gradients_it_does_not_check(monkeypatch):
    right = blocks.c2f_cd_bwd

    def without_exit_bias(cache, gy):
        gx, grads = right(cache, gy)
        return gx, {k: v for k, v in grads.items() if k != "exit.bias"}

    monkeypatch.setattr(blocks, "c2f_cd_bwd", without_exit_bias)
    with pytest.raises(ValueError, match="exit.bias"):
        gradcheck("c2fcd", seed=0)


def _grad_shapes(fwd, bwd, x):
    y, cache = fwd(x)
    return {k: g.shape for k, g in bwd(cache, np.ones_like(y))[1].items()}


@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_param_names_are_the_backward_gradient_keys(block):
    x, p, fwd, bwd = _make_case(block, 0)
    assert {name: a.shape for name, a in ops.param_arrays(p)} == _grad_shapes(fwd, bwd, x)


def test_param_names_cover_every_bottleneck():
    rng = np.random.default_rng(3)
    p = blocks.C2fCdParams.init(3, 4, n=2, reduction=2, rng=rng)
    shapes = {name: a.shape for name, a in ops.param_arrays(p)}
    x = rng.normal(size=(1, 3, 4, 4))
    assert shapes == _grad_shapes(lambda x: blocks.c2f_cd_fwd(x, p), blocks.c2f_cd_bwd, x)
    assert {"entry.weight", "bottlenecks.1.1.bias", "cbam.spatial.weight", "exit.bias"} <= set(shapes)


def loop_numeric_gradients(x, params, fwd, step):
    """Central differences one element at a time, two forwards each, with
    the element perturbed in place: the check before it was batched."""
    numeric = {}
    for name, arr in [("input", x), *ops.param_arrays(params)]:
        num = np.empty_like(arr)
        flat, num_flat = arr.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(fwd(x)[0].sum())
            flat[i] = orig - step
            dn = float(fwd(x)[0].sum())
            flat[i] = orig
            num_flat[i] = (up - dn) / (2.0 * step)
        numeric[name] = num
    return numeric


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_batched_differences_match_the_element_loop(block, seed):
    x, p, fwd, _ = _make_case(block, seed)
    batched = _numeric_gradients(x, fwd(x)[0], p, fwd, _FD_STEP)
    oracle = loop_numeric_gradients(x, p, fwd, _FD_STEP)
    assert list(batched) == list(oracle)
    for name in oracle:
        np.testing.assert_allclose(batched[name], oracle[name], rtol=0, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_stacked_parameter_forward_equals_separate_forwards(block):
    # conv -> conv2d_fwd, coordconv -> coordconv_fwd, cbam -> cbam_fwd,
    # c2fcd -> c2f_cd_fwd; every parameter array in turn gets three copies,
    # run on the shared input and on an input with three copies of its own
    x, p, fwd, _ = _make_case(block, 0)
    rng = np.random.default_rng(11)
    for name, arr in ops.param_arrays(p):
        copies = arr + rng.normal(scale=0.1, size=(3, *arr.shape))
        separate = []
        for copy in copies:
            _swap_param(p, name, copy)
            separate.append(fwd(x)[0])
        _swap_param(p, name, copies)
        try:
            shared, copied = fwd(x)[0], fwd(np.stack([x] * 3))[0]
        finally:
            _swap_param(p, name, arr)
        for stacked in (shared, copied):
            assert stacked.ndim == 4
            np.testing.assert_allclose(stacked, np.concatenate(separate), rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_input_copies_equal_separate_forwards(block):
    x, p, fwd, _ = _make_case(block, 0)
    inputs = x + np.random.default_rng(12).normal(scale=0.1, size=(3, *x.shape))
    np.testing.assert_allclose(fwd(inputs)[0], np.concatenate([fwd(c)[0] for c in inputs]), rtol=0, atol=1e-12)


def test_stacked_copy_counts_must_broadcast():
    rng = np.random.default_rng(0)
    p = ops.ConvParams.init(2, 3, 3, rng, padding=1)
    p.weight = np.stack([p.weight] * 3)
    with pytest.raises(ShapeMismatch, match=r"copy counts \[2, 3, 1\]"):
        ops.conv2d(rng.normal(size=(2, 4, 3, 5, 5)), p)
    p.bias = np.stack([p.bias] * 2)
    with pytest.raises(ShapeMismatch, match=r"copy counts \[1, 3, 2\]"):
        ops.conv2d(rng.normal(size=(6, 3, 5, 5)), p)
    c = blocks.CbamParams.init(4, 2, rng)
    c.w2 = np.stack([c.w2] * 3)
    with pytest.raises(ShapeMismatch, match=r"copy counts \[2, 1, 1, 3, 1\]"):
        blocks.cbam(rng.normal(size=(2, 1, 4, 5, 5)), c)


def _snapshot(x, p):
    return [(name, arr, arr.copy()) for name, arr in [("input", x), *ops.param_arrays(p)]]


def _assert_unchanged(x, p, before):
    after = [("input", x), *ops.param_arrays(p)]
    assert [name for name, _ in after] == [name for name, _, _ in before]
    for (name, arr), (_, was, values) in zip(after, before):
        assert arr is was, name
        assert np.array_equal(arr, values), name


@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_gradcheck_leaves_input_and_parameters_as_they_were(monkeypatch, block):
    case = _make_case(block, 0)
    before = _snapshot(case[0], case[1])
    monkeypatch.setattr(gradcheck_module, "_make_case", lambda *_: case)
    assert gradcheck(block)[0] < GRADCHECK_TOLERANCE
    _assert_unchanged(case[0], case[1], before)


def test_gradcheck_restores_parameters_when_a_forward_raises(monkeypatch):
    x, p, fwd, bwd = _make_case("c2fcd", 0)
    before = _snapshot(x, p)
    calls = []  # the copy count of entry.weight at each forward
    chunk = gradcheck_module._CHUNK

    def failing(xs):
        calls.append(len(p.entry.weight) if p.entry.weight.ndim == 5 else None)
        if calls.count(2 * chunk) == 2:  # the second full chunk of the first parameter
            raise RuntimeError("forward failed")
        return fwd(xs)

    monkeypatch.setattr(gradcheck_module, "_make_case", lambda *_: (x, p, failing, bwd))
    with pytest.raises(RuntimeError, match="forward failed"):
        gradcheck("c2fcd")
    # the analytic pass and the input's chunks ran with plain parameters
    assert calls[: 1 + -(-x.size // chunk)] == [None] * (1 + -(-x.size // chunk))
    assert calls[-1] == 2 * chunk
    _assert_unchanged(x, p, before)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("block", BLOCK_NAMES)
def test_numeric_gradients_have_the_bits_of_the_tiled_forwards(block, seed):
    x, p, fwd, _ = _make_case(block, seed)
    numeric = _numeric_gradients(x, fwd(x)[0], p, fwd, _FD_STEP)
    oracle = tiled_numeric_gradients(x, p, fwd, _FD_STEP)
    assert list(numeric) == list(oracle)
    for name in oracle:
        assert np.array_equal(numeric[name], oracle[name]), name


def test_gradcheck_catches_one_wrong_element_deep_in_the_block(monkeypatch):
    right = blocks.c2f_cd_bwd

    def wrong(cache, gy):
        gx, grads = right(cache, gy)
        bad = grads["bottlenecks.0.0.weight"].copy()
        bad[0, 0, 1, 1] += 1.0
        return gx, {**grads, "bottlenecks.0.0.weight": bad}

    monkeypatch.setattr(blocks, "c2f_cd_bwd", wrong)
    err, array = gradcheck("c2fcd", seed=0)
    assert err > GRADCHECK_TOLERANCE and array == "bottlenecks.0.0.weight"


def _settings(p):
    """Each conv's (stride, padding) and the CBAM reduction of a params object."""
    if isinstance(p, blocks.CbamParams):
        return [(p.spatial.stride, p.spatial.padding)], p.reduction
    convs = [p.entry, *(c for pair in p.bottlenecks for c in pair), p.cbam.spatial, p.exit]
    return [(c.stride, c.padding) for c in convs], p.cbam.reduction


@pytest.mark.parametrize(
    "zeros, init",
    [
        (lambda: blocks.CbamParams.zeros(6, reduction=3, spatial_kernel=5),
         lambda rng: blocks.CbamParams.init(6, 3, rng, spatial_kernel=5)),
        (lambda: blocks.C2fCdParams.zeros(3, 4, n=2, reduction=2),
         lambda rng: blocks.C2fCdParams.init(3, 4, n=2, reduction=2, rng=rng)),
    ],
    ids=["cbam", "c2fcd"],
)
def test_zeros_has_the_layout_of_init(zeros, init):
    z, i = zeros(), init(np.random.default_rng(5))
    assert [(n, a.shape) for n, a in ops.param_arrays(z)] == [(n, a.shape) for n, a in ops.param_arrays(i)]
    assert not any(a.any() for _, a in ops.param_arrays(z))
    assert _settings(z) == _settings(i)

def test_relu_gradient_exact_in_linear_region():
    # all-positive pre-activations: the MLP is locally linear, so analytic
    # and finite-difference gradients agree to FD precision
    p = blocks.CbamParams.zeros(2, reduction=1)
    p.w1[:] = np.abs(np.random.default_rng(22).normal(size=p.w1.shape)) + 0.5
    p.w2[:] = np.abs(np.random.default_rng(23).normal(size=p.w2.shape)) + 0.5
    x = np.abs(np.random.default_rng(24).normal(size=(1, 2, 4, 4))) + 1.0
    g, cache = blocks.cbam_channel_attention_fwd(x, p)
    gx, _ = blocks._channel_attention_bwd(cache, np.ones_like(g))
    step = 1e-6
    i = (0, 0, 1, 2)
    xp = x.copy()
    xp[i] += step
    xm = x.copy()
    xm[i] -= step
    fd = (blocks.cbam_channel_attention(xp, p).sum() - blocks.cbam_channel_attention(xm, p).sum()) / (
        2 * step
    )
    assert gx[i] == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# input checks at the public boundary


def _boundary_cases():
    """name -> (public forward, parameters for a (2, 3, 5, 6) input, the
    message for such an input of 5 channels, or None where any count is read)."""
    rng = np.random.default_rng(40)
    cbam_p = blocks.CbamParams.init(3, reduction=1, rng=rng)
    return {
        "conv2d": (ops.conv2d, ops.ConvParams.init(4, 3, 3, rng, padding=1),
                   "input has 5 channels, kernel expects 3"),
        "coordconv": (ops.coordconv, ops.ConvParams.init(4, 5, 3, rng, padding=1),
                      "coordconv kernel expects 5 channels but input+coords has 7"),
        "cbam": (blocks.cbam, cbam_p, "input has 5 channels, CBAM expects 3"),
        "cbam_channel_attention": (blocks.cbam_channel_attention, cbam_p, "input has 5 channels, CBAM expects 3"),
        "cbam_spatial_attention": (blocks.cbam_spatial_attention, cbam_p, None),
        "c2f_cd": (blocks.c2f_cd, blocks.C2fCdParams.init(3, 4, n=1, reduction=2, rng=rng),
                   "coordconv kernel expects 5 channels but input+coords has 7"),
    }


def _with_value(x, value):
    x = x.copy()
    x.flat[7] = value
    return x


def _tensor_shape_message(x):
    return f"expected a (n, c, h, w) or (copies, n, c, h, w) tensor, got shape {x.shape}"


# name -> (the bad input made from a good one, the error type, the message as a function of the bad
# input, or None for the channel-mismatch message of the forward or block)
INPUT_FAULTS = {
    "nan": (lambda x: _with_value(x, np.nan), ValueError, lambda x: "tensor values must be finite"),
    "inf": (lambda x: _with_value(x, -np.inf), ValueError, lambda x: "tensor values must be finite"),
    "3-d": (lambda x: x[0], ShapeMismatch, _tensor_shape_message),
    "empty-axis": (lambda x: x[:, :, :0], ShapeMismatch, _tensor_shape_message),
    "channels": (lambda x: np.concatenate([x, x[:, :2]], axis=1), ShapeMismatch, None),
}


@pytest.mark.parametrize("fault", INPUT_FAULTS)
@pytest.mark.parametrize("forward", _boundary_cases())
def test_public_forwards_check_their_input(forward, fault):
    fwd, p, channel_message = _boundary_cases()[forward]
    make_bad, error, message = INPUT_FAULTS[fault]
    bad = make_bad(np.random.default_rng(41).normal(size=(2, 3, 5, 6)))
    if message is None and channel_message is None:  # spatial attention pools any channel count
        assert fwd(bad, p).shape == (2, 1, 5, 6)
        return
    with pytest.raises(error) as err:
        fwd(bad, p)
    assert type(err.value) is error and str(err.value) == (channel_message if message is None else message(bad))


# ---------------------------------------------------------------------------
# max pools at ties: the gradient goes to the first maximum


def _tied(rng, shape):
    """Normal values with each map's maximum at both (0, 1) and (2, 0), and
    channel 1 a copy of channel 0, so every pixel ties on the channel axis."""
    x = rng.normal(size=shape)
    x[:, 1] = x[:, 0]
    x[:, :, 0, 1] = x[:, :, 2, 0] = x.max() + 1.0
    return x


def test_spatial_max_backward_routes_ties_to_the_first_maximum():
    rng = np.random.default_rng(42)
    x = _tied(rng, (2, 3, 4, 5))
    gp = rng.normal(size=(2, 3))
    y, cache = ops.spatial_max_fwd(x)
    assert np.array_equal(y, x.max(axis=(2, 3)))
    gx = ops.spatial_max_bwd(cache, gp)
    assert np.array_equal(gx, route_spatial_max(x, gp))
    assert np.array_equal(gx[:, :, 0, 1], gp) and not gx[:, :, 2, 0].any()


def test_channel_max_backward_routes_ties_to_the_first_maximum():
    rng = np.random.default_rng(43)
    x = _tied(rng, (2, 3, 4, 5))
    gp = rng.normal(size=(2, 1, 4, 5))
    y, cache = ops.channel_max_fwd(x)
    assert np.array_equal(y, x.max(axis=1, keepdims=True))
    gx = ops.channel_max_bwd(cache, gp)
    assert np.array_equal(gx, route_channel_max(x, gp))
    assert not gx[:, 1].any()  # channel 1 ties channel 0 everywhere


def test_cbam_backward_routes_ties_to_the_first_maximum():
    rng = np.random.default_rng(44)
    p = blocks.CbamParams.init(3, reduction=1, rng=rng, spatial_kernel=3)
    p.w2[1], p.b2[1] = p.w2[0], p.b2[0]  # channels 0 and 1 get one gate
    x = _tied(rng, (2, 3, 4, 5))
    gc = blocks.cbam_channel_attention(x, p)
    assert np.array_equal(gc[:, 0], gc[:, 1])  # so the gated channels tie too
    gy = rng.normal(size=x.shape)
    y, cache = blocks.cbam_fwd(x, p)
    gx, _ = blocks.cbam_bwd(cache, gy)
    np.testing.assert_allclose(gx, cbam_input_gradient(x, p, gy), rtol=0, atol=1e-7)


# ---------------------------------------------------------------------------
# elementwise ops against the formulas they replaced


def two_branch_sigmoid(x):
    """The sigmoid that ``ops.sigmoid`` replaced: each branch computed on
    its own elements through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_SPECIALS = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0, 1.7e308, -1.7e308,
                    np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny, 5e-324, -5e-324]


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 10.0, 36.0, 300.0])
def test_sigmoid_has_the_bits_of_the_two_branch_formula(scale):
    x = np.random.default_rng(int(scale * 1000)).normal(scale=scale, size=(4, 3, 50, 50))
    x.flat[: len(SIGMOID_SPECIALS)] = SIGMOID_SPECIALS
    assert ops.sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()
    assert ops.sigmoid(x).shape == x.shape and ops.sigmoid(x).dtype == np.float64


@pytest.mark.parametrize("padding", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 5, 7), (6, 4, 3, 2)], ids=["pixel", "batch", "stacked"])
def test_pad_equals_np_pad(padding, shape):
    x = np.random.default_rng(padding).normal(size=shape)
    padded = ops._pad(x, padding)
    expected = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    assert padded.dtype == expected.dtype and padded.tobytes() == expected.tobytes()
    assert padded.shape == expected.shape


# ---------------------------------------------------------------------------
# flops


def test_conv_flops_hand_value():
    assert flops.conv_flops(16, 32, 3, 3, 8, 8) == 589_824


def test_coordconv_increment():
    base = flops.conv_flops(16, 32, 3, 3, 8, 8)
    assert flops.coordconv_flops(16, 32, 3, 3, 8, 8) - base == 2 * 3 * 3 * 32 * 8 * 8 * 2


def test_c2f_cd_costs_more_than_c2f_everywhere():
    rng = np.random.default_rng(25)
    for _ in range(20):
        cfg = flops.C2fConfig(
            c_in=int(rng.integers(1, 65)),
            c_out=2 * int(rng.integers(1, 33)),
            h=int(rng.integers(1, 41)),
            w=int(rng.integers(1, 41)),
            n=int(rng.integers(1, 4)),
            reduction=int(rng.integers(1, 17)),
        )
        assert flops.c2f_cd_flops(cfg) > flops.c2f_flops(cfg)


def test_flops_difference_decomposes():
    cfg = flops.C2fConfig(c_in=16, c_out=32, h=20, w=24, n=2, reduction=8)
    coord_increment = flops.coordconv_flops(16, 2 * 16, 1, 1, 20, 24) - flops.conv_flops(
        16, 2 * 16, 1, 1, 20, 24
    )
    cbam_part = flops.cbam_flops(cfg.cat_channels, 20, 24, 8)
    assert flops.c2f_cd_flops(cfg) - flops.c2f_flops(cfg) == coord_increment + cbam_part
