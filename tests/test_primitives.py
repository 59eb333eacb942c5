"""Forward-path oracles for the primitive set."""

import tracemalloc

import numpy as np
import pytest

from peftseg.autodiff import Tensor, apply_primitive, backward, functional as F
from peftseg.autodiff import primitives
from peftseg.errors import InputTypeError, ShapeError, UnknownPrimitiveError
from peftseg.nn import Conv2d

from conftest import primitive_peaks


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float32), **kw)


def test_gelu_fixes_origin():
    out = F.gelu(t([0.0]))
    assert out.data[0] == 0.0
    assert F.gelu(Tensor(np.zeros(1))).data[0] == 0.0  # float64 takes scipy's erf


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4)).astype(np.float32)
    out = F.matmul(t(x), t(np.eye(4)))
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_all_ones_center():
    # 3x3 ones image, 3x3 ones kernel, stride 1, zero padding 1: the center
    # output sums the full receptive field of nine ones.
    img = t(np.ones((1, 1, 3, 3)))
    ker = t(np.ones((1, 1, 3, 3)))
    out = F.conv2d(img, ker, stride=1, padding=1)
    assert out.data[0, 0, 1, 1] == 9.0
    # corners see a 2x2 patch
    assert out.data[0, 0, 0, 0] == 4.0


def test_unknown_primitive_rejected():
    with pytest.raises(UnknownPrimitiveError):
        apply_primitive("frobnicate", [t([1.0])])


def test_shape_mismatch_reports_op_and_shapes():
    with pytest.raises(ShapeError) as err:
        F.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))
    msg = str(err.value)
    assert "matmul" in msg and "(2, 3)" in msg and "(4, 2)" in msg


def test_conv2d_rejects_a_list_of_blocks():
    """conv2d takes one input: parts are concatenated with ``F.concat`` first."""
    a, b = t(np.zeros((2, 1, 5, 5))), t(np.zeros((2, 2, 5, 5)))
    with pytest.raises(InputTypeError, match="conv2d"):
        F.conv2d([a, b], t(np.zeros((4, 3, 3, 3))), padding=1)


@pytest.mark.parametrize("x_shape, w_shape, padding", [
    ((2, 3, 5), (4, 3, 3, 3), 1),  # rank
    ((2, 2, 5, 5), (4, 3, 3, 3), 1),  # channel mismatch
    ((2, 3, 2, 2), (4, 3, 5, 5), 1),  # kernel larger than the padded input
])
def test_conv2d_rejects_bad_shapes(x_shape, w_shape, padding):
    with pytest.raises(ShapeError) as err:
        F.conv2d(t(np.zeros(x_shape)), t(np.zeros(w_shape)), padding=padding)
    msg = str(err.value)
    assert "conv2d" in msg and str(x_shape) in msg and str(w_shape) in msg, msg


@pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 0), (1.5, 0), (1, -1)])
@pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
def test_conv_rejects_bad_stride_and_padding(op, stride, padding):
    """A stride below 1 or not an int, or a padding below 0, names the op."""
    x, w = t(np.zeros((1, 2, 5, 5))), t(np.zeros((3, 2, 2, 2) if op == "conv2d" else (2, 3, 2, 2)))
    with pytest.raises(ShapeError, match=op):
        getattr(F, op)(x, w, stride=stride, padding=padding)


@pytest.mark.parametrize("op, x_shape, args", [
    ("conv_transpose2d", (1, 2, 1, 1), {"w": (2, 3, 2, 2), "padding": 1}),  # 0x0 output
    ("conv_transpose2d", (1, 2, 1, 1), {"w": (2, 3, 2, 2), "padding": 2}),  # negative extent
    ("adaptive_avg_pool2d", (1, 2, 3, 3), {"out_h": 0, "out_w": 2}),
    ("adaptive_avg_pool2d", (1, 2, 3, 3), {"out_h": 2, "out_w": -1}),
], ids=["convt-empty", "convt-negative", "pool-zero-height", "pool-negative-width"])
def test_ops_reject_an_empty_output(op, x_shape, args):
    """A target or padding that leaves no output raises ``ShapeError`` naming
    the op and the input shape, not an empty map or a raw numpy error."""
    args = dict(args)
    if "w" in args:
        args["w"] = t(np.zeros(args["w"]))
    with pytest.raises(ShapeError) as err:
        getattr(F, op)(t(np.zeros(x_shape)), **args)
    msg = str(err.value)
    assert op in msg and str(x_shape) in msg, msg


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(5, 7)))
    out = F.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), rtol=1e-6)


def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(2)
    x = t(rng.normal(2.0, 3.0, size=(4, 16)))
    out = F.layer_norm(x, t(np.ones(16)), t(np.zeros(16)))
    np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-6)
    np.testing.assert_allclose(out.data.var(axis=-1), np.ones(4), rtol=1e-4)


def test_relu_and_gelu_shapes():
    x = t(np.linspace(-2, 2, 12).reshape(3, 4))
    assert F.relu(x).shape == (3, 4)
    assert F.gelu(x).shape == (3, 4)
    np.testing.assert_array_equal(F.relu(x).data, np.maximum(x.data, 0))


def test_reflect_pad_matches_numpy_reference():
    # [1,2,3] padded by 1 (reflect, edge not repeated) -> [2,1,2,3,2]
    row = t(np.array([[[[1.0, 2.0, 3.0]]]]))
    out = F.reflect_pad2d(row, 0, 1)
    np.testing.assert_array_equal(out.data[0, 0, 0], [2.0, 1.0, 2.0, 3.0, 2.0])


def test_reflect_pad_too_large_rejected():
    row = t(np.ones((1, 1, 2, 2)))
    with pytest.raises(ShapeError):
        F.reflect_pad2d(row, 2, 0)


def test_conv_transpose_shape_and_linear_decoder_extent():
    # kernel = stride = p gives exact p-fold upsampling
    x = t(np.random.default_rng(3).normal(size=(2, 8, 4, 4)))
    w = t(np.random.default_rng(4).normal(size=(8, 3, 8, 8)))
    out = F.conv_transpose2d(x, w, stride=8)
    assert out.shape == (2, 3, 32, 32)


def test_avg_and_max_pool():
    x = t(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
    avg = F.avg_pool2d(x, 2)
    mx = F.max_pool2d(x, 2)
    np.testing.assert_array_equal(avg.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    np.testing.assert_array_equal(mx.data[0, 0], [[5, 7], [13, 15]])


def test_adaptive_avg_pool_global():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(2, 3, 5, 7)))
    out = F.adaptive_avg_pool2d(x, 1, 1)
    np.testing.assert_allclose(out.data[:, :, 0, 0], x.data.mean(axis=(2, 3)), rtol=1e-5)


def test_bilinear_resize_constant_preserved():
    x = t(np.full((1, 2, 4, 4), 3.25))
    out = F.bilinear_resize(x, 9, 5)
    np.testing.assert_allclose(out.data, np.full((1, 2, 9, 5), 3.25), rtol=1e-6)


def test_bilinear_resize_identity():
    rng = np.random.default_rng(6)
    x = t(rng.normal(size=(1, 1, 6, 6)))
    out = F.bilinear_resize(x, 6, 6)
    np.testing.assert_allclose(out.data, x.data, atol=1e-6)


def test_concat_and_slice_roundtrip():
    a = t(np.ones((2, 3)))
    b = t(np.zeros((2, 2)))
    cat = F.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    back = F.slice_ranges(cat, (None, (0, 3)))
    np.testing.assert_array_equal(back.data, a.data)


def test_dropout_deterministic_given_seed():
    x = t(np.ones((4, 4)))
    a = F.dropout(x, 0.5, seed=9)
    b = F.dropout(x, 0.5, seed=9)
    np.testing.assert_array_equal(a.data, b.data)


def test_dtype_preserved_and_promoted():
    x32 = t(np.ones(3))
    x64 = Tensor(np.ones(3, dtype=np.float64))
    assert F.gelu(x32).dtype == np.float32
    assert F.gelu(x64).dtype == np.float64
    assert F.add(x32, x64).dtype == np.float64


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6, 10, 10)).astype(np.float32)
    w = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
    first = F.conv2d(t(x), t(w), stride=2, padding=1).data
    second = F.conv2d(t(x), t(w), stride=2, padding=1).data
    assert np.array_equal(first, second)


@pytest.mark.parametrize("training", [False, True])
def test_batch_norm_without_a_node_builds_only_its_output(training):
    """With no node recorded, batch norm writes its affine map and ReLU into
    the normalised array, keeping the bits of the path that saves ``xhat``: in
    eval mode the output is the only array it builds."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 64, 32, 32)).astype(np.float32)
    gamma, beta = rng.normal(size=64).astype(np.float32), rng.normal(size=64).astype(np.float32)
    stats = rng.normal(size=64).astype(np.float32), rng.uniform(0.5, 2, size=64).astype(np.float32)

    def bn(requires_grad):
        return F.batch_norm2d(t(x), t(gamma, requires_grad=requires_grad), t(beta), t(stats[0]),
                              t(stats[1]), training=training, relu=True)

    recorded = bn(True)
    assert recorded.node is not None
    tracemalloc.start()
    try:
        lean = bn(False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lean.node is None and lean.data.tobytes() == recorded.data.tobytes()
    # training-mode statistics square a centred copy, the running ones need none
    assert peak < (2 if training else 1) * lean.data.nbytes + (1 << 20), peak


# ---------------------------------------------------------------------------
# batch norm's backward: the bits of the unfused formula, in one buffer


def bn_backward_formula(xhat, inv, gamma, beta, g, needs, training, relu):
    """Batch norm's input, gamma and beta gradients as full-size expressions."""
    gamma4, beta4 = gamma.reshape(1, -1, 1, 1), beta.reshape(1, -1, 1, 1)
    if relu:
        g = g * (xhat * gamma4 + beta4 > 0)
    gx = None
    if needs[0]:
        dxhat = g * gamma4
        if training:
            mean = dxhat.mean(axis=(0, 2, 3), keepdims=True)
            m2 = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
            gx = (dxhat - mean - xhat * m2) * inv
        else:
            gx = dxhat * inv
    ggamma = (g * xhat).sum(axis=(0, 2, 3)) if needs[1] else None
    gbeta = g.sum(axis=(0, 2, 3)) if needs[2] else None
    return gx, ggamma, gbeta, None, None


@pytest.mark.parametrize("channels", [1, 3, 4, 130])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("needs", [(True, True, True), (True, False, False), (False, True, True),
                                   (False, False, True)])
@pytest.mark.parametrize("part_bytes", [None, 1])
def test_batch_norm_backward_keeps_the_bits_of_the_full_size_formula(
        channels, training, relu, needs, part_bytes, monkeypatch):
    """The rule builds its gradient in place and its per-channel products in
    slices of channels (of at least 4; ``part_bytes`` 1 makes every slice that
    small); every gradient keeps the formula's bytes, and the upstream
    gradient is left as it was."""
    if part_bytes is not None:
        monkeypatch.setattr(primitives, "_PART_BYTES", part_bytes)
    rng = np.random.default_rng(channels)
    x = rng.normal(1.0, 2.0, size=(4, channels, 9, 7)).astype(np.float32)
    gamma, beta = rng.normal(size=channels).astype(np.float32), rng.normal(size=channels).astype(np.float32)
    stats = [rng.normal(size=channels).astype(np.float32), rng.uniform(0.5, 2, size=channels).astype(np.float32)]
    datas, attrs = [x, gamma, beta, *stats], {"training": training, "relu": relu}
    y, ctx = primitives._REGISTRY["batch_norm2d"].forward(datas, attrs)
    g = rng.normal(size=y.shape).astype(np.float32)
    upstream = g.copy()
    needs = needs + (False, False)
    got = primitives._REGISTRY["batch_norm2d"].backward(datas, attrs, ctx, g, needs)
    want = bn_backward_formula(*ctx, gamma, beta, upstream, needs, training, relu)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes())
    assert g.tobytes() == upstream.tobytes()


def test_batch_norm_relu_backward_allocates_its_gradient_and_the_mask():
    """At UperNet's fuse shape the rule holds, beside what it was given, its
    4 MB gradient and the ReLU's 1 MB mask (the full-size formula: 12 MB)."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(8, 128, 32, 32)).astype(np.float32), requires_grad=True)
    gamma = Tensor(rng.normal(size=128).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.normal(size=128).astype(np.float32), requires_grad=True)
    stats = t(np.zeros(128)), t(np.ones(128))
    proj = t(rng.normal(size=x.shape))
    with primitive_peaks() as rows:
        backward(F.sum(F.mul(F.batch_norm2d(x, gamma, beta, *stats, training=True, relu=True), proj)))
    (row,) = [r for r in rows if r.op == "batch_norm2d" and r.direction == "backward"]
    assert row.transient <= 5.1 * 2**20, row


# ---------------------------------------------------------------------------
# bilinear resize


def test_bilinear_resize_commutes_with_a_pointwise_conv():
    """Bilinear weights are non-negative and sum to one per output pixel, so
    a 1x1 conv with a bias may run before the resize or after it: the pyramid
    heads classify first and resize K channels, not their features."""
    rng = np.random.default_rng(12)
    x = t(rng.normal(size=(3, 16, 7, 9)))
    conv = Conv2d(rng, 16, 5, 1)
    conv.bias.data[...] = rng.normal(size=5)
    first = F.bilinear_resize(conv(x), 30, 20)
    last = conv(F.bilinear_resize(x, 30, 20))
    np.testing.assert_allclose(first.data, last.data, rtol=1e-5, atol=1e-5)


# Resizes at the dense heads' sizes: a 32-channel map doubled, UperNet's fuse
# inputs, a downsample to 20x20 and one pyramid pooling bin.
HEAD_RESIZES = [
    ((32, 32, 32, 32), (64, 64)),
    ((32, 128, 16, 16), (32, 32)),
    ((32, 128, 8, 8), (32, 32)),
    ((16, 64, 64, 64), (20, 20)),
    ((8, 128, 2, 2), (32, 32)),
]


def _neighbours(n_in, n_out):
    """Each output index's two source indices and the upper one's weight
    (half-pixel centers, clamped edges)."""
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1)
    lo = np.floor(src).astype(int)
    return lo, np.minimum(lo + 1, n_in - 1), src - lo


def _resize_reference(x, out_h, out_w):
    """Bilinear resize in float64 by gathering the two neighbours along each
    axis, with no weight matrix."""
    def along(a, axis, n_out):
        lo, hi, frac = _neighbours(a.shape[axis], n_out)
        frac = frac.reshape([-1 if d == axis else 1 for d in range(a.ndim)])
        return (1.0 - frac) * np.take(a, lo, axis=axis) + frac * np.take(a, hi, axis=axis)

    return along(along(x.astype(np.float64), 2, out_h), 3, out_w)


def _resize_reference_backward(g, h, w):
    """The resize's adjoint in float64: each output pixel's gradient is
    scattered back onto its neighbours with the forward's weights."""
    def along(a, axis, n_in):
        lo, hi, frac = _neighbours(n_in, a.shape[axis])
        a = np.moveaxis(a, axis, 0)
        out = np.zeros((n_in,) + a.shape[1:])
        for o in range(a.shape[0]):
            out[lo[o]] += (1.0 - frac[o]) * a[o]
            out[hi[o]] += frac[o] * a[o]
        return np.moveaxis(out, 0, axis)

    return along(along(g.astype(np.float64), 3, w), 2, h)


@pytest.mark.parametrize("shape,out_hw", HEAD_RESIZES)
def test_bilinear_resize_matches_a_gathered_reference(shape, out_hw):
    x = np.random.default_rng(10).normal(size=shape).astype(np.float32)
    y, _ = primitives._REGISTRY["bilinear_resize"].forward([x], {"out_h": out_hw[0], "out_w": out_hw[1]})
    assert y.dtype == np.float32 and y.shape == shape[:2] + out_hw
    np.testing.assert_allclose(y, _resize_reference(x, *out_hw), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("shape,out_hw", HEAD_RESIZES)
def test_bilinear_resize_backward_matches_a_scattered_reference(shape, out_hw):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape).astype(np.float32)
    attrs = {"out_h": out_hw[0], "out_w": out_hw[1]}
    resize = primitives._REGISTRY["bilinear_resize"]
    y, ctx = resize.forward([x], attrs)
    g = rng.normal(size=y.shape).astype(np.float32)
    (gx,) = resize.backward([x], attrs, ctx, g, (True,))
    assert gx.dtype == np.float32 and gx.shape == shape
    np.testing.assert_allclose(gx, _resize_reference_backward(g, *shape[2:]), rtol=1e-5, atol=1e-5)
