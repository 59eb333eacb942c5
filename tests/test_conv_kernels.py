"""Convolution kernels against direct loops, across batch sizes and in bounded memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from peftseg.autodiff import Tensor, functional as F, grad_check
from peftseg.autodiff import primitives
from peftseg.autodiff.primitives import _REGISTRY
from peftseg.autodiff.tensor import HEAP_ARRAY_BYTES


# ---------------------------------------------------------------------------
# float64 direct-loop references: one output position at a time


def _out_hw(x_shape, w_shape, stride, padding):
    h, w = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    return (h - w_shape[2]) // stride + 1, (w - w_shape[3]) // stride + 1


def _padded(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def ref_conv(x, w, stride, padding):
    xp = _padded(x.astype(np.float64), padding)
    w = w.astype(np.float64)
    kh, kw = w.shape[2:]
    ho, wo = _out_hw(x.shape, w.shape, stride, padding)
    y = np.zeros((x.shape[0], w.shape[0], ho, wo))
    for i in range(ho):
        for j in range(wo):
            patch = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            y[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    return y


def ref_grad_x(gy, w, stride, padding, x_shape):
    w = w.astype(np.float64)
    kh, kw = w.shape[2:]
    b, c, h, wd = x_shape
    gxp = np.zeros((b, c, h + 2 * padding, wd + 2 * padding))
    for i in range(gy.shape[2]):
        for j in range(gy.shape[3]):
            gxp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += np.tensordot(
                gy[:, :, i, j].astype(np.float64), w, axes=([1], [0]))
    return gxp[:, :, padding:padding + h, padding:padding + wd]


def ref_grad_w(x, gy, stride, padding, w_shape):
    xp = _padded(x.astype(np.float64), padding)
    kh, kw = w_shape[2:]
    gw = np.zeros(w_shape)
    for i in range(gy.shape[2]):
        for j in range(gy.shape[3]):
            patch = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            gw += np.tensordot(gy[:, :, i, j].astype(np.float64), patch, axes=([0], [0]))
    return gw


def assert_within_dot_bound(got, ref, ref_abs, n_terms, dtype):
    """|got - ref| <= n * eps * sum |terms|: the rounding bound of an n-term sum."""
    assert got.dtype == dtype and got.shape == ref.shape
    bound = n_terms * np.finfo(dtype).eps * ref_abs + np.finfo(np.float64).tiny
    assert np.all(np.abs(got.astype(np.float64) - ref) <= bound)


# ---------------------------------------------------------------------------
# property tests: random shapes, strides, paddings and chunk sizes


@st.composite
def conv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    padding = draw(st.integers(0, max(kh, kw) - 1))
    h = draw(st.integers(max(1, kh - 2 * padding), kh + 6))
    w = draw(st.integers(max(1, kw - 2 * padding), kw + 6))
    b, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    return (b, c, h, w), (o, c, kh, kw), stride, padding, np.dtype(dtype), seed


def _chunk_limit(chunk_units, x_shape, w_shape, stride, padding, itemsize):
    """A heap limit that splits the batch into chunks of ``chunk_units`` images."""
    ho, wo = _out_hw(x_shape, w_shape, stride, padding)
    return chunk_units * w_shape[1] * w_shape[2] * w_shape[3] * ho * wo * itemsize + 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=conv_cases(), chunk_units=st.sampled_from([None, 1, 2]))
def test_conv2d_kernels_match_direct_loops(case, chunk_units):
    x_shape, w_shape, stride, padding, dtype, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(dtype)
    attrs = {"stride": stride, "padding": padding}
    gy = rng.normal(size=(x_shape[0], w_shape[0]) + _out_hw(x_shape, w_shape, stride, padding))
    gy = gy.astype(dtype)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_units is not None:
            mp.setattr(primitives, "HEAP_ARRAY_BYTES",
                       _chunk_limit(chunk_units, x_shape, w_shape, stride, padding, dtype.itemsize))
        y, ctx = _REGISTRY["conv2d"].forward([x, w], attrs)
        gx, gw = _REGISTRY["conv2d"].backward([x, w], attrs, ctx, gy, (True, True))
    o, c, kh, kw = w_shape
    assert_within_dot_bound(y, ref_conv(x, w, stride, padding),
                            ref_conv(np.abs(x), np.abs(w), stride, padding), c * kh * kw, dtype)
    assert_within_dot_bound(gx, ref_grad_x(gy, w, stride, padding, x_shape),
                            ref_grad_x(np.abs(gy), np.abs(w), stride, padding, x_shape),
                            o * kh * kw, dtype)
    assert_within_dot_bound(gw, ref_grad_w(x, gy, stride, padding, w_shape),
                            ref_grad_w(np.abs(x), np.abs(gy), stride, padding, w_shape),
                            gy.shape[0] * gy.shape[2] * gy.shape[3], dtype)
    if chunk_units is not None:  # chunking changes no bit
        y1, ctx1 = _REGISTRY["conv2d"].forward([x, w], attrs)
        gx1, gw1 = _REGISTRY["conv2d"].backward([x, w], attrs, ctx1, gy, (True, True))
        for got, whole in ((y, y1), (gx, gx1), (gw, gw1)):
            assert got.tobytes() == whole.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=conv_cases(), extra=st.integers(0, 2), chunk_units=st.sampled_from([None, 1]))
def test_conv_transpose2d_matches_direct_loops(case, extra, chunk_units):
    (b, c, h, wd), (o, _, kh, kw), stride, padding, dtype, seed = case
    rng = np.random.default_rng(seed)
    # conv_transpose2d maps (b, c, h, wd) to the extent a stride-s conv maps back to (h, wd)
    oh, ow = (h - 1) * stride - 2 * padding + kh, (wd - 1) * stride - 2 * padding + kw
    assume(oh >= 1 and ow >= 1)
    extra = min(extra, stride - 1)
    out_shape = (b, o, oh + extra, ow + extra)
    x = rng.normal(size=(b, c, h, wd)).astype(dtype)
    w = rng.normal(size=(c, o, kh, kw)).astype(dtype)
    attrs = {"stride": stride, "padding": padding, "output_size": out_shape[2:]}
    g = rng.normal(size=out_shape).astype(dtype)
    with pytest.MonkeyPatch.context() as mp:
        if chunk_units is not None:
            mp.setattr(primitives, "HEAP_ARRAY_BYTES", 1)
        y, ctx = _REGISTRY["conv_transpose2d"].forward([x, w], attrs)
        gx, gw = _REGISTRY["conv_transpose2d"].backward([x, w], attrs, ctx, g, (True, True))
    assert_within_dot_bound(y, ref_grad_x(x, w, stride, padding, out_shape),
                            ref_grad_x(np.abs(x), np.abs(w), stride, padding, out_shape),
                            c * kh * kw, dtype)
    assert_within_dot_bound(gx, ref_conv(g, w, stride, padding),
                            ref_conv(np.abs(g), np.abs(w), stride, padding), o * kh * kw, dtype)
    assert_within_dot_bound(gw, ref_grad_w(g, x, stride, padding, w.shape),
                            ref_grad_w(np.abs(g), np.abs(x), stride, padding, w.shape),
                            b * h * wd, dtype)


@pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
@pytest.mark.parametrize("wrt", ["x", "w"])
@pytest.mark.parametrize("stride,padding,kernel", [(1, 0, (1, 1)), (2, 1, (3, 2)), (3, 2, (3, 3))])
def test_conv_grad_check_small_shapes(op, wrt, stride, padding, kernel):
    rng = np.random.default_rng(sum(map(ord, op + wrt)) + 10 * stride + padding)
    x = rng.normal(size=(2, 3, 5, 6))
    w = rng.normal(size=(3, 2) + kernel) if op == "conv_transpose2d" else rng.normal(size=(2, 3) + kernel)
    conv = getattr(F, op)
    shape = conv(Tensor(x), Tensor(w), stride=stride, padding=padding).shape
    proj = Tensor(rng.normal(size=shape))

    def f(t):
        xt, wt = (t, Tensor(w)) if wrt == "x" else (Tensor(x), t)
        return F.sum(F.mul(conv(xt, wt, stride=stride, padding=padding), proj))

    assert grad_check(f, Tensor(x if wrt == "x" else w)) < 1e-6


# ---------------------------------------------------------------------------
# batch-size invariance: every GEMM covers one image

BATCH_CASES = {
    # the ViT-Adapter stem's last convolution at the desk shape
    "stem_4x4_to_2x2": ("conv2d", (16, 32, 4, 4), (32, 32, 3, 3), {"stride": 2, "padding": 1}),
    "same_3x3": ("conv2d", (8, 16, 12, 12), (8, 16, 3, 3), {"padding": 1}),
    "pyramid_pool_bin": ("conv2d", (8, 64, 2, 2), (128, 64, 1, 1), {}),
    "unet_up": ("conv_transpose2d", (8, 64, 8, 8), (64, 32, 2, 2), {"stride": 2}),
    "linear_head": ("conv_transpose2d", (8, 64, 8, 8), (64, 2, 8, 8), {"stride": 8}),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_conv_forward_is_batch_size_invariant(case):
    op, x_shape, w_shape, attrs = BATCH_CASES[case]
    rng = np.random.default_rng(3)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = Tensor(rng.normal(size=w_shape).astype(np.float32))
    conv = getattr(F, op)
    batch = conv(Tensor(x), w, **attrs).data
    single = np.concatenate([conv(Tensor(x[i:i + 1]), w, **attrs).data for i in range(len(x))])
    assert batch.tobytes() == single.tobytes()


# ---------------------------------------------------------------------------
# memory: the im2col columns stay within the heap threshold

# The padded channel slice and the (B*Ho*Wo, O) copy of the upstream gradient
# that grad_w holds next to its columns take about 8 MB at the shape below.
MEMORY_SLACK = 16 << 20


def test_conv_columns_stay_within_the_heap_threshold():
    """UperNet's fuse conv: the full-batch im2col of this shape is 151 MB."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 512, 32, 32)).astype(np.float32)
    w = rng.normal(size=(128, 512, 3, 3)).astype(np.float32)
    gy = rng.normal(size=(8, 128, 32, 32)).astype(np.float32)
    attrs = {"stride": 1, "padding": 1}
    tracemalloc.start()
    try:
        y, ctx = _REGISTRY["conv2d"].forward([x, w], attrs)
        gx, gw = _REGISTRY["conv2d"].backward([x, w], attrs, ctx, gy, (True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the inputs were allocated before tracing began, so the peak excludes them
    outputs = y.nbytes + gx.nbytes + gw.nbytes
    assert peak < outputs + HEAP_ARRAY_BYTES + MEMORY_SLACK


def test_conv_backward_frees_the_weight_columns_before_the_input_gradient():
    """At the fuse shape, grad_w's column buffer (up to HEAP_ARRAY_BYTES) is
    freed before grad_x exists: the backward peaks below both gradients plus
    one buffer (50.25 MB; computing grad_x first peaked at 58.02 MB)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 512, 32, 32)).astype(np.float32)
    w = rng.normal(size=(128, 512, 3, 3)).astype(np.float32)
    gy = rng.normal(size=(8, 128, 32, 32)).astype(np.float32)
    attrs = {"stride": 1, "padding": 1}
    _, ctx = _REGISTRY["conv2d"].forward([x, w], attrs)
    tracemalloc.start()
    try:
        gx, gw = _REGISTRY["conv2d"].backward([x, w], attrs, ctx, gy, (True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gx.nbytes + gw.nbytes + HEAP_ARRAY_BYTES
