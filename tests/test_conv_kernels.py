"""Convolution kernels against direct loops, across batch sizes and column tiles, and in bounded memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from peftseg.autodiff import Tensor, backward, functional as F, grad_check
from peftseg.autodiff import primitives
from peftseg.autodiff.primitives import _REGISTRY, COLUMN_BYTES
from peftseg.errors import ShapeError

from conftest import primitive_peaks


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
    """A column tile that splits the batch into chunks of ``chunk_units`` images."""
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
            mp.setattr(primitives, "COLUMN_BYTES",
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
            mp.setattr(primitives, "COLUMN_BYTES", 1)
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
# tiles below one image: bands of output rows and chunks of input channels

UNSPLIT = 1 << 62  # a column tile that splits nothing


def _tile(split, units, x_shape, w_shape, stride, padding, itemsize):
    """A column tile of ``units`` images, ``units`` output rows of one image
    (the forward's bands) or ``units`` input channels of one image (grad_x's
    chunks)."""
    ho, wo = _out_hw(x_shape, w_shape, stride, padding)
    _, c, kh, kw = w_shape
    per_unit = {"images": c * kh * kw * ho * wo, "rows": c * kh * kw * wo,
                "channels": kh * kw * ho * wo}[split]
    return units * per_unit * itemsize


def _case_arrays(case):
    x_shape, w_shape, stride, padding, dtype, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(dtype)
    gy = rng.normal(size=(x_shape[0], w_shape[0]) + _out_hw(x_shape, w_shape, stride, padding))
    return x, w, gy.astype(dtype), {"stride": stride, "padding": padding}


def _conv2d_under(x, w, gy, attrs, tile, split_macs=None):
    """conv2d's forward and both gradients under a column tile of ``tile``
    bytes and, if given, a split floor of ``split_macs`` multiply-adds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primitives, "COLUMN_BYTES", tile)
        if split_macs is not None:
            mp.setattr(primitives, "_SPLIT_MACS", split_macs)
        y, ctx = _REGISTRY["conv2d"].forward([x, w], attrs)
        return (y,) + _REGISTRY["conv2d"].backward([x, w], attrs, ctx, gy, (True, True))


def _assert_within_direct_loop_bounds(x, w, gy, attrs, y, gx, gw):
    (o, c, kh, kw), s, p = w.shape, attrs["stride"], attrs["padding"]
    assert_within_dot_bound(y, ref_conv(x, w, s, p), ref_conv(np.abs(x), np.abs(w), s, p),
                            c * kh * kw, x.dtype)
    assert_within_dot_bound(gx, ref_grad_x(gy, w, s, p, x.shape),
                            ref_grad_x(np.abs(gy), np.abs(w), s, p, x.shape), o * kh * kw, x.dtype)
    assert_within_dot_bound(gw, ref_grad_w(x, gy, s, p, w.shape),
                            ref_grad_w(np.abs(x), np.abs(gy), s, p, w.shape),
                            gy.shape[0] * gy.shape[2] * gy.shape[3], x.dtype)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=conv_cases(), split=st.sampled_from(["rows", "channels"]), units=st.sampled_from([1, 2]))
def test_conv2d_tiles_below_one_image_match_direct_loops(case, split, units):
    """Bands of 1 or 2 output rows, grad_x chunks of 1 or 2 input channels, at
    any stride and padding. GEMMs this small are below the kernels' split
    floor, where BLAS may round them otherwise, so the floor is lifted and only
    the rounding bound is checked; the bits are checked above the floor."""
    x_shape, w_shape, stride, padding, dtype, _ = case
    assume(units < (_out_hw(x_shape, w_shape, stride, padding)[0] if split == "rows" else x_shape[1]))
    x, w, gy, attrs = _case_arrays(case)
    tile = _tile(split, units, x_shape, w_shape, stride, padding, dtype.itemsize)
    _assert_within_direct_loop_bounds(x, w, gy, attrs, *_conv2d_under(x, w, gy, attrs, tile, split_macs=0))


@st.composite
def split_cases(draw):
    """float32 convs wide enough that their bands and channel chunks can stay
    above the split floor, with a tile of 1 or 2 rows or channels that splits them."""
    kh, kw = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    padding = draw(st.integers(0, min(kh, kw) - 1))
    h, w = draw(st.integers(12, 24)), draw(st.integers(12, 24))
    b, c, o = draw(st.integers(1, 2)), draw(st.integers(96, 192)), draw(st.integers(96, 160))
    stride = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    case = (b, c, h, w), (o, c, kh, kw), stride, padding, np.dtype(np.float32), seed
    split, units = draw(st.sampled_from(["rows", "channels"])), draw(st.integers(1, 2))
    ho, wo = _out_hw(*case[:4])
    if split == "rows":
        n, least = ho, primitives._least_units(o * c * kh * kw * wo, wo)
    else:
        n, least = c, primitives._least_units(kh * kw * ho * wo * o, kh * kw)
    tile = _tile(split, units, *case[:4], 4)
    assume(len(primitives._chunks(n, tile // units, tile, least)) > 1)
    return case, tile


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case_tile=split_cases())
def test_split_images_match_direct_loops_and_keep_the_unsplit_bits(case_tile):
    """Above the split floor, bands and channel chunks (and grad_w's channel
    chunks under the same tile) give the bytes of the unsplit GEMMs."""
    case, tile = case_tile
    x, w, gy, attrs = _case_arrays(case)
    got = _conv2d_under(x, w, gy, attrs, tile)
    _assert_within_direct_loop_bounds(x, w, gy, attrs, *got)
    for split, whole in zip(got, _conv2d_under(x, w, gy, attrs, UNSPLIT)):
        assert split.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# batch-size invariance: every GEMM covers one image

BATCH_CASES = {
    # the ViT-Adapter stem's last convolution at the desk shape
    "stem_4x4_to_2x2": ("conv2d", (16, 32, 4, 4), (32, 32, 3, 3), {"stride": 2, "padding": 1}),
    "same_3x3": ("conv2d", (8, 16, 12, 12), (8, 16, 3, 3), {"padding": 1}),
    "pyramid_pool_bin": ("conv2d", (8, 64, 2, 2), (128, 64, 1, 1), {}),
    "unet_up": ("conv_transpose2d", (8, 64, 8, 8), (64, 32, 2, 2), {"stride": 2}),
    "linear_head": ("conv_transpose2d", (8, 64, 8, 8), (64, 2, 8, 8), {"stride": 8}),
    # an image's columns exceed COLUMN_BYTES: bands of output rows, chunks of channels
    "split_rows": ("conv2d", (3, 128, 32, 32), (128, 128, 3, 3), {"padding": 1}),
    "split_channels": ("conv_transpose2d", (3, 128, 32, 32), (128, 128, 3, 3), {"padding": 1}),
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
# split images at real shapes: the default tile, and bands or chunks of 1 or 2

# UperNet's fuse conv at half the batch and extent, and its 128-channel smooth
# conv; both split at the default tile
SPLIT_SHAPES = {"fuse": ((2, 512, 16, 16), (128, 512, 3, 3)),
                "smooth": ((2, 128, 32, 32), (128, 128, 3, 3))}


@pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES))
@pytest.mark.parametrize("split,units", [("rows", 1), ("rows", 2), ("channels", 1), ("channels", 2),
                                         ("default", None)])
def test_split_images_keep_the_unsplit_bits(shape, split, units):
    """Forward bands, grad_x channel chunks and grad_w's channel chunks give
    the bytes of the unsplit GEMMs."""
    x_shape, w_shape = SPLIT_SHAPES[shape]
    rng = np.random.default_rng(4)
    x = rng.normal(size=x_shape).astype(np.float32)
    w = rng.normal(size=w_shape).astype(np.float32)
    gy = rng.normal(size=(x_shape[0], w_shape[0]) + x_shape[2:]).astype(np.float32)
    attrs = {"stride": 1, "padding": 1}
    assert _tile("images", 1, x_shape, w_shape, 1, 1, 4) > COLUMN_BYTES
    tile = COLUMN_BYTES if split == "default" else _tile(split, units, x_shape, w_shape, 1, 1, 4)
    for got, whole in zip(_conv2d_under(x, w, gy, attrs, tile), _conv2d_under(x, w, gy, attrs, UNSPLIT)):
        assert got.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# memory: the im2col buffers stay within the column tile, grad_w's within
# what grad_x will hold

# The padded image or channel slice and the (B*Ho*Wo, O) copy of the upstream
# gradient that grad_w holds next to its columns take about 6 MB at the shape below.
MEMORY_SLACK = 16 << 20


def _fuse_case():
    """UperNet's fuse conv: the full-batch im2col of this shape is 151 MB."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 512, 32, 32)).astype(np.float32)
    w = rng.normal(size=(128, 512, 3, 3)).astype(np.float32)
    gy = rng.normal(size=(8, 128, 32, 32)).astype(np.float32)
    return x, w, gy, {"stride": 1, "padding": 1}


def test_conv_columns_stay_within_the_heap_threshold():
    x, w, gy, attrs = _fuse_case()
    tracemalloc.start()
    try:
        y, ctx = _REGISTRY["conv2d"].forward([x, w], attrs)
        gx, gw = _REGISTRY["conv2d"].backward([x, w], attrs, ctx, gy, (True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the inputs were allocated before tracing began, so the peak excludes them
    outputs = y.nbytes + gx.nbytes + gw.nbytes
    assert peak < outputs + COLUMN_BYTES + MEMORY_SLACK


def test_conv_forward_scratch_stays_within_three_tiles():
    """At the fuse shape the forward holds its output, one padded image and
    one band's columns: 10.20 MB (24.26 MB with 32 MB chunks of whole images)."""
    x, w, _, attrs = _fuse_case()
    tracemalloc.start()
    try:
        y, _ = _REGISTRY["conv2d"].forward([x, w], attrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + 3 * COLUMN_BYTES


def test_conv_backward_frees_the_weight_columns_before_the_input_gradient():
    """At the fuse shape, grad_w's columns are freed before grad_x exists,
    and the subnormal flush tests the gradients block by block: the backward
    peaks at 25.46 MB (42.25 MB with 32 MB tiles and a full-size flush)."""
    x, w, gy, attrs = _fuse_case()
    _, ctx = _REGISTRY["conv2d"].forward([x, w], attrs)
    tracemalloc.start()
    try:
        gx, gw = _REGISTRY["conv2d"].backward([x, w], attrs, ctx, gy, (True, True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gx.nbytes + gw.nbytes + 3 * COLUMN_BYTES


# ---------------------------------------------------------------------------
# 1x1 convs: one GEMM per image on the input as it lies, no columns

POINTWISE_CASES = {
    "classifier": ((8, 128, 32, 32), 2),  # the dense heads' last conv
    "lateral": ((8, 64, 16, 16), 128),
    "pooling_bin": ((8, 64, 2, 2), 128),
    "small": ((3, 5, 7, 6), 4),
    "image_above_the_tile": ((1, 512, 64, 64), 128),  # column path: bands and chunks
}


@pytest.mark.parametrize("case,dtype", [(case, np.float32) for case in sorted(POINTWISE_CASES)] + [
    # float64 bands and chunks need not keep the whole GEMM's bits
    (case, np.float64) for case in sorted(POINTWISE_CASES) if case != "image_above_the_tile"])
@pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
def test_pointwise_conv_keeps_the_bits_of_the_column_path(case, dtype, op, monkeypatch):
    """A 1x1 conv's output and input gradient (for a transposed conv, the
    gradient and the output) skip im2col and col2im with the column path's bytes."""
    x_shape, o = POINTWISE_CASES[case]
    rng = np.random.default_rng(x_shape[1])
    x = rng.normal(size=x_shape).astype(dtype)
    w_shape = (o, x_shape[1], 1, 1) if op == "conv2d" else (x_shape[1], o, 1, 1)
    w = rng.normal(size=w_shape).astype(dtype)
    prim = _REGISTRY[op]

    def run():
        y, ctx = prim.forward([x, w], {})
        gy = np.random.default_rng(1).normal(size=y.shape).astype(dtype)
        return (y,) + prim.backward([x, w], {}, ctx, gy, (True, True))

    direct = run()
    monkeypatch.setattr(primitives, "_pointwise", lambda *args: False)
    for got, want in zip(direct, run()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_pointwise_conv_backward_holds_only_its_gradients():
    """The classifier's (128 -> 2) backward allocates at most its weight
    gradient's 4 MB of columns above what it was given: the input gradient
    reuses the input the rule frees (the column path allocated 8 MB)."""
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(8, 128, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 128, 1, 1)).astype(np.float32), requires_grad=True)
    proj = Tensor(rng.normal(size=(8, 2, 32, 32)).astype(np.float32))
    with primitive_peaks() as rows:
        # the conv's input is an intermediate, so the rule owns and frees it
        grads = backward(F.sum(F.mul(F.conv2d(F.scale(x, 1.0), w), proj)))
    (row,) = [r for r in rows if r.op == "conv2d" and r.direction == "backward"]
    assert row.transient <= grads[x].nbytes + grads[w].nbytes + 0.1 * 2**20, row


# ---------------------------------------------------------------------------
# the conv of a bilinearly resized map, which resized_conv2d never builds

RESIZED_CASES = {  # input (B, C, h, w) -> resized extent
    "upernet_16_to_32": ((2, 4, 16, 16), (32, 32)),
    "upernet_8_to_32": ((2, 4, 8, 8), (32, 32)),
    "upernet_4_to_32": ((2, 4, 4, 4), (32, 32)),
    "unet_4_to_8": ((2, 4, 4, 4), (8, 8)),
    "unet_8_to_16": ((2, 4, 8, 8), (16, 16)),
    "unet_16_to_32": ((2, 4, 16, 16), (32, 32)),
    "one_pixel_to_4": ((2, 4, 1, 1), (4, 4)),
    "downsample_6_to_4": ((2, 4, 6, 6), (4, 4)),
    "non_square_7x5_to_13x11": ((2, 4, 7, 5), (13, 11)),
}


def _output_and_grads(fn, arrays, proj):
    """``fn``'s output on tensors of ``arrays`` and the gradients of
    ``sum(fn(...) * proj)`` in each, in input order."""
    leaves = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
    y = fn(*leaves)
    grads = backward(F.sum(F.mul(y, Tensor(proj, dtype=proj.dtype))))
    return [y.data] + [grads[t] for t in leaves]


def _assert_relatively_close(got, want, rtol):
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, i
        scale = np.abs(b).max()
        assert np.abs(a - b).max() <= rtol * scale, (i, np.abs(a - b).max() / scale)


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("case", sorted(RESIZED_CASES))
def test_resized_conv_matches_resize_then_conv(case, dtype, rtol):
    """Output, input gradient and weight gradient of a 3x3, padding-1 conv of
    a resized map against resizing first, within a relative 1e-12 in float64
    and 1e-5 in float32 of each array's largest magnitude."""
    shape, (h, w) = RESIZED_CASES[case]
    rng = np.random.default_rng(shape[2] * 100 + h)
    x = rng.normal(size=shape).astype(dtype)
    k = (rng.normal(size=(5, shape[1], 3, 3)) * 0.5).astype(dtype)
    proj = rng.normal(size=(shape[0], 5, h, w)).astype(dtype)
    got = _output_and_grads(lambda x, k: F.resized_conv2d(x, k, h, w, padding=1), (x, k), proj)
    want = _output_and_grads(lambda x, k: F.conv2d(F.bilinear_resize(x, h, w), k, padding=1),
                             (x, k), proj)
    _assert_relatively_close(got, want, rtol)


@pytest.mark.parametrize("extents", [
    (8, 4, 2),  # UperNet's fuse: the full-extent block first
    (4, 8),  # a UNet stage: the coarse block first
    (8, 4, 8),  # two full-extent blocks, summed by an ``add``
    (8,),  # no coarse block: the bias is an ``add``
])
def test_resized_conv_of_blocks_matches_resize_then_concat_then_conv(extents):
    """Blocks at 8x8 and coarser, resized to 8x8, with a bias: the output and
    every block's, the kernel's and the bias's gradients match resizing each
    block and convolving the blocks, in float64."""
    rng = np.random.default_rng(17)
    shapes = [(2, 2 + i % 2, e, e) for i, e in enumerate(extents)]
    arrays = [rng.normal(size=s) for s in shapes]
    arrays += [rng.normal(size=(4, sum(s[1] for s in shapes), 3, 3)), rng.normal(size=4)]
    proj = rng.normal(size=(2, 4, 8, 8))

    def reference(*args):
        *blocks, k, bias = args
        return F.conv2d(F.concat([F.bilinear_resize(b, 8, 8) for b in blocks], axis=1), k, bias, padding=1)

    def resized(*args):
        *blocks, k, bias = args
        return F.resized_conv2d(blocks, k, 8, 8, bias, padding=1)

    _assert_relatively_close(_output_and_grads(resized, arrays, proj),
                             _output_and_grads(reference, arrays, proj), 1e-12)


@pytest.mark.parametrize("blocks,kernel", [
    ([(1, 3, 4, 4)], (2, 4, 3, 3)),  # channels do not add up
    ([(1, 3, 4)], (2, 3, 3, 3)),  # a block is not (B, C, h, w)
])
def test_resized_conv_rejects_bad_shapes(blocks, kernel):
    with pytest.raises(ShapeError):
        F.resized_conv2d([Tensor(np.zeros(s, dtype=np.float32)) for s in blocks],
                         Tensor(np.zeros(kernel, dtype=np.float32)), 8, 8, padding=1)


def test_resized_conv_rejects_an_extent_with_no_output():
    with pytest.raises(ShapeError):
        F.resized_conv2d(Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32)),
                         Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)), 3, 3, padding=0)
