"""Forward-path oracles for the primitive set."""

import tracemalloc

import numpy as np
import pytest

from peftseg.autodiff import Tensor, apply_primitive, functional as F
from peftseg.errors import ShapeError, UnknownPrimitiveError


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


@pytest.mark.parametrize("shapes, dtypes, what", [
    (((2, 1, 5, 5), (3, 2, 5, 5)), (np.float32, np.float32), "batch"),
    (((2, 1, 5, 5), (2, 2, 4, 5)), (np.float32, np.float32), "extent"),
    (((2, 1, 5, 5), (2, 2, 5, 5)), (np.float32, np.float64), "dtype"),
    (((2, 1, 5, 5), (2, 1, 5, 5), (2, 2, 5, 5)), (np.float32,) * 3, "channel"),
    (((2, 1, 5, 5), (2, 2, 5)), (np.float32, np.float32), "rank"),
])
def test_conv2d_rejects_blocks_that_do_not_make_one_input(shapes, dtypes, what):
    """A list of channel blocks must read as one (B, C, H, W) input with the
    kernel's channel count: anything else names conv2d and every block's shape."""
    w = t(np.zeros((4, 3, 3, 3)))
    blocks = [Tensor(np.zeros(s, dtype=d)) for s, d in zip(shapes, dtypes)]
    with pytest.raises(ShapeError) as err:
        F.conv2d(blocks, w, padding=1)
    msg = str(err.value)
    assert "conv2d" in msg and all(str(s) in msg for s in shapes), msg
    if what == "dtype":
        assert "float32" in msg and "float64" in msg, msg


def test_conv2d_rejects_an_empty_block_list():
    with pytest.raises(ShapeError, match="conv2d"):
        F.conv2d([], t(np.zeros((4, 3, 3, 3))))


def test_conv2d_of_blocks_is_the_conv_of_their_concatenation():
    rng = np.random.default_rng(4)
    parts = [rng.normal(size=(2, c, 7, 6)).astype(np.float32) for c in (3, 1, 2)]
    w, b = rng.normal(size=(5, 6, 3, 3)).astype(np.float32), rng.normal(size=5).astype(np.float32)
    whole = F.conv2d(t(np.concatenate(parts, axis=1)), t(w), t(b), stride=2, padding=1)
    blocks = F.conv2d([t(p) for p in parts], t(w), t(b), stride=2, padding=1)
    assert whole.data.tobytes() == blocks.data.tobytes()


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
