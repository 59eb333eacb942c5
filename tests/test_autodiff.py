"""Backward rules: hand oracles, central-difference checks, tape invariants."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from peftseg.autodiff import Tensor, backward, functional as F, grad_check, no_grad, trace
from peftseg.autodiff.primitives import (_FLUSH_BLOCK, _REGISTRY, _conv2d_core, _conv2d_grad_w,
                                         _conv2d_grad_x, _flush_subnormals)
from peftseg.autodiff.tensor import Node
from peftseg.errors import EngineError, GraphConsumedError, ShapeError

RNG = np.random.default_rng(1234)


def t32(shape, scale=1.0, requires_grad=False):
    return Tensor((RNG.normal(size=shape) * scale).astype(np.float32),
                  requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# spec'd backward oracles


def test_sum_gradient_is_ones():
    x = t32((3, 5), requires_grad=True)
    grads = backward(F.sum(x))
    np.testing.assert_array_equal(grads[x], np.ones((3, 5), dtype=np.float32))


def test_square_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
    grads = backward(F.sum(F.mul(x, x)))
    np.testing.assert_allclose(grads[x], [2.0, 4.0, 6.0])


def test_softmax_cross_entropy_closed_form():
    # two classes, logits [0, 0], target class 1: gradient is p - y = [0.5, -0.5]
    logits = Tensor(np.zeros((1, 2), dtype=np.float32), requires_grad=True)
    loss = F.cross_entropy(logits, np.array([1]))
    np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-6)
    grads = backward(loss)
    np.testing.assert_allclose(grads[logits], [[0.5, -0.5]], atol=1e-6)


def test_backward_rejects_non_scalar():
    x = t32((2, 2), requires_grad=True)
    y = F.mul(x, x)
    with pytest.raises(ShapeError):
        backward(y)


def test_backward_rejects_off_tape_root():
    x = t32((1,), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x)


def test_frozen_leaves_get_no_gradient():
    frozen = t32((4,))
    live = t32((4,), requires_grad=True)
    grads = backward(F.sum(F.mul(frozen, live)))
    assert live in grads and frozen not in grads
    assert frozen.grad is None


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
    y = F.add(F.mul(x, x), F.mul(x, x))  # 2x^2, dy/dx = 4x
    grads = backward(F.sum(y))
    np.testing.assert_allclose(grads[x], [8.0])


def test_no_grad_suppresses_recording():
    x = t32((3,), requires_grad=True)
    with no_grad():
        y = F.sum(F.gelu(x))
    assert y.node is None


# ---------------------------------------------------------------------------
# tape invariants


def test_tape_topological_order_and_single_visit():
    x = t32((4, 4), requires_grad=True)
    y = F.sum(F.gelu(F.matmul(x, x)))
    tape = trace(y)
    indices = [n.index for n in tape.nodes]
    assert indices == sorted(indices)
    for node in tape.nodes:
        for inp in node.inputs:
            if inp.node is not None:
                assert inp.node.index < node.index
    # one visit per node: indices are unique
    assert len(set(indices)) == len(indices)


# ---------------------------------------------------------------------------
# gradient checks per primitive (criterion-level sweep lives in acceptance)


def test_gelu_grad_check_spec_example():
    point = t32((8,))
    assert grad_check(lambda x: F.sum(F.gelu(x)), point, eps=1e-4) <= 1e-3


def test_linear_map_grad_check_machine_precision():
    w = Tensor(RNG.normal(size=(6, 6)).astype(np.float64))
    point = Tensor(RNG.normal(size=(2, 6)).astype(np.float64))
    err = grad_check(lambda x: F.sum(F.matmul(x, w)), point, eps=1e-5)
    assert err <= 1e-9


def test_linear_keeps_the_bits_of_matmul_then_add():
    """``F.linear`` adds its bias inside the matmul node: the same forward and
    gradient bytes as the two-node composition, with one node."""
    data = [RNG.normal(size=s).astype(np.float32) for s in ((2, 5, 6), (7, 6), (7,), (2, 5, 7))]

    def run(compose):
        x, w, b = (Tensor(d.copy(), requires_grad=True) for d in data[:3])
        y = compose(x, w, b)
        nodes = len(trace(y).nodes)
        grads = backward(F.sum(F.mul(y, Tensor(data[3]))))
        return [y.data] + [grads[t] for t in (x, w, b)], nodes

    fused, n_fused = run(F.linear)
    plain, n_plain = run(lambda x, w, b: F.add(F.matmul(x, w, transpose_b=True), b))
    assert (n_fused, n_plain) == (1, 2)
    for got, want in zip(fused, plain):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_layer_norm_grad_check_spec_example():
    gamma = t32((8,))
    beta = t32((8,))
    point = t32((4, 8))

    def f(x):
        y = F.layer_norm(x, gamma, beta)
        return F.sum(F.mul(y, y))

    assert grad_check(f, point, eps=1e-4) <= 1e-3


def test_grad_check_64bit_precision():
    point = Tensor(RNG.normal(size=(6,)).astype(np.float64))
    err = grad_check(lambda x: F.sum(F.gelu(x)), point, eps=1e-6)
    assert err <= 1e-6


def test_cross_entropy_grad_check():
    targets = RNG.integers(0, 3, size=(2, 4, 4))
    targets[0, 0, 0] = 255  # exercise the ignore path
    point = t32((2, 3, 4, 4))
    err = grad_check(lambda x: F.cross_entropy(x, targets), point, eps=1e-4)
    assert err <= 1e-3


def test_attention_grad_check():
    k = t32((1, 5, 4))
    v = t32((1, 5, 4))
    point = t32((1, 3, 4))
    err = grad_check(lambda q: F.sum(F.attention(q, k, v)), point, eps=1e-4)
    assert err <= 1e-3


# ---------------------------------------------------------------------------
# structural adjoint / inverse identities


def test_conv_transpose_is_adjoint_of_conv():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        stride = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, k))
        h = int(rng.integers(k + 2, k + 6))
        x = Tensor(rng.normal(size=(2, 3, h, h)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, k, k)).astype(np.float32))
        y = F.conv2d(x, w, stride=stride, padding=pad)
        z = Tensor(rng.normal(size=y.shape).astype(np.float32))
        xt = F.conv_transpose2d(z, w, stride=stride, padding=pad,
                                output_size=(h, h))
        lhs = float(np.vdot(y.data.astype(np.float64), z.data.astype(np.float64)))
        rhs = float(np.vdot(x.data.astype(np.float64), xt.data.astype(np.float64)))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs), abs(rhs))


def test_reflect_pad_then_center_crop_is_identity():
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        h = int(rng.integers(3, 8))
        w = int(rng.integers(3, 8))
        ph = int(rng.integers(0, h))
        pw = int(rng.integers(0, w))
        x = Tensor(rng.normal(size=(1, 2, h, w)).astype(np.float32))
        padded = F.reflect_pad2d(x, ph, pw)
        cropped = F.slice_ranges(padded, (None, None, (ph, ph + h), (pw, pw + w)))
        np.testing.assert_array_equal(cropped.data, x.data)


def test_batch_norm_training_grad_check():
    gamma = t32((3,))
    beta = t32((3,))
    rm = Tensor(np.zeros(3, dtype=np.float32))
    rv = Tensor(np.ones(3, dtype=np.float32))
    point = t32((2, 3, 4, 4))

    def f(x):
        y = F.batch_norm2d(x, gamma, beta, rm, rv, training=True)
        return F.sum(F.mul(y, y))

    assert grad_check(f, point, eps=1e-3) <= 1e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_relu_is_byte_equal_to_batch_norm_then_relu(training, dtype):
    """The fused ReLU keeps a conv-BN-ReLU block's bits: the same output and
    the same gradients for x, gamma and beta as a separate relu node."""
    rng = np.random.default_rng(7)

    def t(*shape, requires_grad=True):
        return Tensor(rng.normal(size=shape), requires_grad=requires_grad, dtype=dtype)

    x, gamma, beta = t(4, 3, 5, 5), t(3), t(3)
    rm = t(3, requires_grad=False)
    rv = Tensor(np.abs(rng.normal(size=3)) + 0.5, dtype=dtype)
    upstream = t(4, 3, 5, 5, requires_grad=False)

    fused = F.batch_norm2d(x, gamma, beta, rm, rv, training=training, relu=True)
    split = F.relu(F.batch_norm2d(x, gamma, beta, rm, rv, training=training))
    assert fused.data.dtype == dtype and 0 < (fused.data > 0).mean() < 1
    assert fused.data.tobytes() == split.data.tobytes()
    fused_grads = backward(F.sum(F.mul(fused, upstream)))
    split_grads = backward(F.sum(F.mul(split, upstream)))
    for name, leaf in (("x", x), ("gamma", gamma), ("beta", beta)):
        assert fused_grads[leaf].tobytes() == split_grads[leaf].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [False, True])
def test_normalisation_rules_keep_the_bytes_of_their_one_expression_forms(relu, dtype):
    """The in-place forms round every element as the plain expressions did."""
    rng = np.random.default_rng(8)
    x, g = rng.normal(size=(2, 4, 3, 5, 5)).astype(dtype)
    gamma, beta = rng.normal(size=3).astype(dtype), rng.normal(size=3).astype(dtype)
    stats = np.zeros(3, dtype=dtype), np.ones(3, dtype=dtype)
    attrs = {"training": True, "relu": relu}
    bn = _REGISTRY["batch_norm2d"]
    y, (xhat, inv) = bn.forward([x, gamma, beta, *stats], attrs)
    gx, ggamma, gbeta, _, _ = bn.backward([x, gamma, beta, *stats], attrs, (xhat, inv), g,
                                          (True, True, True, False, False))
    gm, bt = gamma.reshape(1, 3, 1, 1), beta.reshape(1, 3, 1, 1)
    want_y = xhat * gm + bt
    if relu:
        g = g * (xhat * gm + bt > 0)
        want_y = np.maximum(want_y, 0)
    dxhat, axes = g * gm, (0, 2, 3)
    want_gx = inv * (dxhat - dxhat.mean(axis=axes, keepdims=True)
                     - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True))
    for got, want in ((y, want_y), (gx, want_gx), (ggamma, (g * xhat).sum(axis=axes)),
                      (gbeta, g.sum(axis=axes))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_rule_keeps_the_bytes_of_its_one_expression_form(dtype):
    rng = np.random.default_rng(13)
    x, g = rng.normal(size=(2, 4, 7, 6)).astype(dtype)
    gamma, beta = rng.normal(size=(2, 6)).astype(dtype)
    ln = _REGISTRY["layer_norm"]
    _, (xhat, inv) = ln.forward([x, gamma, beta], {})
    gx, _, _ = ln.backward([x, gamma, beta], {}, (xhat, inv), g, (True, False, False))
    dxhat = g * gamma
    want = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert gx.dtype == want.dtype and gx.tobytes() == want.tobytes()


def test_batch_norm_forward_holds_one_temporary_next_to_its_outputs():
    """Training-mode batch_norm2d with its ReLU at the UperNet fuse output's
    shape: y, xhat and the variance's square (8.03 MB; 12.03 MB with y built
    by ``xhat * gamma + beta``)."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, 128, 32, 32)).astype(np.float32)
    gamma, beta = rng.normal(size=128).astype(np.float32), rng.normal(size=128).astype(np.float32)
    stats = [np.zeros(128, dtype=np.float32), np.ones(128, dtype=np.float32)]
    tracemalloc.start()
    try:
        y, (xhat, _) = _REGISTRY["batch_norm2d"].forward([x, gamma, beta, *stats],
                                                         {"training": True, "relu": True})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + xhat.nbytes + (4 << 20)


def test_cross_entropy_ignores_masked_positions_exactly():
    rng = np.random.default_rng(11)
    logits_data = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    targets = rng.integers(0, 3, size=(2, 4, 4))
    targets[:, :2, :] = 255
    logits = Tensor(logits_data, requires_grad=True)
    loss = F.cross_entropy(logits, targets)

    # manual oracle over valid positions only
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    valid = targets != 255
    picked = np.take_along_axis(logp, np.where(valid, targets, 0)[:, None], axis=1)[:, 0]
    expected = -picked[valid].mean()
    np.testing.assert_allclose(loss.item(), expected, rtol=1e-5)

    grads = backward(loss)
    assert not grads[logits][:, :, :2, :].any()  # no gradient under the mask


def test_second_backward_accumulates_into_grad():
    x = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    loss = F.sum(F.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    loss2 = F.sum(F.mul(x, x))
    backward(loss2)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_tape_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        x = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        loss = F.sum(F.mul(F.scale(x, 3.0), x))
        indices = {node.index for node in trace(loss).nodes}
        backward(loss)
        del loss
        alive = [obj for obj in gc.get_objects() if isinstance(obj, Node) and obj.index in indices]
    finally:
        gc.enable()
    assert len(indices) == 3
    assert alive == []


def test_backward_frees_intermediates_while_root_lives():
    x = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    y = F.mul(x, x)
    y_ref = weakref.ref(y)
    loss = F.sum(F.scale(y, 3.0))
    nodes = trace(loss).nodes
    del y
    grads = backward(loss)
    np.testing.assert_allclose(grads[x], [6.0, -12.0])
    assert y_ref() is None
    assert all(node.inputs == () and node.backward_fn is None for node in nodes)


def test_second_backward_through_consumed_graph_raises():
    x = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    shared = F.mul(x, x)
    loss = F.sum(shared)
    other = F.sum(F.scale(shared, 2.0))
    backward(loss)
    grad = x.grad.copy()
    for root in (loss, other):
        with pytest.raises(GraphConsumedError):
            backward(root)
    assert issubclass(GraphConsumedError, EngineError)
    np.testing.assert_array_equal(x.grad, grad)


# ---------------------------------------------------------------------------
# conv backward: float32 subnormals are flushed to zero at the rule's edges

_CONV_SHAPES = {"conv2d": ((2, 3, 6, 6), (4, 3, 3, 3)),
                "conv_transpose2d": ((2, 4, 3, 3), (4, 3, 3, 3))}
_CONV_ATTRS = {"stride": 2, "padding": 1}


def _is_subnormal(a):
    mag = np.abs(a)
    return (mag > 0) & (mag < np.finfo(np.float32).tiny)


def _flushed(a):
    return np.where(_is_subnormal(a), np.float32(0), a)


def _conv_case(op, seed, x_scale, w_scale, g_scale, dtype=np.float32):
    rng = np.random.default_rng(seed)
    x_shape, w_shape = _CONV_SHAPES[op]
    x = (rng.normal(size=x_shape) * x_scale).astype(dtype)
    w = (rng.normal(size=w_shape) * w_scale).astype(dtype)
    y, _ = _REGISTRY[op].forward([x, w], _CONV_ATTRS)
    g = (rng.normal(size=y.shape) * g_scale).astype(dtype)
    return x, w, g, rng


def _conv_rule(op, x, w, g):
    return _REGISTRY[op].backward([x, w], _CONV_ATTRS, None, g, (True, True))


def _conv_kernels(op, x, w, g):
    """The rule's (gx, gw) computed by the unflushed kernels."""
    s, p = _CONV_ATTRS["stride"], _CONV_ATTRS["padding"]
    if op == "conv2d":
        return _conv2d_grad_x(g, w, s, p, x.shape), _conv2d_grad_w(x, g, s, p, w.shape)
    return _conv2d_core(g, w, s, p), _conv2d_grad_w(g, x, s, p, w.shape)


@pytest.mark.parametrize("op", sorted(_CONV_SHAPES))
def test_conv_backward_flushes_subnormal_upstream_gradient(op):
    x, w, g, rng = _conv_case(op, 5, 1.0, 1.0, 1e-35)
    g[rng.random(g.shape) < 0.2] = np.float32(-1e-39)
    assert _is_subnormal(g).any()
    for got, raw, want in zip(_conv_rule(op, x, w, g), _conv_kernels(op, x, w, g),
                              _conv_kernels(op, x, w, _flushed(g))):
        assert not np.array_equal(raw, want)  # the subnormals reach the output bits
        assert not _is_subnormal(got).any()
        np.testing.assert_array_equal(got, _flushed(want))


@pytest.mark.parametrize("op", sorted(_CONV_SHAPES))
def test_conv_backward_flushes_subnormal_results(op):
    x, w, g, _ = _conv_case(op, 6, 1e-5, 1e-5, 1e-33)
    assert not _is_subnormal(g).any()
    for got, raw in zip(_conv_rule(op, x, w, g), _conv_kernels(op, x, w, g)):
        assert _is_subnormal(raw).any() and (np.abs(raw) >= np.finfo(np.float32).tiny).any()
        assert not _is_subnormal(got).any()
        np.testing.assert_array_equal(got, _flushed(raw))


_TINY32 = np.finfo(np.float32).tiny


def _flush_inputs():
    """Arrays with float32 subnormals where the blocked flush can get them wrong."""
    rng = np.random.default_rng(9)
    n = 3 * _FLUSH_BLOCK + 77
    last_block = rng.normal(size=n).astype(np.float32)
    last_block[-3:] = np.float32(3e-39), np.float32(-5e-41), np.float32(1e-45)
    negative = rng.normal(size=(2, _FLUSH_BLOCK + 5)).astype(np.float32)
    negative[0, ::97] = np.float32(-1e-39)
    negative[1, -1] = -_TINY32  # the smallest normal stays
    # grad_w is returned as a transposed view; the hits sit in several blocks
    transposed = rng.normal(size=(3, 3, 64, 3 * _FLUSH_BLOCK // 64)).astype(np.float32)
    transposed[1, 2, 5, ::7] = np.float32(2e-40)
    transposed = transposed.transpose(3, 0, 1, 2)
    reversed_ = last_block[::-1]
    strided = negative[:, ::3]
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 1e-40, -1e-40, 0.0], dtype=np.float32)
    return {"last_partial_block": last_block, "negative": negative, "transposed": transposed,
            "reversed": reversed_, "strided": strided, "zero_nan_inf": special}


@pytest.mark.parametrize("name", sorted(_flush_inputs()))
def test_flush_matches_the_whole_array_form(name):
    a = _flush_inputs()[name]
    before = a.copy()
    got, want = _flush_subnormals(a), _flushed(a)
    assert got is not a and _is_subnormal(a).any()
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert not _is_subnormal(got).any()
    assert a.tobytes() == before.tobytes()  # the input is left as it was


@pytest.mark.parametrize("name", ["clean", "zero_nan_inf", "transposed", "float64_tiny"])
def test_flush_returns_the_array_itself_when_nothing_is_subnormal(name):
    rng = np.random.default_rng(10)
    a = {"clean": rng.normal(size=2 * _FLUSH_BLOCK + 3).astype(np.float32),
         "zero_nan_inf": np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, _TINY32, -_TINY32],
                                  dtype=np.float32),
         "transposed": rng.normal(size=(70, _FLUSH_BLOCK // 8)).astype(np.float32).T,
         "float64_tiny": np.full(5, 1e-40)}[name]
    assert _flush_subnormals(a) is a


def test_flush_without_subnormals_traces_under_one_megabyte():
    a = np.random.default_rng(11).normal(size=(4, 1024, 1024)).astype(np.float32)  # 16 MB
    tracemalloc.start()
    try:
        got = _flush_subnormals(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is a and peak < 1 << 20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("op", sorted(_CONV_SHAPES))
@pytest.mark.parametrize("case", ["finite", "nan_inf", "float64_tiny"])
def test_conv_backward_without_float32_subnormals_is_the_kernels(op, case):
    if case == "float64_tiny":  # far below float32's range, still normal in float64
        x, w, g, _ = _conv_case(op, 7, 1e-20, 1e-20, 1e-20, dtype=np.float64)
    else:
        x, w, g, _ = _conv_case(op, 7, 1.0, 1.0, 1.0)
    if case == "nan_inf":
        g[0, 0, 0, 0], g[1, 1, 1, 1], g[0, 1, 2, 2] = np.nan, np.inf, -np.inf
    for got, raw in zip(_conv_rule(op, x, w, g), _conv_kernels(op, x, w, g)):
        assert got.dtype == raw.dtype
        assert got.tobytes() == raw.tobytes()
    if case == "nan_inf":
        assert all(np.isnan(got).any() for got in _conv_rule(op, x, w, g))
    if case == "float64_tiny":
        assert all((np.abs(got) < np.finfo(np.float32).tiny).any() for got in _conv_rule(op, x, w, g))
