"""Primitive registry: forward kernels and their backward rules.

Every primitive is pure and deterministic: reductions run in fixed row-major
order, scatter accumulation uses sequential slice adds, and no kernel reads
global state (dropout takes its seed as an attribute). Kernels follow numpy
promotion, so float64 inputs flow through float32 parameters unchanged; the
training path is float32 end to end.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf

from ..errors import InputTypeError, ShapeError, UnknownPrimitiveError
from .tensor import Node, Tensor, grad_enabled, no_grad

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327

# Eigen's float32 erf: x * P(x^2) / Q(x^2) on x clamped to [-4, 4], highest
# power first. Max error against float64 erf is 4.4e-7 on [-6, 6].
_ERF32_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF32_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))
_GELU_CHUNK = 1 << 14  # elements per GELU pass, so its temporaries stay small
# batch norm's backward builds its per-channel products in pieces of this size
_PART_BYTES = 1 << 20
_PART_CHANNELS = 4


# ``Primitive.saves`` rules: map ``needs`` to the input arrays a rule reads.


def _reads_all(needs):
    return (True,) * len(needs)


def _reads_none(needs):
    return (False,) * len(needs)


def _reads_other(needs):
    """A bilinear rule reads each of its two factors only for the other's
    gradient, and never a trailing addend (``matmul``'s)."""
    return (needs[1], needs[0]) + (False,) * (len(needs) - 2)


def _reads_gamma(needs):
    """A normalisation rule reads only gamma, and only for the input's gradient."""
    return (False, needs[0]) + (False,) * (len(needs) - 2)


def _reads_affine(needs):
    """Batch norm's rule reads gamma and beta for any gradient: a fused ReLU's
    mask needs both, and ``saves`` cannot see whether the ReLU is on."""
    return (False, any(needs), any(needs), False, False)


@dataclass(frozen=True)
class Primitive:
    forward: Callable
    backward: Callable
    linear: bool  # affine in each input with the others held fixed
    # needs -> which input arrays the backward rule reads; the tape keeps
    # only those of intermediate inputs (the default keeps every input)
    saves: Callable = _reads_all


_REGISTRY: dict[str, Primitive] = {}


def _register(op_id: str, forward, backward, saves, linear: bool = False):
    _REGISTRY[op_id] = Primitive(forward, backward, linear, saves)


def registered_primitives() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def is_linear_primitive(op_id: str) -> bool:
    return _REGISTRY[op_id].linear


def apply_primitive(op_id: str, inputs, attrs: dict | None = None) -> Tensor:
    """Apply a registered primitive and record a tape node when needed.

    The node holds an intermediate input's array only when the rule reads
    it (``Primitive.saves``); otherwise it holds the producer's stand-in,
    so an activation no rule reads is freed once the caller drops it.
    Leaves are held as they are.
    """
    try:
        prim = _REGISTRY[op_id]
    except KeyError:
        raise UnknownPrimitiveError(f"unknown primitive {op_id!r}") from None
    attrs = {} if attrs is None else attrs
    inputs = list(inputs)
    for i, t in enumerate(inputs):
        if not isinstance(t, Tensor):
            raise InputTypeError(f"{op_id}: input {i} is a {type(t).__name__}, not a Tensor")
    needs = tuple(t.requires_grad or t.node is not None for t in inputs) if grad_enabled() else ()
    record = any(needs)
    # a forward sees grad enabled only when a node will be recorded
    with nullcontext() if record else no_grad():
        out_data, ctx = prim.forward([t.data for t in inputs], attrs)

    out = Tensor._wrap(np.ascontiguousarray(out_data))
    if record:
        kept = tuple(t if read or t.node is None else t.node.stand_in()
                     for t, read in zip(inputs, prim.saves(needs)))

        # rules get C-order gradients, so their bits do not depend on the
        # memory layout a consumer's rule returned the gradient in
        def backward_fn(gout, needs, _prim=prim, _datas=[t.data for t in kept],
                        _attrs=attrs, _ctx=ctx):
            return _prim.backward(_datas, _attrs, _ctx, np.ascontiguousarray(gout), needs)

        out.node = Node(op_id, kept, out, backward_fn, needs)
    return out


def _shape_err(op_id: str, msg: str, *shapes) -> ShapeError:
    listed = ", ".join(str(tuple(s)) for s in shapes)
    return ShapeError(f"{op_id}: {msg} (shapes {listed})")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / shape


def _broadcasting(op_id: str, ufunc):
    """The forward of a binary elementwise op under numpy broadcasting."""
    def forward(datas, attrs):
        a, b = datas
        try:
            return ufunc(a, b), None
        except ValueError:
            raise _shape_err(op_id, "operands are not broadcastable", a.shape, b.shape)
    return forward


def _add_bwd(datas, attrs, ctx, g, needs):
    a, b = datas
    return (_unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None)


def _sub_bwd(datas, attrs, ctx, g, needs):
    a, b = datas
    return (_unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(-g, b.shape) if needs[1] else None)


def _mul_bwd(datas, attrs, ctx, g, needs):
    a, b = datas
    return (_unbroadcast(g * b, a.shape) if needs[0] else None,
            _unbroadcast(g * a, b.shape) if needs[1] else None)


def _neg_fwd(datas, attrs):
    return -datas[0], None


def _neg_bwd(datas, attrs, ctx, g, needs):
    return (-g,)


def _scale_fwd(datas, attrs):
    return datas[0] * attrs["alpha"], None


def _scale_bwd(datas, attrs, ctx, g, needs):
    return (g * attrs["alpha"],)


def _reshape_fwd(datas, attrs):
    x = datas[0]
    shape = tuple(attrs["shape"])
    try:
        return x.reshape(shape), None
    except ValueError:
        raise _shape_err("reshape", f"cannot reshape to {shape}", x.shape)


def _reshape_bwd(datas, attrs, ctx, g, needs):
    return (g.reshape(datas[0].shape),)


def _transpose_fwd(datas, attrs):
    x = datas[0]
    axes = tuple(attrs["axes"])
    if sorted(axes) != list(range(x.ndim)):
        raise _shape_err("transpose", f"invalid axes {axes}", x.shape)
    return np.transpose(x, axes), None


def _transpose_bwd(datas, attrs, ctx, g, needs):
    axes = tuple(attrs["axes"])
    inverse = tuple(np.argsort(axes))
    return (np.ascontiguousarray(np.transpose(g, inverse)),)


def _slice_fwd(datas, attrs):
    x = datas[0]
    ranges = attrs["ranges"]
    if len(ranges) != x.ndim:
        raise _shape_err("slice", f"need {x.ndim} ranges, got {len(ranges)}", x.shape)
    key = tuple(slice(None) if r is None else slice(r[0], r[1]) for r in ranges)
    return x[key], key


def _slice_bwd(datas, attrs, ctx, g, needs):
    gx = np.zeros_like(datas[0])
    gx[ctx] = g
    return (gx,)


def _concat_fwd(datas, attrs):
    axis = attrs["axis"]
    try:
        return np.concatenate(datas, axis=axis), None
    except ValueError:
        raise _shape_err("concat", f"incompatible shapes along axis {axis}", *[d.shape for d in datas])


def _concat_bwd(datas, attrs, ctx, g, needs):
    axis = attrs["axis"]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)
    pieces = []
    for i in range(len(datas)):
        if needs[i]:
            key = [slice(None)] * g.ndim
            key[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(np.ascontiguousarray(g[tuple(key)]))
        else:
            pieces.append(None)
    return pieces


def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def _sum_fwd(datas, attrs):
    x = datas[0]
    axes = _norm_axes(attrs.get("axes"), x.ndim)
    return x.sum(axis=axes, keepdims=attrs.get("keepdims", False)), axes


def _expand_reduced(g, x_shape, axes, keepdims):
    if not keepdims:
        shape = list(x_shape)
        for a in axes:
            shape[a] = 1
        g = g.reshape(shape)
    return np.broadcast_to(g, x_shape)


def _sum_bwd(datas, attrs, ctx, g, needs):
    x = datas[0]
    return (_expand_reduced(g, x.shape, ctx, attrs.get("keepdims", False)).copy(),)


def _mean_fwd(datas, attrs):
    x = datas[0]
    axes = _norm_axes(attrs.get("axes"), x.ndim)
    return x.mean(axis=axes, keepdims=attrs.get("keepdims", False)), axes


def _mean_bwd(datas, attrs, ctx, g, needs):
    x = datas[0]
    count = 1
    for a in ctx:
        count *= x.shape[a]
    g = _expand_reduced(g, x.shape, ctx, attrs.get("keepdims", False))
    return (g / count,)


# ---------------------------------------------------------------------------
# matmul


def _matmul_fwd(datas, attrs):
    """a @ b (or a @ b^T), plus each trailing addend in input order, added in
    place: ``out += addend`` gives the bits of an ``add`` node without its
    second full-size output."""
    a, b = datas[:2]
    if a.ndim < 2 or b.ndim < 2:
        raise _shape_err("matmul", "operands must have rank >= 2", a.shape, b.shape)
    if attrs.get("transpose_b", False):
        b = np.swapaxes(b, -1, -2)
    try:
        out = np.matmul(a, b)
    except ValueError:
        raise _shape_err("matmul", "inner or batch dimensions mismatch", a.shape, datas[1].shape)
    for addend in datas[2:]:
        dtype = np.result_type(out, addend)
        if dtype != out.dtype:
            out = out.astype(dtype)
        try:
            out += addend
        except ValueError:
            raise _shape_err("matmul", "addend does not broadcast to the product", out.shape, addend.shape)
    return out, None


def _matmul_bwd(datas, attrs, ctx, g, needs):
    a, b = datas[:2]
    tb = attrs.get("transpose_b", False)
    ga = gb = None
    if needs[0]:
        rhs = b if tb else np.swapaxes(b, -1, -2)
        ga = _unbroadcast(np.matmul(g, rhs), a.shape)
    if needs[1]:
        if tb:
            gb = _unbroadcast(np.matmul(np.swapaxes(g, -1, -2), a), b.shape)
        else:
            gb = _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape)
    # an addend's gradient is ``add``'s rule
    return (ga, gb) + tuple(_unbroadcast(g, d.shape) if need else None
                            for d, need in zip(datas[2:], needs[2:]))


# ---------------------------------------------------------------------------
# activations / normalization


def _horner(x2, coeffs):
    acc = x2 * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= x2
    acc += coeffs[-1]
    return acc


def _erf32(x):
    """erf of a float32 array in float32: exactly odd, and +-1 beyond +-4."""
    t = np.clip(x, np.float32(-4), np.float32(4))
    x2 = t * t
    p = _horner(x2, _ERF32_P)
    p *= t
    p /= _horner(x2, _ERF32_Q)
    return p


def _gelu_fwd(datas, attrs):
    """y = x * Phi(x); with grad enabled, ctx is dy/dx = Phi(x) + x * phi(x).

    float32 takes ``_erf32``, float64 scipy's erf."""
    x = datas[0]
    erf_ = _erf32 if x.dtype == np.float32 else erf
    flat = x.reshape(-1)
    y = np.empty_like(flat)
    d = np.empty_like(flat) if grad_enabled() else None
    for i in range(0, flat.size, _GELU_CHUNK):
        xs = flat[i:i + _GELU_CHUNK]
        cdf = erf_(xs * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5
        np.multiply(xs, cdf, out=y[i:i + _GELU_CHUNK])
        if d is not None:
            pdf = xs * -0.5
            pdf *= xs
            np.exp(pdf, out=pdf)
            pdf *= _INV_SQRT_2PI
            pdf *= xs
            np.add(pdf, cdf, out=d[i:i + _GELU_CHUNK])
    return y.reshape(x.shape), None if d is None else d.reshape(x.shape)


def _gelu_bwd(datas, attrs, ctx, g, needs):
    return (g * ctx,)


def _relu_fwd(datas, attrs):
    return np.maximum(datas[0], 0), None


def _relu_bwd(datas, attrs, ctx, g, needs):
    return (g * (datas[0] > 0),)


def _softmax_fwd(datas, attrs):
    """softmax(alpha * x): the same bytes as ``scale`` followed by softmax."""
    axis = attrs.get("axis", -1)
    y = datas[0] * attrs.get("alpha", 1.0)
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y, y


def _softmax_bwd(datas, attrs, ctx, g, needs):
    y = ctx
    gx = g * y
    np.subtract(g, gx.sum(axis=attrs.get("axis", -1), keepdims=True), out=gx)
    gx *= y
    gx *= attrs.get("alpha", 1.0)
    return (gx,)


def _log_softmax_fwd(datas, attrs):
    x = datas[0]
    axis = attrs.get("axis", -1)
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    return y, y


def _log_softmax_bwd(datas, attrs, ctx, g, needs):
    y = ctx
    axis = attrs.get("axis", -1)
    return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)


def _standardise(x, axes, eps):
    """(x - mean) / sqrt(var + eps) over ``axes``, and that inverse deviation."""
    xhat = x - x.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=axes, keepdims=True) + eps)
    xhat *= inv
    return xhat, inv


def _standardise_grad(dxhat, xhat, inv, axes, parts=(Ellipsis,)):
    """The input gradient of ``_standardise`` from the gradient of its output,
    computed in place in ``dxhat``, which the caller must own. The full-size
    products are built one index of ``parts`` (slices along axis 1) at a time."""
    mean = dxhat.mean(axis=axes, keepdims=True)
    m2 = _reduce_products("mean", dxhat, xhat, axes, parts)
    dxhat -= mean
    for p in parts:
        dxhat[p] -= xhat[p] * m2[p]
    dxhat *= inv
    return dxhat


def _reduce_products(method, a, b, axes, parts):
    """``(a * b).<method>(axis=axes, keepdims=True)``, the product built one
    index of ``parts`` at a time: slices along axis 1, which ``axes`` keeps."""
    pieces = [getattr(a[p] * b[p], method)(axis=axes, keepdims=True) for p in parts]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)


def _layer_norm_fwd(datas, attrs):
    x, gamma, beta = datas
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise _shape_err("layer_norm", "gamma/beta must match last axis", x.shape, gamma.shape, beta.shape)
    xhat, inv = _standardise(x, (-1,), attrs.get("eps", 1e-5))
    return xhat * gamma + beta, (xhat, inv)


def _layer_norm_bwd(datas, attrs, ctx, g, needs):
    xhat, inv = ctx
    red = tuple(range(xhat.ndim - 1))
    gx = _standardise_grad(g * datas[1], xhat, inv, (-1,)) if needs[0] else None
    ggamma = (g * xhat).sum(axis=red) if needs[1] else None
    gbeta = g.sum(axis=red) if needs[2] else None
    return gx, ggamma, gbeta


def _bn_affine(xhat, gamma, beta, out=None):
    """``xhat * gamma + beta`` per channel, with no temporary beside the result
    (written into ``out`` when given)."""
    c = xhat.shape[1]
    y = np.multiply(xhat, gamma.reshape(1, c, 1, 1), out=out)
    y += beta.reshape(1, c, 1, 1)
    return y


def _batch_norm2d_fwd(datas, attrs):
    x, gamma, beta, rmean, rvar = datas
    if x.ndim != 4:
        raise _shape_err("batch_norm2d", "input must be (B,C,H,W)", x.shape)
    c = x.shape[1]
    for arr, name in ((gamma, "gamma"), (beta, "beta"), (rmean, "running mean"), (rvar, "running var")):
        if arr.shape != (c,):
            raise _shape_err("batch_norm2d", f"{name} must have shape ({c},)", x.shape, arr.shape)
    eps = attrs.get("eps", 1e-5)
    if attrs.get("training", True):
        xhat, inv = _standardise(x, (0, 2, 3), eps)
    else:
        inv = (1.0 / np.sqrt(rvar + eps)).reshape(1, c, 1, 1)
        xhat = x - rmean.reshape(1, c, 1, 1)
        xhat = np.multiply(xhat, inv, out=xhat if xhat.dtype == np.result_type(xhat, inv) else None)
    # xhat is only the rule's context: with no node recorded, y takes its place
    in_place = not grad_enabled() and xhat.dtype == np.result_type(xhat, gamma, beta)
    y = _bn_affine(xhat, gamma, beta, out=xhat if in_place else None)
    if attrs.get("relu", False):
        np.maximum(y, 0, out=y)
    return y, None if in_place else (xhat, inv)


def _channel_parts(x):
    """Indices of channel slices of (B, C, H, W) ``x`` of about _PART_BYTES
    each, and of _PART_CHANNELS at least. numpy sums a slice of two or more
    channels over (0, 2, 3) as it sums the whole array, image by image in
    batch order; a lone channel is contiguous across images and is summed in
    one pass, which rounds otherwise."""
    b, c, h, w = x.shape
    return [(slice(None), s)
            for s in _chunks(c, b * h * w * x.itemsize, _PART_BYTES, _PART_CHANNELS)]


def _batch_norm2d_bwd(datas, attrs, ctx, g, needs):
    """The input's gradient is built in one buffer: with the ReLU, the
    rebuilt pre-ReLU output takes the masked upstream gradient; gamma and the
    standardisation's gradient then apply in place. Full-size products run a
    few channels at a time."""
    xhat, inv = ctx
    gamma, parts = datas[1].reshape(1, -1, 1, 1), _channel_parts(xhat)
    owned = attrs.get("relu", False)  # whether ``g`` is an array of our own
    if owned:
        # the forward's own ops rebuild the pre-ReLU output, so the mask is
        # exact; the masked gradient overwrites it
        y = _bn_affine(xhat, datas[1], datas[2])
        g = np.multiply(g, y > 0, out=y if y.dtype == g.dtype else None)
    ggamma = _reduce_products("sum", g, xhat, (0, 2, 3), parts).reshape(-1) if needs[1] else None
    gbeta = g.sum(axis=(0, 2, 3)) if needs[2] else None
    gx = None
    if needs[0]:
        dxhat = np.multiply(g, gamma, out=g if owned and g.dtype == np.result_type(g, gamma) else None)
        if attrs.get("training", True):
            gx = _standardise_grad(dxhat, xhat, inv, (0, 2, 3), parts)
        else:
            gx = np.multiply(dxhat, inv, out=dxhat if dxhat.dtype == np.result_type(dxhat, inv) else None)
    return gx, ggamma, gbeta, None, None


# ---------------------------------------------------------------------------
# convolution cores
#
# The three cores below are the forward map, its adjoint in x, and its
# adjoint in w. conv_transpose2d reuses the adjoint as its forward, which
# makes the conv/conv-transpose adjoint identity hold by construction.
#
# Each core is im2col + GEMM (Chellapilla et al., 2006), built one tile at a
# time so that no column buffer exceeds COLUMN_BYTES. That is small next to
# the activations a training step holds, yet it holds 7 output rows of
# UperNet's 512-channel fuse conv, a GEMM that still runs at full speed: as
# MEC (Cho & Brand, 2017) showed, im2col's working memory can shrink without
# slowing the GEMM.
# The forward map and its adjoint in x take as many whole images as fit the
# tile: columns are (b, C*kh*kw, Ho*Wo) with rows in (c, u, v) order, so each
# GEMM reads and writes NCHW directly, and each covers one image, so an
# image's result does not depend on the batch it came in. An image whose
# columns exceed the tile runs alone: the forward in bands of output rows, the
# adjoint in x in chunks of input channels. Whether an image is split depends
# only on its size.
# The adjoint in w sums over the batch anyway; it chunks channels and
# contracts each chunk's (c, u, v) rows with the whole batch's (b, i, j)
# columns in one GEMM.
#
# conv2d takes one input and a kernel; a caller convolving a channel
# concatenation builds it with ``concat`` first. The rule reads the input
# only for the adjoint in w; it owns its saved arrays (see
# ``tensor.backward``), so it drops the input before it allocates the input's
# gradient, and the two never coexist.
#
# A band or chunk computes each element with the same dot product as the
# whole GEMM, but BLAS need not round it the same way: OpenBLAS hands a GEMM
# of at most 10^6 multiply-adds to small-matrix kernels, and numpy one that is
# a single row or column wide to gemv. So no band or chunk does _SPLIT_MACS or
# fewer multiply-adds or is one row or column wide; it exceeds the tile
# instead. Above that, float32 bands and chunks keep the bits of the whole
# GEMM with the OpenBLAS numpy ships; float64 ones need not.
#
# Both conv backward rules flush float32 subnormals to zero in the upstream
# gradient and in what they return. A softmax-times-1/pixels gradient can
# underflow into the subnormal range, and a GEMM that touches subnormals runs
# on a slow microcode path, up to 25x slower. The flush changes values by less
# than float32's smallest normal; float64 arrays, NaN and inf pass unchanged.

COLUMN_BYTES = 4 << 20
_SPLIT_MACS = 1 << 20
_F32_TINY = np.finfo(np.float32).tiny
_FLUSH_BLOCK = 1 << 16  # elements tested at a time, so the flush's masks stay small


def _flush_subnormals(a):
    """``a`` with float32 subnormals replaced by zero (``a`` itself if it has none).

    The test runs block by block over ``a`` in memory order; the first hit
    copies ``a`` once, keeping its layout, and each hit is zeroed in the copy.
    """
    if a is None or a.dtype != np.float32:
        return a
    flat, out = a.ravel(order="K"), None
    for start in range(0, flat.size, _FLUSH_BLOCK):
        mag = np.abs(flat[start:start + _FLUSH_BLOCK])
        sub = (mag < _F32_TINY) & (mag > 0)
        if sub.any():
            if out is None:
                out = a.copy(order="K")
                out_flat = out.ravel(order="K")
            out_flat[start:start + _FLUSH_BLOCK][sub] = 0
    return a if out is None else out


def _conv_windows(x, k, stride):
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _conv_out_hw(h, w, kh, kw, stride, padding):
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _stride_padding(op_id, attrs, *shapes):
    """A conv's (stride, padding): ints, the stride at least 1 and the padding at least 0."""
    s, p = attrs.get("stride", 1), attrs.get("padding", 0)
    ints = all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in (s, p))
    if not (ints and s >= 1 and p >= 0):
        raise _shape_err(op_id, f"stride {s!r} must be an int >= 1 and padding {p!r} an int >= 0", *shapes)
    return s, p


def _chunks(n, unit_bytes, limit, least=1):
    """Near-equal slices of ``n`` images, output rows or channels whose
    columns, ``unit_bytes`` each, take at most ``limit`` bytes (one unit at
    least), but fewer slices where that leaves one below ``least`` units."""
    parts = -(-n // max(1, limit // max(1, unit_bytes)))
    parts = min(parts, max(1, n // least))
    return [slice(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def _least_units(unit_macs, unit_width):
    """Units a band or chunk needs to do more than _SPLIT_MACS multiply-adds
    and be two GEMM rows or columns wide, at ``unit_macs`` and ``unit_width``
    per unit."""
    return max(_SPLIT_MACS // max(1, unit_macs) + 1, -(-2 // unit_width))


def _pad_hw(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x


def _taps(x, kh, kw, stride, padding, ho, wo):
    """Yield (u, v, view): the (b, c, ho, wo) inputs that kernel tap (u, v) multiplies."""
    x = _pad_hw(x, padding)
    for u in range(kh):
        for v in range(kw):
            yield u, v, x[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride]


def _image_cols(x, kh, kw, stride, padding, ho, wo):
    """(b, C*kh*kw, ho*wo) columns of a chunk of images, rows in (c, u, v) order."""
    b, c = x.shape[:2]
    cols = np.empty((b, c, kh, kw, ho, wo), dtype=x.dtype)
    for u, v, tap in _taps(x, kh, kw, stride, padding, ho, wo):
        cols[:, :, u, v] = tap
    return cols.reshape(b, c * kh * kw, ho * wo)


def _channel_cols(x, kh, kw, stride, padding, ho, wo):
    """(C*kh*kw, B*ho*wo) columns of a chunk of channels across the batch,
    rows in (c, u, v) order and columns in (b, i, j) order."""
    b, c = x.shape[:2]
    cols = np.empty((c, kh, kw, b, ho, wo), dtype=x.dtype)
    for u, v, tap in _taps(x, kh, kw, stride, padding, ho, wo):
        cols[:, u, v] = tap.transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, b * ho * wo)


def _col2im(cols, x_shape, kh, kw, stride, padding):
    """Sum (b, C*kh*kw, ho*wo) columns back onto the (b, C, H, W) inputs they came from."""
    _, c, h, wd = x_shape
    b, ho, wo = cols.shape[0], *_conv_out_hw(h, wd, kh, kw, stride, padding)
    cols = cols.reshape(b, c, kh, kw, ho, wo)
    gxp = np.zeros((b, c, h + 2 * padding, wd + 2 * padding), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += cols[:, :, u, v]
    return gxp[:, :, padding:padding + h, padding:padding + wd]


def _pointwise(kh, kw, stride, padding):
    """Whether a conv can run one GEMM per image on the input as it lies:
    kernel 1, stride 1 and no padding, where the columns would copy the
    image. Those are the column path's GEMMs, or, for an image above the
    tile, GEMMs whose bits its bands and chunks keep."""
    return kh == kw == stride == 1 and padding == 0


def _conv2d_core(x, w, stride, padding):
    b, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho, wo = _conv_out_hw(h, wd, kh, kw, stride, padding)
    w2 = w.reshape(o, c * kh * kw)
    out = np.empty((b, o, ho, wo), dtype=np.result_type(x, w))
    if _pointwise(kh, kw, stride, padding):
        np.matmul(w2, np.ascontiguousarray(x).reshape(b, c, h * wd), out=out.reshape(b, o, ho * wo))
        return out
    row_bytes = w2.shape[1] * wo * x.itemsize
    least = _least_units(o * w2.shape[1] * wo, wo)
    for imgs in _chunks(b, ho * row_bytes, COLUMN_BYTES):
        n, xp = imgs.stop - imgs.start, _pad_hw(x[imgs], padding)
        for rows in _chunks(ho, n * row_bytes, COLUMN_BYTES, least):  # one band if the images fit
            m = rows.stop - rows.start
            band = xp[:, :, rows.start * stride:(rows.stop - 1) * stride + kh]
            np.matmul(w2, _image_cols(band, kh, kw, stride, 0, m, wo),
                      out=out[imgs, :, rows].reshape(n, o, m * wo))
    return out


def _conv2d_grad_x(gy, w, stride, padding, x_shape):
    """The adjoint in x: the gradient of an input of ``x_shape``."""
    b, c = x_shape[:2]
    o, _, kh, kw = w.shape
    k, ho, wo = kh * kw, gy.shape[2], gy.shape[3]
    w2t = w.reshape(o, c * k).T
    g2 = gy.reshape(b, o, ho * wo)
    gx = np.empty(x_shape, dtype=np.result_type(gy, w))
    if _pointwise(kh, kw, stride, padding):
        np.matmul(w2t, g2, out=gx.reshape(b, c, ho * wo))
        return gx
    channel_bytes = k * ho * wo * gx.itemsize
    least = _least_units(k * ho * wo * o, k)
    for imgs in _chunks(b, c * channel_bytes, COLUMN_BYTES):
        n = imgs.stop - imgs.start
        for chans in _chunks(c, n * channel_bytes, COLUMN_BYTES, least):  # one chunk if the images fit
            dst = gx[imgs, chans]
            cols = np.matmul(w2t[chans.start * k:chans.stop * k], g2[imgs])
            dst[...] = _col2im(cols, dst.shape, kh, kw, stride, padding)
    return gx


def _conv2d_grad_w(x, gy, stride, padding, w_shape):
    """The adjoint in w."""
    o, c, kh, kw = w_shape
    b, ho, wo = gy.shape[0], gy.shape[2], gy.shape[3]
    g2 = gy.transpose(0, 2, 3, 1).reshape(b * ho * wo, o)
    gw = np.empty((c, kh, kw, o), dtype=np.result_type(x, gy))
    unit = kh * kw * b * ho * wo
    for part in _chunks(c, unit * x.itemsize, COLUMN_BYTES, _least_units(unit * o, kh * kw)):
        np.matmul(_channel_cols(x[:, part], kh, kw, stride, padding, ho, wo), g2,
                  out=gw[part].reshape(-1, o))
    return gw.transpose(3, 0, 1, 2)


def _conv2d_fwd(datas, attrs):
    x, w = datas
    if x.ndim != 4 or w.ndim != 4:
        raise _shape_err("conv2d", "input must be (B,C,H,W), kernel (O,C,kh,kw)", x.shape, w.shape)
    if x.shape[1] != w.shape[1]:
        raise _shape_err("conv2d", "channel mismatch", x.shape, w.shape)
    s, p = _stride_padding("conv2d", attrs, x.shape, w.shape)
    if x.shape[2] + 2 * p < w.shape[2] or x.shape[3] + 2 * p < w.shape[3]:
        raise _shape_err("conv2d", f"kernel larger than input padded by {p}", x.shape, w.shape)
    return _conv2d_core(x, w, s, p), None


def _conv2d_bwd(datas, attrs, ctx, g, needs):
    """The rule owns ``datas``: it reads the input for the kernel's gradient,
    then drops it before it allocates the input's gradient."""
    w, s, p = datas[1], attrs.get("stride", 1), attrs.get("padding", 0)
    x_shape = datas[0].shape
    g = _flush_subnormals(g)
    gw = _flush_subnormals(_conv2d_grad_w(datas[0], g, s, p, w.shape)) if needs[1] else None
    datas[0] = None
    gx = _flush_subnormals(_conv2d_grad_x(g, w, s, p, x_shape)) if needs[0] else None
    return gx, gw


def _convt_out_hw(x, w, s, p, out):
    kh, kw = w.shape[2], w.shape[3]
    base_h = (x.shape[2] - 1) * s - 2 * p + kh
    base_w = (x.shape[3] - 1) * s - 2 * p + kw
    if out is None:
        return base_h, base_w
    oh, ow = out
    if not (base_h <= oh < base_h + s and base_w <= ow < base_w + s):
        raise _shape_err("conv_transpose2d", f"output_size {out} inconsistent with stride/kernel", x.shape, w.shape)
    return oh, ow


def _conv_transpose2d_fwd(datas, attrs):
    x, w = datas
    if x.ndim != 4 or w.ndim != 4:
        raise _shape_err("conv_transpose2d", "input must be (B,C,H,W), kernel (C,O,kh,kw)", x.shape, w.shape)
    if x.shape[1] != w.shape[0]:
        raise _shape_err("conv_transpose2d", "channel mismatch", x.shape, w.shape)
    s, p = _stride_padding("conv_transpose2d", attrs, x.shape, w.shape)
    oh, ow = _convt_out_hw(x, w, s, p, attrs.get("output_size"))
    out_shape = (x.shape[0], w.shape[1], oh, ow)
    return _conv2d_grad_x(x, w, s, p, out_shape), None


def _conv_transpose2d_bwd(datas, attrs, ctx, g, needs):
    x, w = datas
    s, p = attrs.get("stride", 1), attrs.get("padding", 0)
    g = _flush_subnormals(g)
    gw = _conv2d_grad_w(g, x, s, p, w.shape) if needs[1] else None
    gx = _conv2d_core(g, w, s, p) if needs[0] else None
    return _flush_subnormals(gx), _flush_subnormals(gw)


# ---------------------------------------------------------------------------
# resampling / padding / pooling


def _interp_matrix(n_in, n_out, dtype):
    """Separable bilinear weights (half-pixel centers, clamped edges)."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    if n_in == 1:
        m[:, 0] = 1.0
        return m
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    for o in range(n_out):
        m[o, i0[o]] += 1.0 - frac[o]
        m[o, i1[o]] += frac[o]
    return m


def _bilinear_resize_fwd(datas, attrs):
    x = datas[0]
    if x.ndim != 4:
        raise _shape_err("bilinear_resize", "input must be (B,C,H,W)", x.shape)
    oh, ow = attrs["out_h"], attrs["out_w"]
    if oh < 1 or ow < 1:
        raise _shape_err("bilinear_resize", f"invalid target ({oh},{ow})", x.shape)
    ah = _interp_matrix(x.shape[2], oh, x.dtype)
    aw = _interp_matrix(x.shape[3], ow, x.dtype)
    tmp = np.einsum("oh,bchw->bcow", ah, x, optimize=True)
    return np.einsum("bcow,pw->bcop", tmp, aw, optimize=True), (ah, aw)


def _bilinear_resize_bwd(datas, attrs, ctx, g, needs):
    ah, aw = ctx
    tmp = np.einsum("oh,bcop->bchp", ah, g, optimize=True)
    return (np.einsum("bchp,pw->bchw", tmp, aw, optimize=True),)


def _reflect_pad2d_fwd(datas, attrs):
    x = datas[0]
    if x.ndim != 4:
        raise _shape_err("reflect_pad2d", "input must be (B,C,H,W)", x.shape)
    ph, pw = attrs["pad_h"], attrs["pad_w"]
    if ph < 0 or pw < 0:
        raise _shape_err("reflect_pad2d", f"negative padding ({ph},{pw})", x.shape)
    if ph > x.shape[2] - 1 or pw > x.shape[3] - 1:
        raise _shape_err("reflect_pad2d", f"padding ({ph},{pw}) needs at least pad+1 extent", x.shape)
    idx_h = np.pad(np.arange(x.shape[2]), ph, mode="reflect")
    idx_w = np.pad(np.arange(x.shape[3]), pw, mode="reflect")
    return x[:, :, idx_h[:, None], idx_w[None, :]], (idx_h, idx_w)


def _reflect_pad2d_bwd(datas, attrs, ctx, g, needs):
    idx_h, idx_w = ctx
    gx = np.zeros_like(datas[0])
    np.add.at(gx, (slice(None), slice(None), idx_h[:, None], idx_w[None, :]), g)
    return (gx,)


def _pool_check(op, x, k, s):
    if x.ndim != 4:
        raise _shape_err(op, "input must be (B,C,H,W)", x.shape)
    if x.shape[2] < k or x.shape[3] < k:
        raise _shape_err(op, f"kernel {k} larger than input", x.shape)


def _avg_pool2d_fwd(datas, attrs):
    x = datas[0]
    k, s = attrs["kernel"], attrs.get("stride", attrs["kernel"])
    _pool_check("avg_pool2d", x, k, s)
    win = _conv_windows(x, k, s)
    return win.mean(axis=(-2, -1)), None


def _avg_pool2d_bwd(datas, attrs, ctx, g, needs):
    x = datas[0]
    k, s = attrs["kernel"], attrs.get("stride", attrs["kernel"])
    ho, wo = g.shape[2], g.shape[3]
    gx = np.zeros_like(x)
    piece = g / (k * k)
    for u in range(k):
        for v in range(k):
            gx[:, :, u:u + ho * s:s, v:v + wo * s:s] += piece
    return (gx,)


def _max_pool2d_fwd(datas, attrs):
    x = datas[0]
    k, s = attrs["kernel"], attrs.get("stride", attrs["kernel"])
    _pool_check("max_pool2d", x, k, s)
    win = _conv_windows(x, k, s)
    b, c, ho, wo = win.shape[:4]
    flat = win.reshape(b, c, ho, wo, k * k)
    arg = flat.argmax(axis=-1)
    return flat.max(axis=-1), arg


def _max_pool2d_bwd(datas, attrs, ctx, g, needs):
    x = datas[0]
    k, s = attrs["kernel"], attrs.get("stride", attrs["kernel"])
    arg = ctx
    b, c, ho, wo = g.shape
    u, v = np.divmod(arg, k)
    bi, ci, ii, ji = np.indices((b, c, ho, wo), sparse=False)
    gx = np.zeros_like(x)
    np.add.at(gx, (bi, ci, ii * s + u, ji * s + v), g)
    return (gx,)


def _adaptive_bins(n_in, n_out):
    starts = (np.arange(n_out) * n_in) // n_out
    ends = -(-(np.arange(1, n_out + 1) * n_in) // n_out)  # ceil division
    return starts, ends


def _adaptive_avg_pool2d_fwd(datas, attrs):
    x = datas[0]
    if x.ndim != 4:
        raise _shape_err("adaptive_avg_pool2d", "input must be (B,C,H,W)", x.shape)
    oh, ow = attrs["out_h"], attrs["out_w"]
    hs, he = _adaptive_bins(x.shape[2], oh)
    ws, we = _adaptive_bins(x.shape[3], ow)
    out = np.empty(x.shape[:2] + (oh, ow), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = x[:, :, hs[i]:he[i], ws[j]:we[j]].mean(axis=(2, 3))
    return out, (hs, he, ws, we)


def _adaptive_avg_pool2d_bwd(datas, attrs, ctx, g, needs):
    hs, he, ws, we = ctx
    gx = np.zeros_like(datas[0])
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            area = (he[i] - hs[i]) * (we[j] - ws[j])
            gx[:, :, hs[i]:he[i], ws[j]:we[j]] += g[:, :, i:i + 1, j:j + 1] / area
    return (gx,)


def _dropout_fwd(datas, attrs):
    x = datas[0]
    p = attrs["p"]
    if not 0.0 <= p < 1.0:
        raise _shape_err("dropout", f"p={p} outside [0, 1)", x.shape)
    rng = np.random.Generator(np.random.PCG64(attrs["seed"]))
    mask = (rng.random(x.shape) >= p).astype(x.dtype)
    keep = 1.0 - p
    return x * mask / keep, (mask, keep)


def _dropout_bwd(datas, attrs, ctx, g, needs):
    mask, keep = ctx
    return (g * mask / keep,)


_register("add", _broadcasting("add", np.add), _add_bwd, _reads_none, linear=True)
_register("sub", _broadcasting("sub", np.subtract), _sub_bwd, _reads_none, linear=True)
_register("mul", _broadcasting("mul", np.multiply), _mul_bwd, _reads_other, linear=True)
_register("neg", _neg_fwd, _neg_bwd, _reads_none, linear=True)
_register("scale", _scale_fwd, _scale_bwd, _reads_none, linear=True)
_register("reshape", _reshape_fwd, _reshape_bwd, _reads_none, linear=True)
_register("transpose", _transpose_fwd, _transpose_bwd, _reads_none, linear=True)
_register("slice", _slice_fwd, _slice_bwd, _reads_none, linear=True)
_register("concat", _concat_fwd, _concat_bwd, _reads_none, linear=True)
_register("sum", _sum_fwd, _sum_bwd, _reads_none, linear=True)
_register("mean", _mean_fwd, _mean_bwd, _reads_none, linear=True)
_register("matmul", _matmul_fwd, _matmul_bwd, _reads_other, linear=True)
_register("gelu", _gelu_fwd, _gelu_bwd, _reads_none)
_register("relu", _relu_fwd, _relu_bwd, _reads_all)
_register("softmax", _softmax_fwd, _softmax_bwd, _reads_none)
_register("log_softmax", _log_softmax_fwd, _log_softmax_bwd, _reads_none)
_register("layer_norm", _layer_norm_fwd, _layer_norm_bwd, _reads_gamma)
_register("batch_norm2d", _batch_norm2d_fwd, _batch_norm2d_bwd, _reads_affine)
_register("conv2d", _conv2d_fwd, _conv2d_bwd, _reads_other, linear=True)
_register("conv_transpose2d", _conv_transpose2d_fwd, _conv_transpose2d_bwd, _reads_other, linear=True)
_register("bilinear_resize", _bilinear_resize_fwd, _bilinear_resize_bwd, _reads_none, linear=True)
_register("reflect_pad2d", _reflect_pad2d_fwd, _reflect_pad2d_bwd, _reads_none, linear=True)
_register("avg_pool2d", _avg_pool2d_fwd, _avg_pool2d_bwd, _reads_none, linear=True)
_register("max_pool2d", _max_pool2d_fwd, _max_pool2d_bwd, _reads_none)
_register("adaptive_avg_pool2d", _adaptive_avg_pool2d_fwd, _adaptive_avg_pool2d_bwd, _reads_none, linear=True)
_register("dropout", _dropout_fwd, _dropout_bwd, _reads_none)
