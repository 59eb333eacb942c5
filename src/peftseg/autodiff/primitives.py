"""Primitive registry: forward kernels and their backward rules.

Every primitive is pure and deterministic: reductions run in fixed row-major
order, scatter accumulation uses sequential slice adds, and no kernel reads
global state (dropout takes its seed as an attribute). Kernels follow numpy
promotion, so float64 inputs flow through float32 parameters unchanged; the
training path is float32 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf

from ..errors import ShapeError, UnknownPrimitiveError
from .tensor import Node, Tensor, grad_enabled

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


@dataclass(frozen=True)
class Primitive:
    forward: Callable
    backward: Callable
    linear: bool  # affine in each input with the others held fixed


_REGISTRY: dict[str, Primitive] = {}


def _register(op_id: str, forward, backward, linear: bool = False):
    _REGISTRY[op_id] = Primitive(forward, backward, linear)


def registered_primitives() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def is_linear_primitive(op_id: str) -> bool:
    return _REGISTRY[op_id].linear


def apply_primitive(op_id: str, inputs, attrs: dict | None = None) -> Tensor:
    """Apply a registered primitive and record a tape node when needed."""
    try:
        prim = _REGISTRY[op_id]
    except KeyError:
        raise UnknownPrimitiveError(f"unknown primitive {op_id!r}") from None
    attrs = {} if attrs is None else attrs
    inputs = list(inputs)
    datas = [t.data for t in inputs]
    out_data, ctx = prim.forward(datas, attrs)

    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(out_data)
    out.requires_grad = False
    out.grad = None
    out.node = None

    if grad_enabled():
        needs = tuple(t.requires_grad or t.node is not None for t in inputs)
        if any(needs):
            def backward_fn(gout, needs, _prim=prim, _datas=datas, _attrs=attrs, _ctx=ctx):
                return _prim.backward(_datas, _attrs, _ctx, gout, needs)

            out.node = Node(op_id, tuple(inputs), out, backward_fn, needs)
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


def _add_fwd(datas, attrs):
    a, b = datas
    try:
        return a + b, None
    except ValueError:
        raise _shape_err("add", "operands are not broadcastable", a.shape, b.shape)


def _add_bwd(datas, attrs, ctx, g, needs):
    a, b = datas
    return (_unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None)


def _sub_fwd(datas, attrs):
    a, b = datas
    try:
        return a - b, None
    except ValueError:
        raise _shape_err("sub", "operands are not broadcastable", a.shape, b.shape)


def _sub_bwd(datas, attrs, ctx, g, needs):
    a, b = datas
    return (_unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(-g, b.shape) if needs[1] else None)


def _mul_fwd(datas, attrs):
    a, b = datas
    try:
        return a * b, None
    except ValueError:
        raise _shape_err("mul", "operands are not broadcastable", a.shape, b.shape)


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
    a, b = datas
    if a.ndim < 2 or b.ndim < 2:
        raise _shape_err("matmul", "operands must have rank >= 2", a.shape, b.shape)
    if attrs.get("transpose_b", False):
        b = np.swapaxes(b, -1, -2)
    try:
        return np.matmul(a, b), None
    except ValueError:
        raise _shape_err("matmul", "inner or batch dimensions mismatch", a.shape, datas[1].shape)


def _matmul_bwd(datas, attrs, ctx, g, needs):
    a, b = datas
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
    return ga, gb


# ---------------------------------------------------------------------------
# activations / normalization


def _gelu_fwd(datas, attrs):
    x = datas[0]
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2)), None


def _gelu_bwd(datas, attrs, ctx, g, needs):
    x = datas[0]
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return (g * (cdf + x * pdf),)


def _relu_fwd(datas, attrs):
    return np.maximum(datas[0], 0), None


def _relu_bwd(datas, attrs, ctx, g, needs):
    return (g * (datas[0] > 0),)


def _softmax_fwd(datas, attrs):
    x = datas[0]
    axis = attrs.get("axis", -1)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, y


def _softmax_bwd(datas, attrs, ctx, g, needs):
    y = ctx
    axis = attrs.get("axis", -1)
    return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)


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


def _layer_norm_fwd(datas, attrs):
    x, gamma, beta = datas
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise _shape_err("layer_norm", "gamma/beta must match last axis", x.shape, gamma.shape, beta.shape)
    eps = attrs.get("eps", 1e-5)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, (xhat, inv)


def _layer_norm_bwd(datas, attrs, ctx, g, needs):
    x, gamma, beta = datas
    xhat, inv = ctx
    gx = ggamma = gbeta = None
    if needs[0]:
        dxhat = g * gamma
        gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    if needs[1]:
        red = tuple(range(x.ndim - 1))
        ggamma = (g * xhat).sum(axis=red)
    if needs[2]:
        red = tuple(range(x.ndim - 1))
        gbeta = g.sum(axis=red)
    return gx, ggamma, gbeta


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
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv
    else:
        inv = (1.0 / np.sqrt(rvar + eps)).reshape(1, c, 1, 1)
        xhat = (x - rmean.reshape(1, c, 1, 1)) * inv
    y = xhat * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)
    return y, (xhat, inv)


def _batch_norm2d_bwd(datas, attrs, ctx, g, needs):
    x, gamma = datas[0], datas[1]
    xhat, inv = ctx
    c = x.shape[1]
    gx = ggamma = gbeta = None
    if needs[0]:
        dxhat = g * gamma.reshape(1, c, 1, 1)
        if attrs.get("training", True):
            gx = inv * (dxhat - dxhat.mean(axis=(0, 2, 3), keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True))
        else:
            gx = dxhat * inv
    if needs[1]:
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
    if needs[2]:
        gbeta = g.sum(axis=(0, 2, 3))
    return gx, ggamma, gbeta, None, None


# ---------------------------------------------------------------------------
# convolution cores
#
# _conv_windows extracts strided sliding windows; the three cores below are
# the forward map, its adjoint in x, and its adjoint in w. conv_transpose2d
# reuses the adjoint as its forward, which makes the conv/conv-transpose
# adjoint identity hold by construction.
#
# Both conv backward rules flush float32 subnormals to zero in the upstream
# gradient and in what they return. A softmax-times-1/pixels gradient can
# underflow into the subnormal range, and a GEMM that touches subnormals runs
# on a slow microcode path, up to 25x slower. The flush changes values by less
# than float32's smallest normal; float64 arrays, NaN and inf pass unchanged.

_F32_TINY = np.finfo(np.float32).tiny


def _flush_subnormals(a):
    """``a`` with float32 subnormals replaced by zero (``a`` itself if it has none)."""
    if a is None or a.dtype != np.float32:
        return a
    mag = np.abs(a)
    sub = (mag < _F32_TINY) & (mag > 0)
    return np.where(sub, np.float32(0), a) if sub.any() else a


def _conv_windows(x, kh, kw, stride, padding):
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    if x.shape[2] < kh or x.shape[3] < kw:
        raise ShapeError(f"conv2d: kernel ({kh},{kw}) larger than padded input {x.shape}")
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _conv2d_core(x, w, stride, padding):
    win = _conv_windows(x, w.shape[2], w.shape[3], stride, padding)
    return np.einsum("bcijuv,ocuv->boij", win, w, optimize=True)


def _conv2d_grad_x(gy, w, stride, padding, x_shape):
    b, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    ho, wo = gy.shape[2], gy.shape[3]
    contrib = np.einsum("boij,ocuv->bcijuv", gy, w, optimize=True)
    gxp = np.zeros((b, c, h + 2 * padding, wd + 2 * padding), dtype=contrib.dtype)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += contrib[:, :, :, :, u, v]
    if padding:
        gxp = gxp[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(gxp)


def _conv2d_grad_w(x, gy, stride, padding, w_shape):
    win = _conv_windows(x, w_shape[2], w_shape[3], stride, padding)
    return np.einsum("bcijuv,boij->ocuv", win, gy, optimize=True)


def _conv2d_fwd(datas, attrs):
    x, w = datas
    if x.ndim != 4 or w.ndim != 4:
        raise _shape_err("conv2d", "input must be (B,C,H,W), kernel (O,C,kh,kw)", x.shape, w.shape)
    if x.shape[1] != w.shape[1]:
        raise _shape_err("conv2d", "channel mismatch", x.shape, w.shape)
    return _conv2d_core(x, w, attrs.get("stride", 1), attrs.get("padding", 0)), None


def _conv2d_bwd(datas, attrs, ctx, g, needs):
    x, w = datas
    s, p = attrs.get("stride", 1), attrs.get("padding", 0)
    g = _flush_subnormals(g)
    gx = _conv2d_grad_x(g, w, s, p, x.shape) if needs[0] else None
    gw = _conv2d_grad_w(x, g, s, p, w.shape) if needs[1] else None
    return _flush_subnormals(gx), _flush_subnormals(gw)


def _convt_out_hw(x, w, attrs):
    s, p = attrs.get("stride", 1), attrs.get("padding", 0)
    kh, kw = w.shape[2], w.shape[3]
    base_h = (x.shape[2] - 1) * s - 2 * p + kh
    base_w = (x.shape[3] - 1) * s - 2 * p + kw
    out = attrs.get("output_size")
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
    s, p = attrs.get("stride", 1), attrs.get("padding", 0)
    oh, ow = _convt_out_hw(x, w, attrs)
    out_shape = (x.shape[0], w.shape[1], oh, ow)
    return _conv2d_grad_x(x, w, s, p, out_shape), None


def _conv_transpose2d_bwd(datas, attrs, ctx, g, needs):
    x, w = datas
    s, p = attrs.get("stride", 1), attrs.get("padding", 0)
    g = _flush_subnormals(g)
    gx = _conv2d_core(g, w, s, p) if needs[0] else None
    gw = _conv2d_grad_w(g, x, s, p, w.shape) if needs[1] else None
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
    win = _conv_windows(x, k, k, s, 0)
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
    win = _conv_windows(x, k, k, s, 0)
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


_register("add", _add_fwd, _add_bwd, linear=True)
_register("sub", _sub_fwd, _sub_bwd, linear=True)
_register("mul", _mul_fwd, _mul_bwd, linear=True)
_register("neg", _neg_fwd, _neg_bwd, linear=True)
_register("scale", _scale_fwd, _scale_bwd, linear=True)
_register("reshape", _reshape_fwd, _reshape_bwd, linear=True)
_register("transpose", _transpose_fwd, _transpose_bwd, linear=True)
_register("slice", _slice_fwd, _slice_bwd, linear=True)
_register("concat", _concat_fwd, _concat_bwd, linear=True)
_register("sum", _sum_fwd, _sum_bwd, linear=True)
_register("mean", _mean_fwd, _mean_bwd, linear=True)
_register("matmul", _matmul_fwd, _matmul_bwd, linear=True)
_register("gelu", _gelu_fwd, _gelu_bwd)
_register("relu", _relu_fwd, _relu_bwd)
_register("softmax", _softmax_fwd, _softmax_bwd)
_register("log_softmax", _log_softmax_fwd, _log_softmax_bwd)
_register("layer_norm", _layer_norm_fwd, _layer_norm_bwd)
_register("batch_norm2d", _batch_norm2d_fwd, _batch_norm2d_bwd)
_register("conv2d", _conv2d_fwd, _conv2d_bwd, linear=True)
_register("conv_transpose2d", _conv_transpose2d_fwd, _conv_transpose2d_bwd, linear=True)
_register("bilinear_resize", _bilinear_resize_fwd, _bilinear_resize_bwd, linear=True)
_register("reflect_pad2d", _reflect_pad2d_fwd, _reflect_pad2d_bwd, linear=True)
_register("avg_pool2d", _avg_pool2d_fwd, _avg_pool2d_bwd, linear=True)
_register("max_pool2d", _max_pool2d_fwd, _max_pool2d_bwd)
_register("adaptive_avg_pool2d", _adaptive_avg_pool2d_fwd, _adaptive_avg_pool2d_bwd, linear=True)
_register("dropout", _dropout_fwd, _dropout_bwd)
