"""Ergonomic wrappers over ``apply_primitive`` plus composite operations.

Attention and the segmentation loss are compositions of primitives rather
than fused kernels; every edge they create carries a registered backward
rule, so gradient checking covers them for free. Attention hands its 1/sqrt(d)
scale to ``softmax`` as its ``alpha``, which saves a (..., T, T) array and a
tape node per call and gives the bytes of a separate ``scale``. A linear
layer is one ``matmul`` node: the bias, and any addend such as a LoRA
layer's base output, are trailing inputs that the node adds into its own
output in place, with the bits and the gradients of separate ``add`` nodes.
A convolution takes one input; a caller convolving a channel concatenation
builds it with ``concat`` first. A convolution of bilinearly resized blocks
(``resized_conv2d``) never builds the resized maps: it runs the kernel's
taps as 1x1 convs at each block's own extent and resizes their outputs with
two constant ``matmul``s per kernel column, which cost a fraction of the
full-extent conv's multiply-adds when the block is upsampled.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .primitives import _interp_matrix, apply_primitive
from .tensor import Tensor


def add(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("add", [a, b])


def sub(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("sub", [a, b])


def mul(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("mul", [a, b])


def neg(a: Tensor) -> Tensor:
    return apply_primitive("neg", [a])


def scale(a: Tensor, alpha: float) -> Tensor:
    return apply_primitive("scale", [a], {"alpha": float(alpha)})


def matmul(a: Tensor, b: Tensor, *addends: Tensor, transpose_b: bool = False) -> Tensor:
    """a @ b (a @ b^T with ``transpose_b``) plus each addend, in order, in one node."""
    return apply_primitive("matmul", [a, b, *addends], {"transpose_b": transpose_b})


def reshape(a: Tensor, shape) -> Tensor:
    return apply_primitive("reshape", [a], {"shape": tuple(int(s) for s in shape)})


def transpose(a: Tensor, axes) -> Tensor:
    return apply_primitive("transpose", [a], {"axes": tuple(axes)})


def slice_ranges(a: Tensor, ranges) -> Tensor:
    """Slice with a per-axis tuple of (start, stop) or None for the full axis."""
    return apply_primitive("slice", [a], {"ranges": tuple(ranges)})


def concat(tensors, axis: int) -> Tensor:
    return apply_primitive("concat", list(tensors), {"axis": axis})


def sum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    return apply_primitive("sum", [a], {"axes": axes, "keepdims": keepdims})


def mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    return apply_primitive("mean", [a], {"axes": axes, "keepdims": keepdims})


def gelu(a: Tensor) -> Tensor:
    return apply_primitive("gelu", [a])


def relu(a: Tensor) -> Tensor:
    return apply_primitive("relu", [a])


def softmax(a: Tensor, axis: int = -1, alpha: float = 1.0) -> Tensor:
    """softmax(alpha * a) along ``axis``."""
    return apply_primitive("softmax", [a], {"axis": axis, "alpha": float(alpha)})


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return apply_primitive("log_softmax", [a], {"axis": axis})


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    return apply_primitive("layer_norm", [x, gamma, beta], {"eps": eps})


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                 running_var: Tensor, training: bool, eps: float = 1e-5,
                 relu: bool = False) -> Tensor:
    """Batch norm; with ``relu`` it is followed by a ReLU in the same node."""
    return apply_primitive("batch_norm2d", [x, gamma, beta, running_mean, running_var],
                           {"eps": eps, "training": training, "relu": relu})


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    y = apply_primitive("conv2d", [x, w], {"stride": stride, "padding": padding})
    if bias is not None:
        y = add(y, reshape(bias, (1, bias.shape[0], 1, 1)))
    return y


def _shifted_interp(n_in: int, n_out: int, k: int, padding: int, dtype) -> np.ndarray:
    """(k, n_out + 2*padding - k + 1, n_in): the bilinear weights of the rows a
    k-tap kernel reads from the resized, zero-padded axis, one matrix per tap."""
    padded = np.zeros((n_out + 2 * padding, n_in), dtype=dtype)
    padded[padding:padding + n_out] = _interp_matrix(n_in, n_out, dtype)
    m = n_out + 2 * padding - k + 1
    return np.stack([padded[u:u + m] for u in range(k)])


def resized_conv2d(x, w: Tensor, out_h: int, out_w: int, bias: Tensor | None = None,
                   padding: int = 0) -> Tensor:
    """``conv2d`` at stride 1 of ``x``, a tensor or a list of channel blocks,
    each bilinearly resized to (out_h, out_w), without building a resized map.

    A block already at that extent, where the resize is the identity, goes
    through ``conv2d`` on its slice of ``w``. For any other block the conv of
    its resized map is ``sum_{u,v} Bh_u (w[:, :, u, v] . x) Bw_v^T``, where
    ``Bh_u`` and ``Bw_v`` are the interpolation matrices shifted by tap (u, v),
    zero where the tap reads padding. Each kernel column v runs as a 1x1 conv
    at the block's extent, with channels in (o, u) order, then one ``matmul``
    against the constant (Ho, kh*h) stack of the ``Bh_u`` and one against
    ``Bw_v^T``. That last ``matmul`` adds the sum so far and, once, the bias as
    addends, so no ``add`` builds a second full-size output, and one column's
    taps are alive at a time.
    """
    blocks = [x] if isinstance(x, Tensor) else list(x)
    shapes = [b.shape for b in blocks]
    if not blocks or w.ndim != 4 or any(len(s) != 4 for s in shapes):
        raise ShapeError(f"resized_conv2d: input blocks {shapes} and kernel {w.shape} "
                         "are not (B,C,h,w) and (O,C,kh,kw)")
    o, c, kh, kw = w.shape
    starts = np.cumsum([0] + [s[1] for s in shapes])
    if starts[-1] != c:
        raise ShapeError(f"resized_conv2d: channel mismatch (shapes {shapes}, {w.shape})")
    if min(out_h, out_w) < 1 or min(out_h + 2 * padding - kh, out_w + 2 * padding - kw) < 0:
        raise ShapeError(f"resized_conv2d: no output for kernel {w.shape} on ({out_h},{out_w}) "
                         f"padded by {padding}")
    bias = None if bias is None else reshape(bias, (1, o, 1, 1))
    y = None
    # blocks at the output's extent first: their conv starts the sum
    for i in sorted(range(len(blocks)), key=lambda j: shapes[j][2:] != (out_h, out_w)):
        (bsz, n, h, wd), lo = shapes[i], int(starts[i])
        piece = w if n == c else slice_ranges(w, (None, (lo, lo + n), None, None))
        if (h, wd) == (out_h, out_w):
            direct = conv2d(blocks[i], piece, padding=padding)
            y = direct if y is None else add(y, direct)
            del direct  # only the sum holds it now
            continue
        rows = _shifted_interp(h, out_h, kh, padding, blocks[i].dtype)  # (kh, Ho, h)
        cols = _shifted_interp(wd, out_w, kw, padding, blocks[i].dtype)  # (kw, Wo, w)
        bh = Tensor(rows.transpose(1, 0, 2).reshape(rows.shape[1], kh * h))
        columns = transpose(piece, (3, 0, 2, 1))  # (kw, O, kh, C)
        for v in range(kw):
            wv = reshape(slice_ranges(columns, ((v, v + 1), None, None, None)), (o * kh, n, 1, 1))
            taps = reshape(conv2d(blocks[i], wv), (bsz, o, kh * h, wd))
            # nested, so the (B, O, Ho, w) product and the old sum die with the call
            y = matmul(matmul(bh, taps), Tensor(np.ascontiguousarray(cols[v].T)),
                       *(t for t in (y, bias) if t is not None))
            bias = None
    return y if bias is None else add(y, bias)


def conv_transpose2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1,
                     padding: int = 0, output_size=None) -> Tensor:
    attrs = {"stride": stride, "padding": padding}
    if output_size is not None:
        attrs["output_size"] = tuple(output_size)
    y = apply_primitive("conv_transpose2d", [x, w], attrs)
    if bias is not None:
        y = add(y, reshape(bias, (1, bias.shape[0], 1, 1)))
    return y


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    return apply_primitive("bilinear_resize", [x], {"out_h": int(out_h), "out_w": int(out_w)})


def reflect_pad2d(x: Tensor, pad_h: int, pad_w: int) -> Tensor:
    return apply_primitive("reflect_pad2d", [x], {"pad_h": int(pad_h), "pad_w": int(pad_w)})


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    return apply_primitive("avg_pool2d", [x], {"kernel": kernel, "stride": stride or kernel})


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    return apply_primitive("max_pool2d", [x], {"kernel": kernel, "stride": stride or kernel})


def adaptive_avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    return apply_primitive("adaptive_avg_pool2d", [x], {"out_h": int(out_h), "out_w": int(out_w)})


def dropout(x: Tensor, p: float, seed: int) -> Tensor:
    return apply_primitive("dropout", [x], {"p": float(p), "seed": int(seed)})


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map with a (d_out, d_in) weight: x @ W^T + b, one ``matmul`` node."""
    addends = () if bias is None else (bias,)
    return matmul(x, weight, *addends, transpose_b=True)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention over (..., T, head_dim) operands."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: head dims differ ({q.shape} vs {k.shape})")
    # the scores are a temporary, so they are freed once the softmax has read them
    probs = softmax(matmul(q, k, transpose_b=True), axis=-1, alpha=1.0 / np.sqrt(q.shape[-1]))
    return matmul(probs, v)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean pixel-wise cross-entropy with an ignore label.

    ``logits`` is (B, K, H, W) or (N, K); ``targets`` holds integer class ids
    of the matching spatial shape. Ignored positions contribute neither to the
    loss nor to its gradient.
    """
    targets = np.asarray(targets)
    if logits.ndim == 4:
        b, k, h, w = logits.shape
        if targets.shape != (b, h, w):
            raise ShapeError(f"cross_entropy: targets {targets.shape} do not match logits {logits.shape}")
        class_axis = 1
    elif logits.ndim == 2:
        n, k = logits.shape
        if targets.shape != (n,):
            raise ShapeError(f"cross_entropy: targets {targets.shape} do not match logits {logits.shape}")
        class_axis = 1
    else:
        raise ShapeError(f"cross_entropy: logits must be rank 2 or 4, got {logits.shape}")

    valid = targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ShapeError("cross_entropy: every target position is ignored")
    if targets[valid].min() < 0 or targets[valid].max() >= k:
        raise ShapeError(f"cross_entropy: target ids outside [0, {k})")

    safe = np.where(valid, targets, 0)
    classes = np.arange(k).reshape((1, k) + (1,) * (targets.ndim - 1))
    onehot = (safe[:, None] == classes) & valid[:, None]

    logp = log_softmax(logits, axis=class_axis)
    picked = mul(logp, Tensor(onehot, dtype=logits.dtype))
    return scale(sum(picked), -1.0 / n_valid)
