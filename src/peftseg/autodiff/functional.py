"""Ergonomic wrappers over ``apply_primitive`` plus composite operations.

Attention and the segmentation loss are compositions of primitives rather
than fused kernels; every edge they create carries a registered backward
rule, so gradient checking covers them for free. Attention hands its 1/sqrt(d)
scale to ``softmax`` as its ``alpha``, which saves a (..., T, T) array and a
tape node per call and gives the bytes of a separate ``scale``. A linear
layer is one ``matmul`` node: the bias, and any addend such as a LoRA
layer's base output, are trailing inputs that the node adds into its own
output in place, with the bits and the gradients of separate ``add`` nodes.
A convolution over a channel concatenation takes the parts as a list of
blocks instead, with the bits of the concatenation it never builds.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .primitives import apply_primitive
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


def conv2d(x, w: Tensor, bias: Tensor | None = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Convolution of ``x``, a tensor or a list of channel blocks: a list is
    read as its concatenation along channels, which is never built."""
    blocks = [x] if isinstance(x, Tensor) else list(x)
    if not blocks:
        raise ShapeError("conv2d: no input blocks")
    y = apply_primitive("conv2d", [blocks[0], w, *blocks[1:]], {"stride": stride, "padding": padding})
    if bias is not None:
        y = add(y, reshape(bias, (1, bias.shape[0], 1, 1)))
    return y


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
