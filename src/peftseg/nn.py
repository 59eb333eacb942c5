"""The ``Module`` base and the minimal layers shared by the backbone, neck,
and decoders.

A tensor's name is its attribute path: ``named_parameters(prefix)`` yields
``(name, Tensor)`` pairs and ``named_buffers(prefix)`` ``(name, ndarray)``
pairs, and freeze policies, optimizers, and checkpoints all operate on those
flat names. Running statistics of batch norm are buffers, not parameters, and
are serialized separately.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .autodiff import Tensor, functional as F
from .errors import ShapeError

BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-stat update


class Module:
    """Names its tensors by walking its attributes in insertion order.

    A ``Tensor`` attribute is a parameter and an ``ndarray`` attribute a
    buffer; a child ``Module`` names its own tensors under its path, so an
    override there wins; ``dict`` and ``list`` attributes are walked by key or
    index. Anything else (None, numbers, tuples, configs) holds no tensor.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        return _walk(self._tree(), prefix, "named_parameters", Tensor)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        return _walk(self._tree(), prefix, "named_buffers", np.ndarray)

    def _tree(self) -> dict:
        """What the walk names: the attributes, unless a module whose names
        deliberately differ from its attribute paths says otherwise."""
        return vars(self)


def _walk(value, path: str, method: str, leaf: type):
    if isinstance(value, leaf):
        yield path, value
    elif isinstance(value, Module):
        yield from getattr(value, method)(path)
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _walk(item, f"{path}.{key}" if path else str(key), method, leaf)


def param(rng: np.random.Generator, shape, std: float = 0.02) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape).astype(np.float32), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


class Linear(Module):
    """y = x @ W^T + b with weight shape (d_out, d_in)."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int):
        self.weight = param(rng, (d_out, d_in))
        self.bias = zeros_param((d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, kernel: int,
                 stride: int = 1, padding: int = 0):
        fan_in = c_in * kernel * kernel
        std = float(np.sqrt(2.0 / fan_in))
        self.weight = param(rng, (c_out, c_in, kernel, kernel), std)
        self.bias = zeros_param((c_out,))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        """The conv of one (B, C, H, W) input; parts are joined with ``F.concat`` first."""
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Kernel shape (c_in, c_out, k, k), matching the adjoint of Conv2d."""

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, kernel: int,
                 stride: int = 1, padding: int = 0):
        fan_in = c_in * kernel * kernel
        std = float(np.sqrt(2.0 / fan_in))
        self.weight = param(rng, (c_in, c_out, kernel, kernel), std)
        self.bias = zeros_param((c_out,))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = ones_param((dim,))
        self.beta = zeros_param((dim,))

    def __call__(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta)


class BatchNormRelu2d(Module):
    """Batch norm over (B, H, W) per channel with running-stat buffers, then a
    ReLU that the batch-norm node applies itself."""

    def __init__(self, channels: int):
        self.gamma = ones_param((channels,))
        self.beta = zeros_param((channels,))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        c = self.running_mean.shape[0]
        if x.ndim != 4 or x.shape[1] != c:  # before the running statistics move
            raise ShapeError(f"batch norm: input {x.shape} is not (B, {c}, H, W)")
        if training:
            batch_mean = x.data.mean(axis=(0, 2, 3))
            batch_var = x.data.var(axis=(0, 2, 3))
            m = BN_MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean + m * batch_mean).astype(np.float32)
            self.running_var = ((1 - m) * self.running_var + m * batch_var).astype(np.float32)
        return F.batch_norm2d(x, self.gamma, self.beta,
                              Tensor(self.running_mean), Tensor(self.running_var),
                              training=training, relu=True)
