"""What the tape keeps and hands to the rules: each primitive's ``saves``
declaration, the layout of the gradients its rule receives, and the memory a
forward pass holds for backward."""

import inspect
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from peftseg.autodiff import Tensor, apply_primitive, backward, functional as F, primitives, trace
from peftseg.autodiff.primitives import _REGISTRY, _register, registered_primitives
from peftseg.decoders import DecoderConfig
from peftseg.model import build_model

from conftest import TINY_ADAPTER, tiny_backbone


def _cases(dtype):
    """op_id -> [(input arrays, attrs)], C-contiguous like every array on the tape."""
    rng = np.random.default_rng(0)

    def a(*shape):
        return rng.normal(size=shape).astype(dtype)

    def bn_inputs():
        return [a(2, 2, 3, 3), a(2), a(2), a(2), np.abs(a(2)) + 0.5]

    return {
        "add": [([a(3, 4), a(4)], {})],
        "sub": [([a(3, 4), a(3, 1)], {})],
        "mul": [([a(3, 4), a(1, 4)], {})],
        "neg": [([a(5)], {})],
        "scale": [([a(5)], {"alpha": 2.5})],
        "reshape": [([a(2, 3)], {"shape": (3, 2)})],
        "transpose": [([a(2, 3, 4)], {"axes": (2, 0, 1)})],
        "slice": [([a(4, 3)], {"ranges": ((1, 3), None)})],
        "concat": [([a(2, 3), a(2, 2), a(2, 1)], {"axis": 1})],
        "sum": [([a(3, 4)], {"axes": (1,)}), ([a(3, 4)], {"axes": None, "keepdims": True})],
        "mean": [([a(3, 4)], {"axes": (0,)}), ([a(3, 4)], {"axes": -1, "keepdims": True})],
        "matmul": [([a(2, 3, 4), a(4, 5)], {}), ([a(2, 3, 4), a(2, 5, 4)], {"transpose_b": True}),
                   ([a(2, 3, 4), a(5, 4), a(5)], {"transpose_b": True}),  # a bias
                   ([a(2, 3, 4), a(4, 5), a(5), a(2, 3, 5)], {})],  # a bias and an addend
        "gelu": [([a(8)], {})],
        "relu": [([a(8)], {})],
        "softmax": [([a(2, 5)], {"axis": -1}), ([a(2, 3, 4)], {"axis": -1, "alpha": 0.35})],
        "log_softmax": [([a(2, 5)], {"axis": 0})],
        "layer_norm": [([a(3, 6), a(6), a(6)], {"eps": 1e-5})],
        "batch_norm2d": [(inputs, {"training": t, "relu": r})
                         for t, inputs in ((True, bn_inputs()), (False, bn_inputs()))
                         for r in (False, True)],
        "conv2d": [([a(2, 2, 5, 5), a(3, 2, 3, 3)], {"stride": 2, "padding": 1}),
                   ([a(2, 4, 3, 5), a(3, 4, 1, 1)], {"stride": 1, "padding": 0})],  # pointwise
        "conv_transpose2d": [([a(1, 2, 3, 3), a(2, 3, 2, 2)], {"stride": 2, "padding": 0})],
        "bilinear_resize": [([a(1, 2, 3, 4)], {"out_h": 5, "out_w": 7})],
        "reflect_pad2d": [([a(1, 1, 3, 4)], {"pad_h": 2, "pad_w": 2})],
        "avg_pool2d": [([a(1, 2, 5, 5)], {"kernel": 2, "stride": 2})],
        "max_pool2d": [([a(1, 2, 4, 4)], {"kernel": 2})],
        "adaptive_avg_pool2d": [([a(1, 2, 5, 7)], {"out_h": 3, "out_w": 3})],
        "dropout": [([a(4, 4)], {"p": 0.4, "seed": 7})],
    }


def test_every_primitive_declares_saves_and_has_a_case():
    assert inspect.signature(_register).parameters["saves"].default is inspect.Parameter.empty
    assert sorted(_cases(np.float32)) == list(registered_primitives())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op_id", registered_primitives())
def test_backward_reads_only_what_saves_declares(op_id, dtype):
    """Stand-ins for the inputs ``saves`` drops leave every gradient's bytes unchanged."""
    prim = _REGISTRY[op_id]
    rng = np.random.default_rng(1)
    for datas, attrs in _cases(dtype)[op_id]:
        out, ctx = prim.forward(datas, attrs)
        g = rng.normal(size=out.shape).astype(out.dtype)
        for needs in itertools.product((False, True), repeat=len(datas)):
            if not any(needs):
                continue
            saved = prim.saves(needs)
            assert len(saved) == len(datas) and all(type(s) is bool for s in saved)
            lean = [d if keep else np.broadcast_to(np.zeros((), d.dtype), d.shape)
                    for d, keep in zip(datas, saved)]
            # a rule may free what its list holds, so each call gets its own list
            full_grads = prim.backward(list(datas), attrs, ctx, g, needs)
            lean_grads = prim.backward(lean, attrs, ctx, g, needs)
            for i, (x, y) in enumerate(zip(full_grads, lean_grads)):
                where = f"{op_id} needs={needs} input {i}"
                if x is None:
                    assert y is None, where
                    continue
                assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides), where
                assert x.tobytes() == y.tobytes(), where


@pytest.mark.parametrize("op_id", registered_primitives())
def test_backward_bits_do_not_depend_on_gradient_layout(op_id):
    """A node's rule returns the same bytes for an upstream gradient in C order
    and for a Fortran-order copy of it."""
    rng = np.random.default_rng(2)
    cases = _cases(np.float32)[op_id]
    if op_id == "add":  # a bias gradient: (8, 128, 16, 16) summed to (1, 128, 1, 1)
        cases = cases + [([rng.normal(size=(8, 128, 16, 16)).astype(np.float32),
                           rng.normal(size=(1, 128, 1, 1)).astype(np.float32)], {})]
    for datas, attrs in cases:
        def node():  # a rule may free what it saved, so each call gets a fresh node
            return apply_primitive(op_id, [Tensor(d, requires_grad=True) for d in datas], attrs).node
        out = node()
        g = rng.normal(size=out.shape).astype(out.dtype)
        needs = out.needs
        c_grads = node().backward_fn(g.copy(), needs)
        f_grads = node().backward_fn(np.asfortranarray(g), needs)
        for i, (x, y) in enumerate(zip(c_grads, f_grads)):
            where = f"{op_id} {[d.shape for d in datas]} input {i}"
            if x is None:
                assert y is None, where
                continue
            assert (x.dtype, x.shape) == (y.dtype, y.shape), where
            assert x.tobytes() == y.tobytes(), where


def _live_after_forward(method: str) -> int:
    """tracemalloc bytes still live after one desk forward and loss at batch 8."""
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), method, seed=0,
                        adapter_cfg=TINY_ADAPTER)
    images = np.random.default_rng(0).normal(size=(8, 6, 64, 64)).astype(np.float32)
    masks = np.zeros((8, 64, 64), dtype=np.int64)
    backward(F.cross_entropy(model.forward(images, training=True), masks))  # warm-up
    tracemalloc.start()
    try:
        loss = F.cross_entropy(model.forward(images, training=True), masks)  # noqa: F841
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_forward_memory_follows_the_freeze_policy():
    live = {m: _live_after_forward(m) for m in ("linear_probe", "lora", "full_finetune")}
    assert live["linear_probe"] < live["lora"] < live["full_finetune"], live


def test_attention_scores_are_freed_before_backward(monkeypatch):
    rng = np.random.default_rng(3)
    b, h, t, d = 2, 2, 5, 4
    x = Tensor(rng.normal(size=(b, h, t, d)).astype(np.float32), requires_grad=True)
    wq, wk, wv = (Tensor(rng.normal(size=(d, d)).astype(np.float32)) for _ in range(3))
    q, k, v = F.matmul(x, wq), F.matmul(x, wk), F.matmul(x, wv)

    scores = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.shape == (b, h, t, t):
                scores[name] = weakref.ref(out.data)
            return out
        return wrapped

    monkeypatch.setattr(F, "matmul", spy("raw", F.matmul))
    monkeypatch.setattr(F, "softmax", spy("probs", F.softmax))
    loss = F.sum(F.attention(q, k, v))
    del q, k, v

    assert scores["raw"]() is None  # softmax scales the raw scores itself
    assert scores["probs"]() is not None  # the softmax rule and the last matmul read it
    nodes = trace(loss).nodes
    assert "scale" not in {n.op_id for n in nodes}
    # a freed output reads back as a stand-in of the same shape, dtype and nbytes
    freed = [n for n in nodes if n.shape and not any(n.output.data.strides)]
    assert {n.op_id for n in freed} >= {"matmul"}
    for n in freed:
        out = n.output
        assert (out.node, out.shape, out.dtype) == (n, n.shape, n.dtype)
        assert out.data.nbytes == out.size * out.dtype.itemsize and not out.data.any()
    backward(loss)
    assert x.grad is not None and np.isfinite(x.grad).all()


def test_conv_frees_its_input_before_its_gradient(monkeypatch):
    """Backward drops a node's inputs before its rule runs, so the rule's saved
    arrays have no other holder: UperNet's PPM fuse conv frees its input (the
    concatenation of the coarsest level and the four PPM branches) once the
    kernel's gradient is done, before the input's gradient is allocated."""
    model = build_model(tiny_backbone(), DecoderConfig("upernet", 2), "lora", seed=0)
    fuse_weight = model.decoder.ppm_fuse.conv.weight
    inputs, seen = [], []
    conv2d, grad_x = F.conv2d, primitives._conv2d_grad_x

    def spy_conv2d(x, w, *args, **kwargs):
        if w is fuse_weight:
            inputs.append(weakref.ref(x.data))
        return conv2d(x, w, *args, **kwargs)

    def spy_grad_x(gy, w, *args, **kwargs):
        if w is fuse_weight.data and inputs and not seen:
            seen.append(inputs[0]() is None)
        return grad_x(gy, w, *args, **kwargs)

    monkeypatch.setattr(F, "conv2d", spy_conv2d)
    monkeypatch.setattr(primitives, "_conv2d_grad_x", spy_grad_x)
    rng = np.random.default_rng(5)
    images = rng.normal(size=(2, 6, 64, 64)).astype(np.float32)
    loss = F.cross_entropy(model.forward(images, training=True), rng.integers(0, 2, size=(2, 64, 64)))
    assert len(inputs) == 1 and inputs[0]() is not None  # the tape holds it
    assert inputs[0]().shape == (2, 64 + 4 * 128, 4, 4)
    backward(loss)
    assert seen == [True]
