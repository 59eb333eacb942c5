"""Neck and decoder heads: extents, parameter counts, structural checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peftseg.autodiff import Tensor, backward, functional as F, no_grad, trace
from peftseg.autodiff import primitives
from peftseg.autodiff.primitives import is_linear_primitive
from peftseg.decoders import (DecoderConfig, FeaturePyramid, Neck, build_decoder, build_head,
                              decode)
from peftseg.errors import ConfigError, ShapeError
from peftseg.model import build_model
from peftseg.nn import BN_MOMENTUM, BatchNormRelu2d
from peftseg.training import AdamW

from conftest import TINY_ADAPTER, tiny_backbone

RNG = np.random.default_rng(21)


def taps(batch, grid, dim):
    return [Tensor(RNG.normal(size=(batch, grid, grid, dim)).astype(np.float32))
            for _ in range(4)]


def test_neck_pyramid_extents():
    neck = Neck(np.random.default_rng(0), 64)
    pyramid = neck(taps(1, 8, 64))
    assert [tuple(m.shape[2:]) for m in pyramid.maps] == [(32, 32), (16, 16), (8, 8), (4, 4)]
    assert [m.shape[1] for m in pyramid.maps] == [16, 32, 64, 64]


def test_neck_rejects_three_maps():
    neck = Neck(np.random.default_rng(0), 64)
    with pytest.raises(ShapeError):
        neck(taps(1, 8, 64)[:3])


def test_neck_rejects_extent_mismatch():
    neck = Neck(np.random.default_rng(0), 64)
    bad = taps(1, 8, 64)
    bad[2] = Tensor(RNG.normal(size=(1, 4, 4, 64)).astype(np.float32))
    with pytest.raises(ShapeError):
        neck(bad)


def test_neck_weights_receive_gradient_under_linear_probe():
    """Every neck tensor trains: the ViT neck under a frozen encoder, and the
    adapter neck with the extractor's output projection on the adapter path."""
    images = RNG.normal(size=(1, 6, 64, 64)).astype(np.float32)
    targets = RNG.integers(0, 2, size=(1, 64, 64))
    for method, kind in (("linear_probe", "unet"), ("vit_adapter", "unet"),
                         ("vit_adapter", "upernet")):
        model = build_model(tiny_backbone(), DecoderConfig(kind, 2), method, seed=1,
                            adapter_cfg=TINY_ADAPTER)
        logits = model.forward(images, training=True)
        assert logits.shape == (1, 2, 64, 64), (method, kind)
        grads = backward(F.cross_entropy(logits, targets))
        prefixes = ("neck.",) if method == "linear_probe" else ("neck.", "peft.adapter.extract.out.")
        for prefix in prefixes:
            params = [(n, t) for n, t in model.named_parameters() if n.startswith(prefix)]
            assert params, (method, kind, prefix)
            for name, t in params:
                assert t in grads and np.abs(grads[t]).max() > 0, (method, kind, name)


def test_feature_pyramid_requires_decreasing_scales():
    maps = [Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32)) for _ in range(4)]
    with pytest.raises(ShapeError):
        FeaturePyramid(maps)


def test_linear_decoder_shape_contract():
    # 8x8xd final map, p=16, 7 classes -> 128x128x7 logits through one convT
    cfg = DecoderConfig("linear", 7)
    head = build_decoder(np.random.default_rng(0), cfg, 32, 16)
    final_tap = Tensor(RNG.normal(size=(2, 8, 8, 32)).astype(np.float32))
    logits = decode(final_tap, cfg, head, (128, 128))
    assert logits.shape == (2, 7, 128, 128)


def test_linear_decoder_has_no_nonlinear_primitives():
    cfg = DecoderConfig("linear", 3)
    head = build_decoder(np.random.default_rng(0), cfg, 16, 8)
    final_tap = Tensor(RNG.normal(size=(1, 4, 4, 16)).astype(np.float32), requires_grad=True)
    logits = decode(final_tap, cfg, head, (32, 32))
    ops = trace(F.sum(logits)).op_ids()
    assert all(is_linear_primitive(op) for op in ops)
    assert ops.count("conv_transpose2d") == 1


def test_fcn_block_count_reaches_full_resolution():
    # p=16 needs log2(16) = 4 upsampling blocks
    cfg = DecoderConfig("fcn", 4)
    head = build_decoder(np.random.default_rng(0), cfg, 32, 16)
    assert len(head.blocks) == 4
    final_tap = Tensor(RNG.normal(size=(1, 4, 4, 32)).astype(np.float32))
    assert decode(final_tap, cfg, head, (64, 64)).shape == (1, 4, 64, 64)


def test_fcn_contains_nonlinearities():
    cfg = DecoderConfig("fcn", 2)
    head = build_decoder(np.random.default_rng(0), cfg, 16, 8)
    final_tap = Tensor(RNG.normal(size=(1, 4, 4, 16)).astype(np.float32), requires_grad=True)
    ops = trace(F.sum(decode(final_tap, cfg, head, (32, 32)))).op_ids()
    assert "gelu" in ops and "layer_norm" in ops


def test_pyramid_decoders_reject_single_map():
    for kind in ("upernet", "unet"):
        cfg = DecoderConfig(kind, 2)
        head = build_decoder(np.random.default_rng(0), cfg, 64, 8, (16, 32, 64, 64))
        final_tap = Tensor(RNG.normal(size=(1, 8, 8, 64)).astype(np.float32))
        with pytest.raises(ShapeError):
            decode(final_tap, cfg, head, (64, 64))


def test_single_scale_decoders_reject_pyramid():
    neck = Neck(np.random.default_rng(0), 64)
    pyramid = neck(taps(1, 8, 64))
    cfg = DecoderConfig("linear", 2)
    head = build_decoder(np.random.default_rng(0), cfg, 64, 8)
    with pytest.raises(ShapeError):
        decode(pyramid, cfg, head, (64, 64))


@settings(max_examples=8, deadline=None)
@given(grid=st.sampled_from([2, 4, 8]), kind=st.sampled_from(["linear", "fcn", "upernet", "unet"]))
def test_output_extent_equals_input_extent(grid, kind):
    patch = 8
    dim = 16
    hw = grid * patch
    cfg = DecoderConfig(kind, 3, fcn_hidden=8, unet_widths=(16, 16, 8, 8), upernet_channels=8)
    rng = np.random.default_rng(0)
    if cfg.needs_pyramid:
        neck = Neck(rng, dim)
        feats = neck([Tensor(np.random.default_rng(1).normal(size=(1, grid, grid, dim)).astype(np.float32))
                      for _ in range(4)])
        head = build_decoder(rng, cfg, dim, patch, neck.channels)
    else:
        feats = Tensor(np.random.default_rng(1).normal(size=(1, grid, grid, dim)).astype(np.float32))
        head = build_decoder(rng, cfg, dim, patch)
    logits = decode(feats, cfg, head, (hw, hw), training=True)
    assert logits.shape == (1, 3, hw, hw)


def test_unet_highest_resolution_skip_is_load_bearing():
    cfg = DecoderConfig("unet", 2, unet_widths=(16, 16, 8, 8))
    rng = np.random.default_rng(3)
    neck = Neck(rng, 16)
    tap_list = [Tensor(RNG.normal(size=(1, 8, 8, 16)).astype(np.float32)) for _ in range(4)]
    head = build_decoder(rng, cfg, 16, 8, neck.channels)
    pyramid = neck(tap_list)
    base = decode(pyramid, cfg, head, (64, 64)).data

    zeroed = FeaturePyramid([Tensor(np.zeros_like(pyramid.maps[0].data)), *pyramid.maps[1:]])
    ablated = decode(zeroed, cfg, head, (64, 64)).data
    assert np.abs(base - ablated).max() > 0


def test_unet_eval_forward_resizes_logits_not_features():
    """A fresh LoRA + UNet forward on 32 desk images under ``no_grad``. The
    classifier runs at the finest pyramid level, so the last resize builds
    two (32, 2, 64, 64) arrays, not two (32, 32, 64, 64) ones (34.2 MB
    before, 26.2 MB after; 21.3 MB once the stage convs stopped resizing)."""
    model = build_model(tiny_backbone(), DecoderConfig("unet", 2), "lora")
    images = np.random.default_rng(13).normal(size=(32, 6, 64, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        with no_grad():
            logits = model.forward(images, training=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logits.shape == (32, 2, 64, 64)
    assert peak < 30 * 2**20, peak


def test_upernet_eval_forward_never_resizes_its_fuse_blocks(monkeypatch):
    """A fresh LoRA + UperNet forward on 32 desk images under ``no_grad``. The
    fuse conv reads its three coarser levels through ``resized_conv2d``, so
    the only (32, 128, 32, 32) resize left is the FPN's top-down upsample into
    level 0, where there were four: 102.2 MB before, 80.6 MB after."""
    model = build_model(tiny_backbone(), DecoderConfig("upernet", 2), "lora")
    images = np.random.default_rng(13).normal(size=(32, 6, 64, 64)).astype(np.float32)
    resize, resized = primitives._REGISTRY["bilinear_resize"], []

    def recording(datas, attrs):
        out = resize.forward(datas, attrs)
        resized.append(out[0].shape)
        return out

    monkeypatch.setitem(primitives._REGISTRY, "bilinear_resize", replace(resize, forward=recording))
    tracemalloc.start()
    try:
        with no_grad():
            logits = model.forward(images, training=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logits.shape == (32, 2, 64, 64)
    assert resized.count((32, 128, 32, 32)) == 1, resized
    assert peak < 81 * 2**20, peak


def test_ppm_scale_one_branch_permutation_invariant():
    cfg = DecoderConfig("upernet", 2, ppm_scales=(1,), upernet_channels=8)
    head = build_decoder(np.random.default_rng(0), cfg, 16, 8, (4, 8, 16, 16))
    coarsest = Tensor(RNG.normal(size=(1, 16, 4, 4)).astype(np.float32))
    flat = coarsest.data.reshape(1, 16, -1)
    perm = np.random.default_rng(5).permutation(16)
    permuted = Tensor(np.ascontiguousarray(flat[:, :, perm].reshape(1, 16, 4, 4)))
    a = head._ppm_branches(coarsest)[0].data
    b = head._ppm_branches(permuted)[0].data
    np.testing.assert_allclose(a, b, atol=1e-6)


@pytest.mark.parametrize("method", ["lora", "full_finetune"])
def test_upernet_trains_at_batch_one(method):
    """At batch 1 the PPM scale-1 branch pools to one value per channel, so it
    has no batch norm: every batch norm sees a positive batch variance, its
    running variance does not decay toward 0, and evaluation stays bounded."""
    rng = np.random.default_rng(4)
    model = build_model(tiny_backbone(), DecoderConfig("upernet", 2), method, seed=0)
    optimizer = AdamW(list(model.trainable_parameters()), lr=3e-3)
    running_var = lambda: {n: b for n, b in model.named_buffers() if n.endswith("running_var")}
    for _ in range(5):
        images = rng.normal(size=(1, 6, 64, 64)).astype(np.float32)
        targets = rng.integers(0, 2, size=(1, 64, 64))
        before = running_var()
        loss = F.cross_entropy(model.forward(images, training=True), targets)
        assert np.isfinite(loss.item())
        for name, var in running_var().items():
            batch_var = (var - (1 - BN_MOMENTUM) * before[name]) / BN_MOMENTUM
            assert batch_var.min() > 1e-4, name
        optimizer.zero_grad()
        grads = backward(loss)
        trained = [(n, t) for n, t in model.named_parameters() if t.requires_grad]
        assert any(n.startswith("decoder.ppm.0.") for n, _ in trained)
        for name, t in trained:
            assert t in grads and np.isfinite(grads[t]).all(), name
        optimizer.step()
    logits = model.forward(rng.normal(size=(2, 6, 64, 64)).astype(np.float32), training=False).data
    assert np.isfinite(logits).all() and np.abs(logits).max() < 1e3


def _step_arrays(kind, method):
    """Training logits, loss, every gradient and the eval logits of one desk step."""
    model = build_model(tiny_backbone(), DecoderConfig(kind, 2), method, seed=0)
    rng = np.random.default_rng(6)
    images = rng.normal(size=(2, 6, 64, 64)).astype(np.float32)
    logits = model.forward(images, training=True)
    loss = F.cross_entropy(logits, rng.integers(0, 2, size=(2, 64, 64)))
    ops = [(n.op_id, len(n.inputs)) for n in trace(loss).nodes]
    arrays = {"logits": logits.data, "loss": loss.data}
    grads = backward(loss)
    arrays.update((name, grads[t]) for name, t in model.named_parameters() if t in grads)
    arrays["eval logits"] = model.forward(images, training=False).data
    return ops, arrays


@pytest.mark.parametrize("method", ["lora", "full_finetune"])
def test_ppm_fuse_convolves_one_concat_of_its_parts(method):
    """UperNet's PPM fuse conv reads one ``concat`` node of its five parts (the
    coarsest level and the four PPM branches), and every conv node of a step
    has exactly its input and kernel. (The fuse conv reads its blocks through
    ``resized_conv2d``; see the next test.)"""
    model = build_model(tiny_backbone(), DecoderConfig("upernet", 2), method, seed=0)
    rng = np.random.default_rng(6)
    logits = model.forward(rng.normal(size=(2, 6, 64, 64)).astype(np.float32), training=True)
    nodes = trace(F.cross_entropy(logits, rng.integers(0, 2, size=(2, 64, 64)))).nodes
    convs = [n for n in nodes if n.op_id == "conv2d"]
    assert all(len(n.inputs) == 2 for n in convs), [len(n.inputs) for n in convs]
    fuse = [n for n in convs if n.inputs[1] is model.decoder.ppm_fuse.conv.weight]
    assert len(fuse) == 1
    parts = fuse[0].inputs[0].node
    assert parts.op_id == "concat" and len(parts.inputs) == 5


def _resize_then_conv(x, w, out_h, out_w, bias=None, padding=0):
    """``F.resized_conv2d`` as the resizes and the block conv it replaces."""
    blocks = [x] if isinstance(x, Tensor) else list(x)
    return F.conv2d(F.concat([b if b.shape[2:] == (out_h, out_w) else F.bilinear_resize(b, out_h, out_w)
                              for b in blocks], axis=1), w, bias, padding=padding)


@pytest.mark.parametrize("method", ["lora", "full_finetune"])
@pytest.mark.parametrize("kind", ["upernet", "unet"])
def test_resized_blocks_match_resize_then_conv(kind, method, monkeypatch):
    """UperNet's fuse conv and UNet's stage-``a`` convs read their coarser
    blocks through ``resized_conv2d``: no feature map is resized, and the
    logits, the loss, the eval logits and every weight, gamma and beta
    gradient of a step are within 1e-4 of each array's largest magnitude of
    resizing first. Bias gradients are skipped: a conv bias before batch norm
    and the attention key bias get only rounding noise."""
    ops, arrays = _step_arrays(kind, method)
    monkeypatch.setattr(F, "resized_conv2d", _resize_then_conv)
    reference_ops, reference = _step_arrays(kind, method)
    resizes = [op for op, _ in ops].count("bilinear_resize")
    # three coarse blocks in either head: fuse's last three, one per UNet stage
    assert [op for op, _ in reference_ops].count("bilinear_resize") == resizes + 3
    assert resizes == (8 if kind == "upernet" else 1), resizes  # PPM, FPN and the logits
    assert arrays.keys() == reference.keys()
    for name, a in arrays.items():
        b = reference[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        if not name.endswith("bias"):
            assert np.abs(a - b).max() <= 1e-4 * np.abs(b).max(), name


@pytest.mark.parametrize("shape", [(2, 3, 5, 5), (2, 1, 5, 5), (2, 4, 5)])
def test_batch_norm_rejects_a_bad_input_before_its_running_stats_move(shape):
    bn = BatchNormRelu2d(4)
    bn.running_mean[:] = RNG.normal(size=4)
    bn.running_var[:] = RNG.uniform(0.5, 2.0, size=4)
    before = bn.running_mean.tobytes(), bn.running_var.tobytes()
    with pytest.raises(ShapeError):
        bn(Tensor(RNG.normal(size=shape).astype(np.float32)), training=True)
    assert (bn.running_mean.tobytes(), bn.running_var.tobytes()) == before


def decoder_params(cfg, embed_dim, patch_size):
    _, head = build_head(np.random.default_rng(0), cfg, embed_dim, patch_size)
    return sum(t.size for _, t in head.named_parameters())


def test_estimate_linear_decoder_params():
    # d=64, p=8, 2 classes: convT weight 64*2*8*8 plus 2 bias values
    assert decoder_params(DecoderConfig("linear", 2), 64, 8) == 8_194


def test_estimate_rejects_single_class():
    with pytest.raises(ConfigError):
        DecoderConfig("linear", 1)


def test_zero_ppm_scale_rejected_when_the_config_is_built():
    with pytest.raises(ConfigError):
        DecoderConfig("upernet", 2, ppm_scales=(0,))


def test_fcn_params_increase_with_hidden_width():
    counts = [decoder_params(DecoderConfig("fcn", 2, fcn_hidden=h), 32, 8)
              for h in (8, 16, 32, 64)]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_estimate_matches_built_model():
    for kind in ("linear", "fcn", "upernet", "unet"):
        cfg = DecoderConfig(kind, 3)
        est = decoder_params(cfg, 64, 8)
        model = build_model(tiny_backbone(), cfg, "full_finetune", seed=0)
        from peftseg.peft import count_parameters
        assert est == count_parameters(model).decoder, kind
