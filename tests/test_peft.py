"""PEFT attachments: exact parameter counts, attachment-time identity, merge
equivalence, freeze-policy soundness."""

import numpy as np
import pytest

from peftseg.autodiff import backward, functional as F
from peftseg.backbone import ViTBackbone, vit_base_config, vit_large_config
from peftseg.decoders import DecoderConfig
from peftseg.errors import ConfigError
from peftseg.model import build_model
from peftseg.peft import (LoraConfig, VitAdapterConfig, VptConfig, apply_freeze_policy,
                          attach_lora, attach_vit_adapter, count_parameters,
                          merge_lora, policy_trains)
from peftseg.training import AdamW

from conftest import BANDS6, TINY_ADAPTER, tiny_backbone

RNG = np.random.default_rng(7)


def lora_count(model):
    return count_parameters(model).per_attachment.get("lora", 0)


# ---------------------------------------------------------------------------
# exact parameter counts (the published table shapes)


def test_vit_b_lora_count():
    model = build_model(vit_base_config(BANDS6), DecoderConfig("linear", 2), "lora")
    assert lora_count(model) == 2_064_384


def test_vit_l_lora_count():
    model = build_model(vit_large_config(BANDS6), DecoderConfig("linear", 2), "lora")
    assert lora_count(model) == 5_505_024


def test_vit_b_vpt_count():
    model = build_model(vit_base_config(BANDS6), DecoderConfig("linear", 2), "vpt")
    assert count_parameters(model).per_attachment["vpt"] == 921_600


def test_vit_l_vpt_count():
    model = build_model(vit_large_config(BANDS6), DecoderConfig("linear", 2), "vpt")
    assert count_parameters(model).per_attachment["vpt"] == 2_457_600


def test_lora_square_target_closed_form():
    # each square d x d target contributes exactly 2*d*r per layer
    cfg = tiny_backbone()
    model = build_model(cfg, DecoderConfig("linear", 2), "lora",
                        lora_cfg=LoraConfig(rank=4, targets=("attention-query",)))
    assert lora_count(model) == cfg.depth * 2 * cfg.embed_dim * 4


def test_vpt_closed_form():
    cfg = tiny_backbone()
    model = build_model(cfg, DecoderConfig("linear", 2), "vpt",
                        vpt_cfg=VptConfig(prompts_per_layer=7))
    assert count_parameters(model).per_attachment["vpt"] == cfg.depth * 7 * cfg.embed_dim


def test_rank_zero_rejected():
    with pytest.raises(ConfigError):
        LoraConfig(rank=0)


@pytest.mark.parametrize("scaling", [float("nan"), 0.0])
def test_nan_or_zero_lora_scaling_rejected(scaling):
    with pytest.raises(ConfigError):
        LoraConfig(scaling=scaling)


def test_zero_prompts_rejected():
    with pytest.raises(ConfigError):
        VptConfig(prompts_per_layer=0)


def test_repeated_injection_layer_rejected():
    with pytest.raises(ConfigError, match=r"\[2\]"):
        VitAdapterConfig(injection_layers=(2, 2))
    assert VitAdapterConfig(injection_layers=(2, 3)).injection_layers == (2, 3)


def test_no_attachment_full_ft_encoder_fraction_is_one():
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "full_finetune")
    report = count_parameters(model)
    assert report.per_attachment == {}
    assert report.encoder_trainable_fraction == 1.0


# ---------------------------------------------------------------------------
# attachment-time identity


def test_lora_identity_at_attachment():
    cfg = tiny_backbone()
    plain = ViTBackbone(cfg, seed=3)
    adapted = ViTBackbone(cfg, seed=3)
    attach_lora(adapted, LoraConfig(), seed=1)
    for trial in range(20):
        rng = np.random.default_rng(trial)
        image = rng.normal(size=(6, 64, 64)).astype(np.float32)
        a = plain.forward_features(plain.embed_patches(image))[-1]
        b = adapted.forward_features(adapted.embed_patches(image))[-1]
        assert np.abs(a.data - b.data).max() <= 1e-6


@pytest.mark.parametrize("scaling", [1.0, 2.0])
def test_lora_linear_keeps_the_bits_of_the_separate_sum(scaling):
    """The up-projection adds the base output inside its matmul node at
    scaling 1; forward and every gradient keep the bytes of base + delta."""
    from peftseg.autodiff import Tensor
    from peftseg.nn import Linear
    from peftseg.peft import LoraLinear
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 9, 8)).astype(np.float32)
    c = Tensor(rng.normal(size=(2, 9, 6)).astype(np.float32))
    cx = Tensor(rng.normal(size=(2, 9, 8)).astype(np.float32))
    up = rng.normal(size=(6, 3))  # lora_b is zero at attachment

    def run(call):
        layer = LoraLinear(np.random.default_rng(0), Linear(np.random.default_rng(1), 8, 6),
                           rank=3, scaling=scaling)
        layer.lora_b.data[:] = up
        leaves = [layer.base.weight, layer.base.bias, layer.lora_a, layer.lora_b,
                  Tensor(x0, requires_grad=True)]
        for t in leaves:
            t.requires_grad = True
        x = F.gelu(leaves[-1])
        y = call(layer, x)
        # x's gradient sums three terms, so their order shows in its bits
        grads = backward(F.add(F.sum(F.mul(y, c)), F.sum(F.mul(x, cx))))
        return [y.data] + [grads[t] for t in leaves]

    def separate(layer, x):
        y = F.add(F.matmul(x, layer.base.weight, transpose_b=True), layer.base.bias)
        delta = F.matmul(F.matmul(x, layer.lora_a, transpose_b=True), layer.lora_b,
                         transpose_b=True)
        if layer.scaling != 1.0:
            delta = F.scale(delta, layer.scaling)
        return F.add(y, delta)

    fused = run(lambda layer, x: layer(x))
    plain = run(separate)
    for got, want in zip(fused, plain):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_adapter_zero_injection_identity():
    cfg = tiny_backbone()
    plain = ViTBackbone(cfg, seed=3)
    adapted = ViTBackbone(cfg, seed=3)
    attach_vit_adapter(adapted, TINY_ADAPTER, seed=1)
    image = RNG.normal(size=(1, 6, 64, 64)).astype(np.float32)
    from peftseg.autodiff import Tensor
    adapter_tokens = adapted.adapter.stem_tokens(Tensor(image))
    a = plain.forward_features(plain.embed_patches(image))[-1]
    b = adapted.forward_features(adapted.embed_patches(image), adapter_tokens=adapter_tokens)[-1]
    assert np.abs(a.data - b.data).max() <= 1e-6


def test_adapter_pyramid_extents():
    cfg = tiny_backbone()
    backbone = attach_vit_adapter(ViTBackbone(cfg, seed=0), TINY_ADAPTER, seed=1)
    from peftseg.autodiff import Tensor
    image = Tensor(RNG.normal(size=(2, 6, 64, 64)).astype(np.float32))
    tokens = backbone.adapter.stem_tokens(image)
    final = backbone.forward_features(backbone.embed_patches(image), adapter_tokens=tokens)[-1]
    b, gh, gw, d = final.shape
    pyramid = backbone.adapter.pyramid(tokens, F.reshape(final, (b, gh * gw, d)))
    assert [tuple(m.shape[2:]) for m in pyramid] == [(8, 8), (4, 4), (2, 2)]


def test_adapter_param_count_within_band_for_vit_l_shape():
    cfg = vit_large_config(BANDS6)
    from peftseg.diagnostics import adapter_param_count, encoder_param_count
    adapter = adapter_param_count(cfg, VitAdapterConfig())
    encoder = encoder_param_count(cfg)
    assert 0.05 <= adapter / encoder <= 0.15


def test_double_attach_rejected():
    backbone = attach_lora(ViTBackbone(tiny_backbone(), seed=0), LoraConfig())
    with pytest.raises(ConfigError):
        attach_lora(backbone, LoraConfig())


# ---------------------------------------------------------------------------
# merge


def _train_steps(model, steps=10, lr=1e-2):
    optimizer = AdamW(list(model.trainable_parameters()), lr=lr)
    rng = np.random.default_rng(0)
    for _ in range(steps):
        images = rng.normal(size=(2, 6, 64, 64)).astype(np.float32)
        targets = rng.integers(0, 2, size=(2, 64, 64))
        loss = F.cross_entropy(model.forward(images, training=True), targets)
        optimizer.zero_grad()
        backward(loss)
        optimizer.step()
    return model


def test_merge_untrained_is_bitwise_noop():
    cfg = tiny_backbone()
    plain = ViTBackbone(cfg, seed=3)
    adapted = attach_lora(ViTBackbone(cfg, seed=3), LoraConfig(), seed=1)
    merged = merge_lora(adapted)
    for (na, ta), (nb, tb) in zip(plain.named_parameters(), merged.named_parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na


def test_merge_after_training_matches_adapter_forward():
    image = RNG.normal(size=(2, 6, 64, 64)).astype(np.float32)
    for lora_cfg in (LoraConfig(scaling=1.0), LoraConfig(scaling=2.0)):
        model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "lora", seed=5,
                            lora_cfg=lora_cfg)
        _train_steps(model, steps=10)
        before = model.forward(image).data.copy()
        merge_lora(model.backbone)
        after = model.forward(image).data
        assert np.abs(before - after).max() <= 1e-5, lora_cfg


def test_merge_twice_is_idempotent():
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "lora", seed=5)
    merge_lora(model.backbone)
    snapshot = {n: t.data.copy() for n, t in model.named_parameters()}
    merge_lora(model.backbone)
    for name, t in model.named_parameters():
        assert np.array_equal(snapshot[name], t.data)


# ---------------------------------------------------------------------------
# freeze policies


def test_policy_trainable_sets():
    model = build_model(tiny_backbone(), DecoderConfig("unet", 2), "lora", seed=2)
    names = {n for n, t in model.named_parameters() if t.requires_grad}
    assert names
    assert all(n.startswith(("peft.lora.", "neck.", "decoder.")) for n in names)
    assert any(n.startswith("peft.lora.") for n in names)
    assert any(n.startswith("decoder.") for n in names)


def test_policy_attachment_mismatch_rejected():
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "full_finetune")
    with pytest.raises(ConfigError):
        apply_freeze_policy(model, "lora")
    lora_model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "lora")
    with pytest.raises(ConfigError):
        apply_freeze_policy(lora_model, "linear_probe")


def test_linear_probe_encoder_bitwise_frozen_after_steps():
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "linear_probe", seed=4)
    before = {n: t.data.copy() for n, t in model.named_parameters()
              if n.startswith("encoder.")}
    _train_steps(model, steps=5)
    for name, t in model.named_parameters():
        if name.startswith("encoder."):
            assert np.array_equal(before[name], t.data), name


def test_full_ft_moves_encoder_after_one_step():
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "full_finetune", seed=4)
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    _train_steps(model, steps=1)
    moved = [n for n, t in model.named_parameters()
             if n.startswith("encoder.") and not np.array_equal(before[n], t.data)]
    assert moved


def test_decoder_trainable_under_every_policy():
    for method in ("full_finetune", "linear_probe", "lora", "vpt", "vit_adapter"):
        model = build_model(tiny_backbone(), DecoderConfig("linear", 2), method,
                            adapter_cfg=TINY_ADAPTER)
        for name, t in model.named_parameters():
            if name.startswith(("decoder.", "neck.")):
                assert t.requires_grad, (method, name)


def test_adapter_extractor_trains_only_for_pyramid_heads():
    for kind, trains in (("linear", False), ("unet", True)):
        model = build_model(tiny_backbone(), DecoderConfig(kind, 2), "vit_adapter",
                            adapter_cfg=TINY_ADAPTER)
        extractor = [t for n, t in model.named_parameters()
                     if n.startswith("peft.adapter.extract.")]
        assert len(extractor) == 8
        assert all(t.requires_grad == trains for t in extractor), kind


def test_policy_trains_name_rules():
    assert policy_trains("lora", "peft.lora.blocks.0.attn.q.lora_a")
    assert not policy_trains("lora", "encoder.blocks.0.attn.q.weight")
    assert policy_trains("linear_probe", "decoder.head.weight")
    assert not policy_trains("linear_probe", "peft.vpt.prompts.0")
    assert policy_trains("full_finetune", "encoder.pos_table")
    # every spelling of a policy means the same set
    assert policy_trains("full-finetune", "encoder.pos_table")
    assert policy_trains("full_fine_tune", "encoder.pos_table")
    assert policy_trains("vit-adapter", "peft.adapter.stem.0.weight")
    assert not policy_trains("vit-adapter", "encoder.pos_table")
    assert not policy_trains("linear-probe", "encoder.pos_table")
    with pytest.raises(ConfigError):
        policy_trains("bogus", "decoder.head.weight")
