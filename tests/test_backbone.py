"""ViT backbone: tokenization, taps, metadata, band adaptivity."""

import numpy as np
import pytest

from peftseg.autodiff import Tensor, backward, functional as F, grad_check, no_grad, trace
from peftseg.backbone import BackboneConfig, TransformerBlock, ViTBackbone, default_tap_layers
from peftseg.decoders import DecoderConfig
from peftseg.errors import ConfigError, InputTypeError, ShapeError
from peftseg.model import build_model
from peftseg.peft import LoraConfig, VitAdapterConfig, VptConfig, attach_vit_adapter, attach_vpt

from conftest import BANDS6, BANDS10, primitive_calls, tiny_backbone

RNG = np.random.default_rng(99)


def test_patch_size_controls_token_count():
    # 32x32 image: p=16 gives 4 tokens, p=8 gives 16, i.e. four times more
    for p, expected in ((16, 4), (8, 16)):
        cfg = BackboneConfig(embed_dim=32, depth=4, heads=4, patch_size=p,
                             band_ids=BANDS6, image_size=(32, 32))
        backbone = ViTBackbone(cfg, seed=0)
        tokens = backbone.embed_patches(RNG.normal(size=(6, 32, 32)).astype(np.float32))
        assert tokens.shape == (expected, 32)


def test_all_zero_image_gives_bias_plus_position():
    cfg = tiny_backbone()
    backbone = ViTBackbone(cfg, seed=1)
    tokens = backbone.embed_patches(np.zeros((6, 64, 64), dtype=np.float32))
    expected = backbone.patch_embed.bias.data[None, :] + backbone.patch_embed.pos_table.data
    np.testing.assert_allclose(tokens.data, expected, atol=1e-7)


def test_band_subset_equals_mean_imputed_full_input():
    # normalized missing bands sit at zero, which is exactly what a subset
    # forward computes
    cfg = BackboneConfig(embed_dim=32, depth=4, heads=4, patch_size=8,
                         band_ids=BANDS10, image_size=(32, 32))
    backbone = ViTBackbone(cfg, seed=2)
    image = RNG.normal(size=(10, 32, 32)).astype(np.float32)
    keep = list(BANDS10[:6])
    imputed = image.copy()
    imputed[6:] = 0.0

    sub_tokens = backbone.embed_patches(image[:6], keep)
    full_tokens = backbone.embed_patches(imputed, BANDS10)
    np.testing.assert_allclose(sub_tokens.data, full_tokens.data, atol=1e-6)

    sub_maps = backbone.forward_features(sub_tokens)
    full_maps = backbone.forward_features(full_tokens)
    for a, b in zip(sub_maps, full_maps):
        np.testing.assert_allclose(a.data, b.data, atol=1e-6)


def test_every_proper_subset_matches_imputation():
    cfg = BackboneConfig(embed_dim=16, depth=4, heads=4, patch_size=8,
                         band_ids=BANDS6[:4], image_size=(16, 16))
    backbone = ViTBackbone(cfg, seed=3)
    image = RNG.normal(size=(4, 16, 16)).astype(np.float32)
    import itertools
    for r in (1, 2, 3):
        for keep in itertools.combinations(range(4), r):
            bands = [cfg.band_ids[i] for i in keep]
            imputed = np.zeros_like(image)
            imputed[list(keep)] = image[list(keep)]
            sub = backbone.embed_patches(image[list(keep)], bands)
            full = backbone.embed_patches(imputed, cfg.band_ids)
            np.testing.assert_allclose(sub.data, full.data, atol=1e-6)


def test_unknown_band_rejected():
    backbone = ViTBackbone(tiny_backbone(), seed=0)
    with pytest.raises(ShapeError):
        backbone.embed_patches(np.zeros((1, 64, 64), dtype=np.float32), ["thermal"])


def test_non_divisible_extent_rejected():
    cfg = tiny_backbone()
    backbone = ViTBackbone(cfg, seed=0)
    with pytest.raises(ShapeError):
        backbone.embed_patches(np.zeros((6, 60, 64), dtype=np.float32))


def test_default_taps_quarter_points():
    assert default_tap_layers(12) == (3, 6, 9, 12)
    assert default_tap_layers(24) == (6, 12, 18, 24)
    assert default_tap_layers(4) == (1, 2, 3, 4)


def test_degenerate_depth_rejected():
    with pytest.raises(ConfigError):
        BackboneConfig(embed_dim=32, depth=0, heads=4, patch_size=8,
                       band_ids=BANDS6, image_size=(32, 32))


def test_bad_tap_layers_rejected():
    with pytest.raises(ConfigError):
        BackboneConfig(embed_dim=32, depth=4, heads=4, patch_size=8,
                       band_ids=BANDS6, image_size=(32, 32), tap_layers=(1, 2, 3, 5))
    with pytest.raises(ConfigError):
        BackboneConfig(embed_dim=32, depth=4, heads=4, patch_size=8,
                       band_ids=BANDS6, image_size=(32, 32), tap_layers=(2, 1, 3, 4))


def test_tapped_maps_have_grid_extent():
    cfg = tiny_backbone()
    backbone = ViTBackbone(cfg, seed=4)
    tokens = backbone.embed_patches(RNG.normal(size=(2, 6, 64, 64)).astype(np.float32))
    maps = backbone.forward_features(tokens)
    assert len(maps) == 4
    for m in maps:
        assert m.shape == (2, 8, 8, 64)


def test_prompt_blocks_leave_patch_count_unchanged():
    backbone = attach_vpt(ViTBackbone(tiny_backbone(), seed=5), VptConfig(prompts_per_layer=5))
    tokens = backbone.embed_patches(RNG.normal(size=(6, 64, 64)).astype(np.float32))
    maps = backbone.forward_features(tokens)
    for m in maps:
        assert m.shape == (8, 8, 64)


def test_prompt_blocks_and_adapter_injection_rejected_together():
    backbone = attach_vpt(ViTBackbone(tiny_backbone(), seed=5), VptConfig(prompts_per_layer=2))
    attach_vit_adapter(backbone, VitAdapterConfig(channels=(16, 16, 16)))
    tokens = backbone.embed_patches(np.zeros((6, 64, 64), dtype=np.float32))
    with pytest.raises(ShapeError, match="cannot be combined"):
        backbone.forward_features(tokens)


def test_metadata_disabled_gives_zero_vector():
    backbone = ViTBackbone(tiny_backbone(metadata=False), seed=7)
    image = RNG.normal(size=(6, 64, 64)).astype(np.float32)
    meta = {"lat": 45.0, "lon": 8.0, "day_of_year": 120, "year": 2021}
    np.testing.assert_array_equal(backbone.image_embedding(image, meta=meta),
                                  backbone.image_embedding(image))


def test_metadata_purity_and_latitude_sensitivity():
    backbone = ViTBackbone(tiny_backbone(metadata=True), seed=8)
    a = backbone.meta(45.0, 8.0, 120, 2021)
    b = backbone.meta(45.0, 8.0, 120, 2021)
    np.testing.assert_array_equal(a.data, b.data)
    c = backbone.meta(-10.0, 8.0, 120, 2021)
    assert np.abs(a.data - c.data).max() > 0


def test_metadata_out_of_range_rejected():
    backbone = ViTBackbone(tiny_backbone(metadata=True), seed=8)
    with pytest.raises(ShapeError):
        backbone.meta(95.0, 0.0, 1, 2020)
    with pytest.raises(ShapeError):
        backbone.meta(0.0, 200.0, 1, 2020)


@pytest.mark.parametrize("metadata,method", [(False, "linear_probe"), (True, "linear_probe"),
                                             (False, "lora")])
def test_frozen_taps_do_not_depend_on_the_batch(metadata, method):
    """The exactness argument of training's frozen-encoder cache: every tap of
    an image has the same bits in a batch of 8, alone and in the reversed
    batch. Trained rank-4 LoRA maps make narrow GEMMs, whose rounding a
    flattened (B*N, d) product would change."""
    backbone = build_model(tiny_backbone(metadata=metadata), DecoderConfig("linear", 2), method,
                           seed=12, lora_cfg=LoraConfig(rank=4)).backbone
    rng = np.random.default_rng(12)
    for name, t in backbone.named_parameters():
        if name.endswith("lora_b"):
            t.data[...] = rng.normal(scale=0.02, size=t.shape)
    images = rng.normal(size=(8, 6, 64, 64)).astype(np.float32)
    meta = {"lat": rng.uniform(-60, 60, 8), "lon": rng.uniform(-170, 170, 8),
            "day_of_year": rng.integers(1, 366, 8), "year": rng.integers(2015, 2024, 8)}

    def taps(order):
        with no_grad():
            out = backbone.forward_features(*backbone.stem(
                images[order], meta={k: v[order] for k, v in meta.items()}))
        return [t.data for t in out]

    batch = taps(np.arange(8))
    backwards = taps(np.arange(8)[::-1])
    for i in range(8):
        for k, alone in enumerate(taps(np.array([i]))):
            assert np.array_equal(alone[0], batch[k][i]), (i, k)
            assert np.array_equal(backwards[k][7 - i], batch[k][i]), (i, k)


def test_image_embedding_is_token_mean():
    cfg = tiny_backbone()
    backbone = ViTBackbone(cfg, seed=9)
    image = RNG.normal(size=(6, 64, 64)).astype(np.float32)
    emb = backbone.image_embedding(image)
    final = backbone.forward_features(backbone.embed_patches(image))[-1]
    manual = final.data.reshape(-1, 64).mean(axis=0)
    np.testing.assert_allclose(emb, manual, rtol=1e-6)
    assert emb.shape == (64,)


def test_image_embedding_permutation_invariant():
    """Mean over final tokens is invariant to permuting the token axis."""
    cfg = tiny_backbone()
    backbone = ViTBackbone(cfg, seed=10)
    image = RNG.normal(size=(6, 64, 64)).astype(np.float32)
    final = backbone.forward_features(backbone.embed_patches(image))[-1]
    tokens = final.data.reshape(-1, 64)
    perm = RNG.permutation(tokens.shape[0])
    np.testing.assert_allclose(tokens.mean(axis=0), tokens[perm].mean(axis=0), atol=1e-6)


def test_image_embedding_batch_matches_single():
    cfg = tiny_backbone()
    backbone = ViTBackbone(cfg, seed=11)
    images = RNG.normal(size=(3, 6, 64, 64)).astype(np.float32)
    batch = backbone.image_embedding(images)
    singles = np.stack([backbone.image_embedding(images[i]) for i in range(3)])
    np.testing.assert_allclose(batch, singles, atol=1e-5)


# -- deep VPT: prompt rows only supply keys and values -------------------------


def test_vpt_attention_has_no_prompt_queries():
    cfg = tiny_backbone()
    model = build_model(cfg, DecoderConfig("linear", 2), "vpt", seed=0)
    n_p = model.backbone.vpt.prompts[0].shape[0]
    images = RNG.normal(size=(2, 6, 64, 64)).astype(np.float32)
    masks = RNG.integers(0, 2, size=(2, 64, 64))
    loss = F.cross_entropy(model.forward(images, training=True), masks)
    shapes = [node.shape for node in trace(loss).nodes if node.op_id == "softmax"]
    n = cfg.num_patches
    assert shapes == [(2, cfg.heads, n, n_p + n)] * cfg.depth


def test_vpt_prompt_rows_run_once_per_batch():
    """Each block normalizes its prompt block once, at its (1, P, d) shape,
    not once per image: a vpt step at batch 2 runs one more ``layer_norm``
    per block than a full fine-tuning step."""
    cfg = tiny_backbone()
    images = RNG.normal(size=(2, 6, 64, 64)).astype(np.float32)
    masks = RNG.integers(0, 2, size=(2, 64, 64))
    shapes, calls = {}, {}
    for method in ("vpt", "full_finetune"):
        model = build_model(cfg, DecoderConfig("linear", 2), method, seed=0)
        with primitive_calls() as counts:
            loss = F.cross_entropy(model.forward(images, training=True), masks)
            shapes[method] = [node.shape for node in trace(loss).nodes if node.op_id == "layer_norm"]
            backward(loss)
        calls[method] = (counts["layer_norm", "forward"], counts["layer_norm", "backward"])
    n_p, d = VptConfig().prompts_per_layer, cfg.embed_dim
    assert shapes["vpt"].count((1, n_p, d)) == cfg.depth
    assert set(shapes["vpt"]) == {(1, n_p, d), (2, cfg.num_patches, d)}
    assert calls["vpt"][0] == calls["full_finetune"][0] + cfg.depth
    assert calls["vpt"][1] == len(shapes["vpt"])


def _block_grads(block, x, prompts, weights, reference):
    """Output and gradients of sum(weights * out) for x, prompts and every
    block parameter. The block takes the (1, P, d) prompt block; the
    ``reference`` runs the full block on [prompts; x] per image, then slices
    the prompt rows off."""
    b, n, d = x.shape
    block_prompts = F.reshape(prompts, (1,) + prompts.shape)
    if reference:
        rows = F.concat([F.concat([block_prompts] * b, axis=0), x], axis=1)
        n_p = prompts.shape[0]
        out = F.slice_ranges(block(rows), (None, (n_p, n_p + n), None))
    else:
        out = block(x, block_prompts)
    grads = backward(F.sum(F.mul(out, weights)))
    params = dict(block.named_parameters())
    return out.data, grads[x], grads[prompts], {name: grads[t] for name, t in params.items()}


def test_prompt_block_matches_full_block_then_slice():
    """In float64 the output and every gradient match the full block on
    [prompts; x] per image within 1e-12 of each array's largest magnitude.
    Projecting the prompt rows apart changes the GEMMs' rounding, so float32
    results differ in the last bits. The key bias's gradient is zero in exact
    arithmetic (it shifts each query's scores by one constant, which softmax
    ignores), so its rounding noise is measured against the key weight's."""
    cfg = tiny_backbone()
    block = ViTBackbone(cfg, seed=12).blocks[0]
    for _, t in block.named_parameters():
        t.data = t.data.astype(np.float64) + RNG.normal(0.0, 0.02, size=t.shape)
    x = Tensor(RNG.normal(size=(2, cfg.num_patches, 64)), requires_grad=True)
    prompts = Tensor(RNG.uniform(-0.1, 0.1, size=(7, 64)), requires_grad=True)
    weights = Tensor(RNG.normal(size=(2, cfg.num_patches, 64)))
    out, gx, gp, gparams = _block_grads(block, x, prompts, weights, reference=False)
    ref_out, ref_gx, ref_gp, ref_gparams = _block_grads(block, x, prompts, weights, reference=True)
    assert gparams.keys() == ref_gparams.keys() and len(gparams) == 16
    pairs = [("out", out, ref_out), ("x", gx, ref_gx), ("prompts", gp, ref_gp)]
    pairs += [(name, gparams[name], ref_gparams[name]) for name in gparams]
    scale = {name: np.abs(want).max() for name, _, want in pairs}
    scale["attn.k.bias"] = scale["attn.k.weight"]
    for name, got, want in pairs:
        assert got.dtype == np.float64 and got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * scale[name], name


def test_prompt_block_grad_check():
    cfg = BackboneConfig(embed_dim=8, depth=4, heads=2, patch_size=8, band_ids=BANDS6,
                         image_size=(8, 8))
    block = TransformerBlock(np.random.default_rng(13), cfg)
    for _, t in block.named_parameters():
        t.data = RNG.normal(0.0, 0.5, size=t.shape)
    weights = Tensor(RNG.normal(size=(2, 3, 8)))
    x = Tensor(RNG.normal(size=(2, 3, 8)), dtype=np.float64)
    prompts = Tensor(RNG.normal(size=(1, 2, 8)), dtype=np.float64)
    assert grad_check(lambda x: F.sum(F.mul(block(x, prompts), weights)), x, eps=1e-6) <= 1e-6
    assert grad_check(lambda p: F.sum(F.mul(block(x, p), weights)), prompts, eps=1e-6) <= 1e-6


@pytest.mark.parametrize("shape", [(7, 64), (2, 7, 64), (1, 7, 32), (1, 1, 7, 64)])
def test_prompts_of_wrong_shape_rejected(shape):
    block = ViTBackbone(tiny_backbone(), seed=0).blocks[0]
    x = Tensor(np.zeros((2, 5, 64), dtype=np.float32))
    with pytest.raises(ShapeError, match=r"block: prompts .* are not \(1, P, 64\)"):
        block(x, Tensor(np.zeros(shape, dtype=np.float32)))


def test_primitive_rejects_a_non_tensor_input():
    a = Tensor(np.ones(3, dtype=np.float32))
    with pytest.raises(InputTypeError, match="add: input 1 is a ndarray"):
        F.add(a, np.ones(3, dtype=np.float32))


# -- tap selection: the encoder builds only the taps the head reads ------------


def _head_inputs_from_all_taps(model, images):
    """What the head reads, cut from the backbone's full four taps."""
    tokens, adapter_tokens = model.backbone.stem(images)
    taps = model.backbone.forward_features(tokens, adapter_tokens)
    if not model.decoder_cfg.needs_pyramid:
        return taps[-1:]
    if adapter_tokens is not None:
        return [taps[-1], adapter_tokens]
    return taps


@pytest.mark.parametrize("kind", ["linear", "unet", "upernet"])
@pytest.mark.parametrize("method", ["full_finetune", "vit_adapter"])
def test_tap_selection_changes_no_bits(kind, method):
    """Logits, one step's parameter gradients and the image embedding equal
    those computed from all four taps, bit for bit."""
    from peftseg.autodiff import functional as F
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig(kind, 2), method, seed=4,
                        adapter_cfg=VitAdapterConfig(channels=(16, 16, 16)))
    rng = np.random.default_rng(4)
    if model.backbone.adapter is not None:  # zero at init; training moves them
        for injector in model.backbone.adapter.inject.values():
            injector.out.weight.data[:] = rng.normal(scale=0.05, size=injector.out.weight.shape)
    images = rng.normal(size=(3, 6, 32, 32)).astype(np.float32)
    masks = rng.integers(0, 2, size=(3, 32, 32)).astype(np.uint8)

    with no_grad():
        logits = model.forward(images).data
        expected = model.head(_head_inputs_from_all_taps(model, images)).data
    assert np.array_equal(logits, expected)

    def step_grads(logits_of):
        params = dict(model.trainable_parameters())
        for t in params.values():
            t.grad = None
        backward(F.cross_entropy(logits_of(), masks))
        return {name: t.grad for name, t in params.items()}

    grads = step_grads(lambda: model.forward(images, training=True))
    expected = step_grads(lambda: model.head(_head_inputs_from_all_taps(model, images), True))
    assert grads.keys() == expected.keys()
    assert all((grads[n] is None and expected[n] is None) or np.array_equal(grads[n], expected[n])
               for n in grads)
    assert any(g is not None for g in grads.values())

    with no_grad():
        final = model.backbone.forward_features(*model.backbone.stem(images))[-1]
        mean = F.mean(F.reshape(final, (3, 16, 64)), axes=(1,)).data
    assert np.array_equal(model.backbone.image_embedding(images), mean)


def test_encoder_builds_only_the_taps_the_caller_reads(monkeypatch):
    """Four taps for a pyramid head without an adapter; the final tap alone
    for a single-scale head, a ViT-Adapter pyramid head and an embedding."""
    built, real = [], ViTBackbone.forward_features

    def recording(self, *args, **kwargs):
        taps = real(self, *args, **kwargs)
        built.append(len(taps))
        return taps

    monkeypatch.setattr(ViTBackbone, "forward_features", recording)
    image = np.zeros((1, 6, 32, 32), np.float32)
    for kind, method in (("linear", "lora"), ("linear", "vit_adapter"),
                         ("unet", "vit_adapter"), ("unet", "lora")):
        model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig(kind, 2), method,
                            adapter_cfg=VitAdapterConfig(channels=(16, 16, 16)))
        with no_grad():
            model.forward(image)
        model.backbone.image_embedding(image)
    assert built == [1, 1, 1, 1, 1, 1, 4, 1]
