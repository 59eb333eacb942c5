"""Embeddings export, distance report, parameter/memory accounting."""

import csv

import numpy as np
import pytest

from peftseg.backbone import ViTBackbone
from peftseg.data import normalize
from peftseg.decoders import DecoderConfig
from peftseg.diagnostics import (EMBED_BATCH, adapter_param_count, distance_report,
                                 encoder_param_count, export_embeddings, head_param_counts,
                                 lora_param_count, min_distances_to_train,
                                 parameter_memory_report, peft_param_count,
                                 split_embeddings, traced_activation_elements,
                                 vpt_param_count)
from peftseg.errors import ConfigError
from peftseg.model import build_model
from peftseg.peft import (POLICIES, LoraConfig, VitAdapterConfig, VptConfig, apply_freeze_policy,
                          count_parameters, policy_trains)

from conftest import TINY_ADAPTER, tiny_backbone, traced_peak, with_split


@pytest.fixture(scope="module")
def diag_model(desk_manifest, desk_backbone):
    return build_model(desk_backbone, DecoderConfig("linear", 2), "full_finetune", seed=0)


def test_export_rows_and_csv(tmp_path, diag_model, desk_manifest):
    path = tmp_path / "emb.csv"
    rows = export_embeddings(diag_model, desk_manifest, "val", out_path=path)
    assert len(rows) == len(desk_manifest.split_ids("val"))
    assert all(vec.shape == (64,) for _, _, vec in rows)
    with open(path) as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0][:2] == ["sample_id", "region"]
    assert len(parsed[0]) == 2 + 64
    assert len(parsed) == 1 + len(rows)


def test_identical_samples_identical_rows(diag_model, desk_manifest):
    sid = desk_manifest.split_ids("val")[0]
    sample = normalize(desk_manifest.load_sample(sid), desk_manifest.band_stats)
    a = diag_model.backbone.image_embedding(sample.image, sample.bands)
    b = diag_model.backbone.image_embedding(sample.image, sample.bands)
    np.testing.assert_array_equal(a, b)


def test_split_embeddings_match_single_image_path(desk_manifest, desk_backbone):
    model = build_model(desk_backbone, DecoderConfig("linear", 2), "vit_adapter", seed=0,
                        adapter_cfg=TINY_ADAPTER)
    rng = np.random.default_rng(0)
    for injector in model.backbone.adapter.inject.values():  # zero at init; training moves them
        injector.out.weight.data[:] = rng.normal(scale=0.05, size=injector.out.weight.shape)
    ids, regions, emb = split_embeddings(model, desk_manifest, "val")
    assert ids == desk_manifest.split_ids("val")
    for sid, region, row in zip(ids, regions, emb):
        sample = normalize(desk_manifest.load_sample(sid), desk_manifest.band_stats)
        assert region == sample.region
        np.testing.assert_array_equal(row, model.backbone.image_embedding(sample.image))


def test_split_embeddings_memory_does_not_grow_with_the_split(stream_manifest):
    """Four embedding batches peak less than one batch of images above one
    batch: the split is read a batch at a time and only the rows are kept."""
    model = build_model(tiny_backbone(image=(32, 32)), DecoderConfig("linear", 2), "lora")
    one, four = (with_split(stream_manifest, "val", n) for n in (EMBED_BATCH, 4 * EMBED_BATCH))
    growth = (traced_peak(lambda: split_embeddings(model, four, "val"))
              - traced_peak(lambda: split_embeddings(model, one, "val")))
    assert growth < EMBED_BATCH * 6 * 32 * 32 * 4


def test_constant_image_embedding_matches_direct_path(desk_backbone):
    """A constant (all-zero normalized) image exercises only bias + position,
    so the embedding equals the forward of exactly that path."""
    backbone = ViTBackbone(desk_backbone, seed=3)
    zero = np.zeros((6, 64, 64), dtype=np.float32)
    emb = backbone.image_embedding(zero)
    tokens = backbone.patch_embed.bias.data[None, :] + backbone.patch_embed.pos_table.data
    from peftseg.autodiff import Tensor
    direct = backbone.forward_features(Tensor(tokens))[-1]
    np.testing.assert_allclose(emb, direct.data.reshape(-1, 64).mean(axis=0), atol=1e-6)


def test_min_distance_brute_force_exact():
    train = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[1.0, 1.0]])
    out = min_distances_to_train(queries, train)
    np.testing.assert_array_equal(out, [1.0])


def test_distance_report_equals_independent_brute_force(diag_model, desk_manifest):
    report = distance_report(diag_model, desk_manifest)
    _, _, train_emb = split_embeddings(diag_model, desk_manifest, "train")
    for split, value in report.as_dict().items():
        _, _, emb = split_embeddings(diag_model, desk_manifest, split)
        mins = []
        for q in emb:
            best = np.inf
            for t in train_emb:
                d2 = ((t - q) ** 2).sum()
                best = min(best, d2)
            mins.append(np.sqrt(best))
        assert value == float(np.mean(mins)), split


def test_duplicate_of_train_sample_has_zero_distance():
    train = np.array([[2.0, 3.0], [5.0, 1.0]])
    assert min_distances_to_train(train[:1], train)[0] == 0.0


def test_ghos_row_only_when_split_exists(diag_model, desk_manifest):
    report = distance_report(diag_model, desk_manifest)
    assert report.ghos is not None
    import copy
    manifest = copy.copy(desk_manifest)
    manifest.splits = {sid: s for sid, s in desk_manifest.splits.items() if s != "ghos"}
    no_ghos = distance_report(diag_model, manifest)
    assert no_ghos.ghos is None
    assert "ghos" not in no_ghos.as_dict()


# ---------------------------------------------------------------------------
# parameter/memory accounting


def test_closed_forms_match_constructed_models():
    cfg = tiny_backbone()
    for method, extra in (("lora", {"lora_cfg": LoraConfig(rank=4)}),
                          ("vpt", {"vpt_cfg": VptConfig(prompts_per_layer=9)}),
                          ("vit_adapter", {"adapter_cfg": TINY_ADAPTER})):
        model = build_model(cfg, DecoderConfig("unet", 2), method, **extra)
        report = count_parameters(model)
        expected = peft_param_count(cfg, method,
                                    lora=extra.get("lora_cfg"), vpt=extra.get("vpt_cfg"),
                                    adapter=extra.get("adapter_cfg"))
        assert report.attachment_total() == expected, method
        assert report.encoder == encoder_param_count(cfg)


def test_closed_form_table_values():
    from peftseg.backbone import vit_base_config, vit_large_config
    bands = tuple(f"b{i}" for i in range(6))
    vit_b = vit_base_config(bands)
    vit_l = vit_large_config(bands)
    assert vpt_param_count(vit_b, VptConfig()) == 921_600
    assert lora_param_count(vit_b, LoraConfig()) == 2_064_384
    assert vpt_param_count(vit_l, VptConfig()) == 2_457_600
    assert lora_param_count(vit_l, LoraConfig()) == 5_505_024


def test_metadata_embedding_counts():
    with_meta = encoder_param_count(tiny_backbone(metadata=True))
    without = encoder_param_count(tiny_backbone(metadata=False))
    d = 64
    assert with_meta - without == 3 * (2 * d + d) + (d + d)


# alternative spellings, each with the canonical name it means
ALIASES = {"full-finetune": "full_finetune", "full_fine_tune": "full_finetune",
           "full-fine-tune": "full_finetune", "linear-probe": "linear_probe",
           "vit-adapter": "vit_adapter"}


def test_report_trainable_matches_built_model(desk_backbone):
    for kind in ("linear", "unet"):
        dec_cfg = DecoderConfig(kind, 2)
        rows = parameter_memory_report(desk_backbone, dec_cfg, adapter=TINY_ADAPTER,
                                       include_activations=False)
        for row in rows:
            model = build_model(desk_backbone, dec_cfg, row["method"], adapter_cfg=TINY_ADAPTER)
            assert count_parameters(model).trainable == row["trainable_params"], \
                (kind, row["method"])
        rows = parameter_memory_report(desk_backbone, dec_cfg, methods=tuple(ALIASES),
                                       adapter=TINY_ADAPTER, include_activations=False)
        for alias, row in zip(ALIASES, rows):
            model = build_model(desk_backbone, dec_cfg, alias, adapter_cfg=TINY_ADAPTER)
            assert count_parameters(model).trainable == row["trainable_params"], (kind, alias)


def test_report_rows_of_aliases_equal_the_canonical_rows(desk_backbone):
    for kind in ("linear", "unet"):
        dec_cfg = DecoderConfig(kind, 2)
        for alias in ("full-finetune", "vit-adapter", "full_fine_tune"):
            rows = [parameter_memory_report(desk_backbone, dec_cfg, methods=(name,),
                                            adapter=TINY_ADAPTER, include_activations=True)
                    for name in (alias, ALIASES[alias])]
            assert rows[0] == rows[1], (kind, alias)
        with pytest.raises(ConfigError):
            parameter_memory_report(desk_backbone, dec_cfg, methods=("bogus",),
                                    include_activations=False)


def test_policy_entry_points_agree_on_every_spelling(desk_backbone):
    """The report, policy_trains, apply_freeze_policy, build_model and
    peft_param_count give one answer per policy, whatever its spelling."""
    dec_cfg = DecoderConfig("unet", 2)  # a pyramid head freezes nothing the policy trains
    for name in POLICIES + tuple(ALIASES):
        model = build_model(desk_backbone, dec_cfg, name, adapter_cfg=TINY_ADAPTER)
        assert model.policy == ALIASES.get(name, name)
        assert all(t.requires_grad == policy_trains(name, n) for n, t in model.named_parameters())
        assert apply_freeze_policy(model, name) is model
        report = count_parameters(model)
        assert peft_param_count(desk_backbone, name, adapter=TINY_ADAPTER) == \
            report.attachment_total()
        [row] = parameter_memory_report(desk_backbone, dec_cfg, methods=(name,),
                                        adapter=TINY_ADAPTER, include_activations=False)
        assert row["method"] == model.policy and row["trainable_params"] == report.trainable
    model = build_model(desk_backbone, dec_cfg, "lora")
    for call in (lambda: build_model(desk_backbone, dec_cfg, "bogus"),
                 lambda: policy_trains("bogus", "decoder.head.weight"),
                 lambda: apply_freeze_policy(model, "bogus"),
                 lambda: peft_param_count(desk_backbone, "bogus")):
        with pytest.raises(ConfigError):
            call()


def test_report_rows_and_footprint_ordering(desk_backbone):
    rows = parameter_memory_report(desk_backbone, DecoderConfig("linear", 2),
                                   batch_size=8, adapter=TINY_ADAPTER,
                                   include_activations=True)
    by_method = {row["method"]: row for row in rows}
    full = by_method["full_finetune"]
    lora = by_method["lora"]
    probe = by_method["linear_probe"]
    # trainable-state footprint ordering: full >= lora >= linear probe
    assert full["optimizer_state_elements"] >= lora["optimizer_state_elements"]
    assert lora["optimizer_state_elements"] >= probe["optimizer_state_elements"]
    assert probe["optimizer_state_elements"] < full["optimizer_state_elements"]
    # percentages follow the table convention (peft / encoder)
    assert lora["peft_pct_of_encoder"] == pytest.approx(
        100.0 * lora["peft_params"] / lora["encoder_params"])
    # activation estimate shrinks when the encoder is frozen out of the tape
    assert probe["activation_elements_per_batch"] < full["activation_elements_per_batch"]


def test_traced_activation_scales_with_batch(desk_backbone):
    model = build_model(desk_backbone, DecoderConfig("linear", 2), "full_finetune", seed=0)
    one = traced_activation_elements(model, 1)
    eight = traced_activation_elements(model, 8)
    assert eight == 8 * one


@pytest.mark.parametrize("batch_size", [0, -3])
def test_report_rejects_a_batch_size_below_one_before_building_a_model(desk_backbone, monkeypatch,
                                                                        batch_size):
    """-3 used to give a negative activation estimate."""
    from peftseg import diagnostics

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(diagnostics, "build_model", no_model)
    with pytest.raises(ConfigError, match="batch size"):
        parameter_memory_report(desk_backbone, DecoderConfig("linear", 2), batch_size=batch_size)


def test_traced_activation_matches_manual_tape_sum(desk_backbone):
    from peftseg.autodiff import trace
    model = build_model(desk_backbone, DecoderConfig("linear", 2), "full_finetune", seed=0)
    h, w = desk_backbone.image_size
    dummy = np.zeros((1, 6, h, w), dtype=np.float32)
    logits = model.forward(dummy, training=True)
    manual = sum(node.output.size for node in trace(logits).nodes)
    assert traced_activation_elements(model, 1) == manual


def test_adapter_percentage_for_large_shape_in_band():
    from peftseg.backbone import vit_large_config
    cfg = vit_large_config(tuple(f"b{i}" for i in range(6)))
    ratio = adapter_param_count(cfg, VitAdapterConfig()) / encoder_param_count(cfg)
    assert 0.05 <= ratio <= 0.15


def test_head_param_counts_match_estimate():
    cfg = tiny_backbone()
    for kind in ("linear", "fcn", "upernet", "unet"):
        dec_cfg = DecoderConfig(kind, 3)
        neck_params, decoder_params = head_param_counts(cfg, dec_cfg)
        report = count_parameters(build_model(cfg, dec_cfg, "full_finetune", seed=0))
        assert (neck_params, decoder_params) == (report.neck, report.decoder)
