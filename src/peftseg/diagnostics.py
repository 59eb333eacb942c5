"""Generalization diagnostics and analytic parameter/memory accounting.

The distance report quantifies geographic shift: for every sample of a split,
the minimum Euclidean distance from its image embedding to any training
embedding, averaged per split (exhaustive search; split sizes are small at
desk scale). The parameter/memory report combines closed-form parameter
counts with a tape-trace activation estimate so the footprint ordering of the
freeze policies is visible without a GPU.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import trace
from .backbone import BackboneConfig
# unused here, but benchmark/tracer.py patches normalize, reflect_pad_to, subset_bands here
from .data import DatasetManifest, normalize, reflect_pad_to, subset_bands
from .decoders import DecoderConfig, build_head
from .errors import ConfigError, DataError
from .model import SegmentationModel, build_model
from .peft import (EXTRACTOR, METHODS, POLICIES, LoraConfig, VitAdapterConfig, VptConfig,
                   attachment_config, head_trains, normalize_policy)
from .training import SplitView, assemble_batch, batches

EMBED_BATCH = 32  # images per embedding forward


# ---------------------------------------------------------------------------
# embeddings


def split_embeddings(model: SegmentationModel, manifest: DatasetManifest, split: str,
                     bands=None) -> tuple[list[str], list[str], np.ndarray]:
    """Image embeddings for one split: (sample_ids, regions, (n, d) matrix).

    The split is read through a ``SplitView``, ``EMBED_BATCH`` samples at a
    time, and a batch's samples are dropped once stacked, so memory does not
    grow with the split beyond the embedding rows."""
    samples = SplitView(manifest, split, bands, model.backbone.cfg.image_size)
    regions, rows = [], []
    for idx in batches(list(range(len(samples))), EMBED_BATCH):
        batch = [samples[i] for i in idx]
        regions += [s.region for s in batch]
        stacked = assemble_batch(batch, range(len(batch)))
        del batch  # the forward reads only the stacked images
        _, meta, batch_bands = stacked[1:]
        rows.append(model.backbone.image_embedding(stacked.pop(0), batch_bands, meta)
                    .astype(np.float64))
    return samples.ids, regions, np.concatenate(rows)


def export_embeddings(model: SegmentationModel, manifest: DatasetManifest, split: str,
                      out_path=None, bands=None) -> list[tuple]:
    """One row per sample: (sample_id, region, embedding). Optionally as CSV."""
    ids, regions, matrix = split_embeddings(model, manifest, split, bands)
    rows = list(zip(ids, regions, matrix))
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        dim = matrix.shape[1]
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "region"] + [f"e{i}" for i in range(dim)])
            for sid, region, emb in rows:
                writer.writerow([sid, region] + [f"{v:.8g}" for v in emb])
    return rows


def min_distances_to_train(queries: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbor distance per query row (exhaustive)."""
    out = np.empty(queries.shape[0], dtype=np.float64)
    for i, q in enumerate(queries):
        d2 = ((train - q) ** 2).sum(axis=1)
        out[i] = np.sqrt(d2.min())
    return out


@dataclass(frozen=True)
class DistanceReport:
    """Mean min-distance to the training set per split; ghos only when present."""
    val: float
    test: float
    ghos: float | None

    def as_dict(self) -> dict:
        out = {"val": self.val, "test": self.test}
        if self.ghos is not None:
            out["ghos"] = self.ghos
        return out


def distance_report(model: SegmentationModel, manifest: DatasetManifest,
                    bands=None) -> DistanceReport:
    if not manifest.split_ids("train"):
        raise DataError("train split is empty; nothing to measure distances against")
    _, _, train_emb = split_embeddings(model, manifest, "train", bands)
    means = {}
    for split in ("val", "test", "ghos"):
        if not manifest.has_split(split):
            if split == "ghos":
                continue
            raise DataError(f"split {split!r} is empty")
        _, _, emb = split_embeddings(model, manifest, split, bands)
        means[split] = float(min_distances_to_train(emb, train_emb).mean())
    return DistanceReport(val=means["val"], test=means["test"], ghos=means.get("ghos"))


# ---------------------------------------------------------------------------
# closed-form parameter counts


def encoder_param_count(cfg: BackboneConfig) -> int:
    d = cfg.embed_dim
    hidden = cfg.mlp_hidden
    count = len(cfg.band_ids) * cfg.patch_size ** 2 * d + d  # band slabs + shared bias
    count += cfg.num_patches * d                             # positional table
    if cfg.metadata_enabled:
        count += 3 * (2 * d + d) + (d + d)                   # lat/lon/day (2->d), year (1->d)
    per_block = 4 * (d * d + d) + (d * hidden + hidden) + (hidden * d + d) + 4 * d
    return count + cfg.depth * per_block


def lora_param_count(cfg: BackboneConfig, lora: LoraConfig) -> int:
    d = cfg.embed_dim
    hidden = cfg.mlp_hidden
    dims = {"attention-query": (d, d), "attention-value": (d, d),
            "mlp-fc1": (d, hidden), "mlp-fc2": (hidden, d)}
    per_layer = sum(lora.rank * (din + dout) for din, dout in
                    (dims[t] for t in lora.targets))
    return cfg.depth * per_layer


def vpt_param_count(cfg: BackboneConfig, vpt: VptConfig) -> int:
    return cfg.depth * vpt.prompts_per_layer * cfg.embed_dim


def cross_attention_param_count(d: int) -> int:
    return 4 * (d * d + d)


def adapter_param_count(cfg: BackboneConfig, adapter: VitAdapterConfig) -> int:
    d = cfg.embed_dim
    c_in = len(cfg.band_ids)
    c8, c16, c32 = adapter.channels
    w_a = max(c8 // 4, 8)
    w_b = max(c8 // 2, 8)
    stem_dims = [(c_in, w_a), (w_a, w_b), (w_b, c8), (c8, c16), (c16, c32)]
    count = sum(co * ci * 9 + co for ci, co in stem_dims)
    count += sum(d * c + d for c in adapter.channels)       # 1x1 projections
    n_blocks = len(adapter.injection_layers or cfg.tap_layers) + 1  # injectors + extractor
    return count + n_blocks * cross_attention_param_count(d)


_CLOSED_FORMS = {LoraConfig: lora_param_count, VptConfig: vpt_param_count,
                 VitAdapterConfig: adapter_param_count}


def peft_param_count(cfg: BackboneConfig, method: str, lora: LoraConfig | None = None,
                     vpt: VptConfig | None = None,
                     adapter: VitAdapterConfig | None = None) -> int:
    config = attachment_config(method, lora, vpt, adapter)
    return 0 if config is None else _CLOSED_FORMS[type(config)](cfg, config)


def head_param_counts(backbone_cfg: BackboneConfig, decoder_cfg: DecoderConfig,
                      adapter_attached: bool = False) -> tuple[int, int]:
    """(neck params, decoder params) for the configured head."""
    neck, decoder = build_head(np.random.default_rng(0), decoder_cfg, backbone_cfg.embed_dim,
                               backbone_cfg.patch_size, adapter_attached)
    neck_params = sum(t.size for _, t in neck.named_parameters()) if neck else 0
    return neck_params, sum(t.size for _, t in decoder.named_parameters())


# ---------------------------------------------------------------------------
# activation accounting


def traced_activation_elements(model: SegmentationModel, batch_size: int) -> int:
    """Elements of every output one forward produces on the tape, scaled by batch size.

    Frozen subgraphs never enter the tape, so the estimate shrinks with the
    freeze policy. It counts what the forward pass produces, not the bytes
    the tape holds: a node keeps an input's array only when its backward
    rule reads it, so an output no rule reads is freed before backward runs.
    """
    cfg = model.backbone.cfg
    h, w = cfg.image_size
    dummy = np.zeros((1, len(cfg.band_ids), h, w), dtype=np.float32)
    logits = model.forward(dummy, training=True)
    if logits.node is None:
        return 0
    total = sum(node.output.size for node in trace(logits).nodes)
    return total * batch_size


def parameter_memory_report(backbone_cfg: BackboneConfig, decoder_cfg: DecoderConfig,
                            batch_size: int = 8, methods=None,
                            lora: LoraConfig | None = None, vpt: VptConfig | None = None,
                            adapter: VitAdapterConfig | None = None,
                            include_activations: bool = True) -> list[dict]:
    """One row per freeze policy: exact parameter counts, trainable-state
    element counts (grads + optimizer moments), and the activation estimate."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    encoder = encoder_param_count(backbone_cfg)
    rows = []
    for method in map(normalize_policy, methods or POLICIES):
        peft = peft_param_count(backbone_cfg, method, lora, vpt, adapter)
        has_adapter = METHODS[method].config is VitAdapterConfig
        neck_params, decoder_params = head_param_counts(backbone_cfg, decoder_cfg, has_adapter)
        total = encoder + peft + neck_params + decoder_params
        # counts by name prefix, so the freeze policy's own rule picks the trainable ones
        extractor = cross_attention_param_count(backbone_cfg.embed_dim) if has_adapter else 0
        parts = {"encoder.": encoder, f"peft.{METHODS[method].attr}.": peft - extractor,
                 EXTRACTOR: extractor, "neck.": neck_params, "decoder.": decoder_params}
        trainable = sum(n for prefix, n in parts.items()
                        if head_trains(method, decoder_cfg, prefix))
        row = {
            "method": method,
            "encoder_params": encoder,
            "peft_params": peft,
            "peft_pct_of_encoder": 100.0 * peft / encoder,
            "neck_params": neck_params,
            "decoder_params": decoder_params,
            "total_params": total,
            "trainable_params": trainable,
            "trainable_pct": 100.0 * trainable / total,
            "grad_elements": trainable,
            "optimizer_state_elements": 2 * trainable,
        }
        if include_activations:
            model = build_model(backbone_cfg, decoder_cfg, method,
                                lora_cfg=lora, vpt_cfg=vpt, adapter_cfg=adapter)
            row["activation_elements_per_batch"] = traced_activation_elements(model, batch_size)
        rows.append(row)
    return rows


def format_param_display(count: int) -> str:
    """Raw count plus the M-rounded display used in reports."""
    return f"{count} ({count / 1e6:.1f}M)"
