"""PEFT attachments for the ViT backbone and the freeze-policy machinery.

Three attachment families are supported: low-rank adapters on the attention
query/value and MLP projections, deep prompt tokens prepended at every layer,
and a parallel convolutional adapter that injects spatial features through
cross-attention and extracts a three-level feature hierarchy. Attachment is
numerically inert: the adapted forward equals the base forward until the new
parameters move away from their zero initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor, functional as F
from .autodiff.tensor import grad_enabled
from .backbone import ViTBackbone
from .errors import ConfigError, ShapeError
from .nn import Conv2d, Linear, Module, param, zeros_param

LORA_TARGETS = ("attention-query", "attention-value", "mlp-fc1", "mlp-fc2")
_TARGET_ATTR = {"attention-query": ("attn", "q"), "attention-value": ("attn", "v"),
                "mlp-fc1": ("mlp", "fc1"), "mlp-fc2": ("mlp", "fc2")}


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 16
    targets: tuple[str, ...] = LORA_TARGETS
    scaling: float = 1.0

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError(f"LoRA rank must be >= 1, got {self.rank}")
        if not np.isfinite(self.scaling) or self.scaling == 0:
            raise ConfigError(f"LoRA scaling must be finite and non-zero, got {self.scaling}")
        if not self.targets:
            raise ConfigError("LoRA needs at least one target")
        bad = [t for t in self.targets if t not in LORA_TARGETS]
        if bad:
            raise ConfigError(f"unknown LoRA targets {bad}; valid: {list(LORA_TARGETS)}")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class VptConfig:
    prompts_per_layer: int = 100

    def __post_init__(self):
        if self.prompts_per_layer < 1:
            raise ConfigError(f"prompts_per_layer must be >= 1, got {self.prompts_per_layer}")


@dataclass(frozen=True)
class VitAdapterConfig:
    channels: tuple[int, int, int] = (256, 256, 256)  # stride 8 / 16 / 32 widths
    injection_layers: tuple[int, ...] = ()  # empty -> backbone tap layers

    def __post_init__(self):
        if len(self.channels) != 3 or any(c < 1 for c in self.channels):
            raise ConfigError(f"adapter needs 3 positive pyramid widths, got {self.channels}")
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "injection_layers", tuple(self.injection_layers))
        repeated = sorted({i for i in self.injection_layers if self.injection_layers.count(i) > 1})
        if repeated:
            raise ConfigError(f"adapter injection layers {repeated} repeat; each layer injects once")


class LoraLinear(Module):
    """Wraps a frozen linear map with an additive low-rank update.

    The up matrix starts at exact zeros, so the wrapped forward equals the
    base forward at attachment time; the down matrix is Gaussian. Training
    runs the two low-rank products beside the base, so no dense (d_out, d_in)
    weight gradient is built; a forward-only pass runs on the merged weight.
    """

    def __init__(self, rng: np.random.Generator, base: Linear, rank: int, scaling: float):
        d_out, d_in = base.weight.shape
        self.base = base
        self.lora_a = param(rng, (rank, d_in), std=0.02)
        self.lora_b = zeros_param((d_out, rank))
        self.scaling = scaling

    def __call__(self, x: Tensor) -> Tensor:
        if not grad_enabled():  # one matmul, on the weight merge_lora writes
            return F.linear(x, Tensor(self.merged_weight()), self.base.bias)
        # the base matmul runs first: x's gradient sums its terms in reverse node order
        y = self.base(x)
        down = F.matmul(x, self.lora_a, transpose_b=True)
        if self.scaling == 1.0:  # the up-projection adds y into its own output
            return F.matmul(down, self.lora_b, y, transpose_b=True)
        return F.add(y, F.scale(F.matmul(down, self.lora_b, transpose_b=True), self.scaling))

    def merged_weight(self) -> np.ndarray:
        return self.base.weight.data + np.float32(self.scaling) * (self.lora_b.data @ self.lora_a.data)

    def _tree(self) -> dict:
        # base weights keep their encoder names so checkpoints stay compatible;
        # the attachment names lora_a and lora_b under peft.lora.*
        return self.base._tree()


@dataclass
class LoraAttachment(Module):
    layers: list[tuple[str, LoraLinear]] = field(default_factory=list)

    def _tree(self) -> dict:
        return {path: {"lora_a": layer.lora_a, "lora_b": layer.lora_b}
                for path, layer in self.layers}


class VptAttachment(Module):
    """Fresh prompt block per transformer layer (deep prompting)."""

    def __init__(self, rng: np.random.Generator, cfg: VptConfig, depth: int, embed_dim: int):
        self.prompts = [
            Tensor(rng.uniform(-0.1, 0.1, size=(cfg.prompts_per_layer, embed_dim)).astype(np.float32),
                   requires_grad=True)
            for _ in range(depth)
        ]


class CrossAttention(Module):
    """Single-head cross-attention; output projection starts at zero so the
    module is silent at attachment time."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.q = Linear(rng, dim, dim)
        self.k = Linear(rng, dim, dim)
        self.v = Linear(rng, dim, dim)
        self.out = Linear(rng, dim, dim)
        self.out.weight.data[:] = 0.0

    def __call__(self, queries: Tensor, context: Tensor) -> Tensor:
        return self.out(F.attention(self.q(queries), self.k(context), self.v(context)))


class VitAdapterAttachment(Module):
    """Convolutional spatial prior with cross-attention interaction.

    A strided conv stem turns the raw image into a three-level pyramid at
    strides 8/16/32; the levels are projected to the token width and injected
    into the ViT stream before the configured layers. After the final layer an
    extractor attends back from the adapter tokens to the ViT tokens, and the
    updated tokens are folded back into the pyramid maps.
    """

    def __init__(self, rng: np.random.Generator, cfg: VitAdapterConfig, backbone_cfg):
        d = backbone_cfg.embed_dim
        c_in = len(backbone_cfg.band_ids)
        c8, c16, c32 = cfg.channels
        w_a = max(c8 // 4, 8)
        w_b = max(c8 // 2, 8)
        self.stem = [
            Conv2d(rng, c_in, w_a, 3, stride=2, padding=1),
            Conv2d(rng, w_a, w_b, 3, stride=2, padding=1),
            Conv2d(rng, w_b, c8, 3, stride=2, padding=1),
            Conv2d(rng, c8, c16, 3, stride=2, padding=1),
            Conv2d(rng, c16, c32, 3, stride=2, padding=1),
        ]
        self.proj = [Conv2d(rng, c, d, 1) for c in cfg.channels]
        self.injection_layers = tuple(cfg.injection_layers) or backbone_cfg.tap_layers
        bad = [i for i in self.injection_layers if not 1 <= i <= backbone_cfg.depth]
        if bad:
            raise ConfigError(f"injection layers {bad} outside [1, {backbone_cfg.depth}]")
        self.inject = {layer: CrossAttention(rng, d) for layer in self.injection_layers}
        self.extract = CrossAttention(rng, d)
        h, w = backbone_cfg.image_size
        if h % 32 or w % 32:
            raise ConfigError(f"adapter stem needs an image size divisible by 32, got ({h},{w})")
        self._level_hw = [(h // s, w // s) for s in (8, 16, 32)]

    def stem_tokens(self, images: Tensor) -> Tensor:
        """Flattened adapter token sequence (B, N8+N16+N32, d)."""
        h, w = images.shape[2], images.shape[3]
        if (h // 8, w // 8) != self._level_hw[0]:
            raise ShapeError(f"adapter stem built for {self._level_hw[0]} at stride 8, got ({h},{w})")
        x = images
        levels = []
        for i, conv in enumerate(self.stem):
            x = F.relu(conv(x))
            if i >= 2:
                levels.append(x)
        tokens = []
        for level, pr in zip(levels, self.proj):
            t = pr(level)  # (B, d, h, w)
            b, d, lh, lw = t.shape
            tokens.append(F.reshape(F.transpose(t, (0, 2, 3, 1)), (b, lh * lw, d)))
        return F.concat(tokens, axis=1)

    def pyramid(self, adapter_tokens: Tensor, final_tokens: Tensor) -> list[Tensor]:
        """Three channel-first maps at strides 8/16/32 after extraction."""
        updated = F.add(adapter_tokens, self.extract(adapter_tokens, final_tokens))
        b, _, d = updated.shape
        maps = []
        offset = 0
        for lh, lw in self._level_hw:
            n = lh * lw
            chunk = F.slice_ranges(updated, (None, (offset, offset + n), None))
            maps.append(F.transpose(F.reshape(chunk, (b, lh, lw, d)), (0, 3, 1, 2)))
            offset += n
        return maps


# ---------------------------------------------------------------------------
# attachment operations


def attach_lora(backbone: ViTBackbone, cfg: LoraConfig, seed: int = 0) -> ViTBackbone:
    """Wrap the configured linear maps of every block; forward is unchanged
    until the adapters train (the up matrices start at zero)."""
    if backbone.lora is not None:
        raise ConfigError("backbone already has low-rank adapters attached")
    rng = np.random.default_rng(seed)
    attachment = LoraAttachment()
    for i, block in enumerate(backbone.blocks):
        for target in cfg.targets:
            group, attr = _TARGET_ATTR[target]
            layers = getattr(block, group)
            base = layers.get(attr)
            if not isinstance(base, Linear):
                raise ConfigError(f"target {target!r} absent in backbone block {i}")
            wrapped = LoraLinear(rng, base, cfg.rank, cfg.scaling)
            layers[attr] = wrapped
            attachment.layers.append((f"blocks.{i}.{group}.{attr}", wrapped))
    backbone.lora = attachment
    return backbone


def merge_lora(backbone: ViTBackbone) -> ViTBackbone:
    """Materialize every effective weight and drop the wrappers. Calling this
    on a backbone without adapters is a no-op, so merging is idempotent."""
    if backbone.lora is None:
        return backbone
    for block in backbone.blocks:
        for layers in (block.attn, block.mlp):
            for attr, layer in layers.items():
                if isinstance(layer, LoraLinear):
                    layer.base.weight.data[...] = layer.merged_weight()
                    layers[attr] = layer.base
    backbone.lora = None
    return backbone


def attach_vpt(backbone: ViTBackbone, cfg: VptConfig, seed: int = 0) -> ViTBackbone:
    if backbone.vpt is not None:
        raise ConfigError("backbone already has prompt blocks attached")
    rng = np.random.default_rng(seed)
    backbone.vpt = VptAttachment(rng, cfg, backbone.cfg.depth, backbone.cfg.embed_dim)
    return backbone


def attach_vit_adapter(backbone: ViTBackbone, cfg: VitAdapterConfig, seed: int = 0) -> ViTBackbone:
    if backbone.adapter is not None:
        raise ConfigError("backbone already has a convolutional adapter attached")
    rng = np.random.default_rng(seed)
    backbone.adapter = VitAdapterAttachment(rng, cfg, backbone.cfg)
    return backbone


# ---------------------------------------------------------------------------
# freeze policies


@dataclass(frozen=True)
class Method:
    """One freeze policy: where its attachment lives and what it trains."""
    attr: str | None  # backbone attribute holding the attachment; also its peft.<attr>. namespace
    attach: Callable | None
    config: type | None
    trains_encoder: bool = False


METHODS = {
    "full_finetune": Method(None, None, None, trains_encoder=True),
    "linear_probe": Method(None, None, None),
    "lora": Method("lora", attach_lora, LoraConfig),
    "vpt": Method("vpt", attach_vpt, VptConfig),
    "vit_adapter": Method("adapter", attach_vit_adapter, VitAdapterConfig),
}
POLICIES = tuple(METHODS)
_ALIASES = {"full_fine_tune": "full_finetune"}
# ViT-Adapter's extractor feeds only the pyramid, which single-scale heads never read
EXTRACTOR = "peft.adapter.extract."


def normalize_policy(name: str) -> str:
    """The canonical policy name: hyphens read as underscores, plus aliases."""
    norm = name.replace("-", "_")
    norm = _ALIASES.get(norm, norm)
    if norm not in METHODS:
        raise ConfigError(f"unknown freeze policy {name!r}; valid: {list(POLICIES)}")
    return norm


def attachment_config(policy: str, *configs):
    """The policy's attachment config: the one of ``configs`` of its class, or
    that class's default; None for a policy without an attachment."""
    cls = METHODS[normalize_policy(policy)].config
    if cls is None:
        return None
    return next((c for c in configs if isinstance(c, cls)), None) or cls()


def attachment_kind(backbone: ViTBackbone) -> str | None:
    """The policy whose attachment the backbone carries, if any."""
    return next((policy for policy, m in METHODS.items()
                 if m.attr is not None and getattr(backbone, m.attr) is not None), None)


def policy_trains(policy: str, name: str) -> bool:
    """Whether a parameter name belongs to the policy's trainable set."""
    method = METHODS[normalize_policy(policy)]
    return (method.trains_encoder or name.startswith(("neck.", "decoder."))
            or method.attr is not None and name.startswith(f"peft.{method.attr}."))


def head_trains(policy: str, decoder_cfg, name: str) -> bool:
    """``policy_trains`` with the head in place: a single-scale head leaves
    the extractor frozen, since nothing it reads depends on it."""
    return policy_trains(policy, name) and (decoder_cfg.needs_pyramid
                                            or not name.startswith(EXTRACTOR))


def apply_freeze_policy(model, policy: str):
    """Mark exactly the policy's trainable set; everything else never enters
    the tape, so frozen values stay bit-identical across optimization."""
    policy = normalize_policy(policy)
    kind = attachment_kind(model.backbone)
    needed = policy if METHODS[policy].attr else None
    if kind != needed:
        raise ConfigError(f"policy {policy!r} expects attachment {needed!r}, found {kind!r}")
    for name, tensor in model.named_parameters():
        tensor.requires_grad = head_trains(policy, model.decoder_cfg, name)
    model.policy = policy
    return model


@dataclass(frozen=True)
class ParameterReport:
    total: int
    trainable: int
    encoder: int
    neck: int
    decoder: int
    per_attachment: dict
    trainable_fraction: float
    encoder_trainable_fraction: float

    def attachment_total(self) -> int:
        return sum(self.per_attachment.values())


def count_parameters(model) -> ParameterReport:
    """Exact element counts per component, plus trainable fractions."""
    groups = {"encoder": 0, "neck": 0, "decoder": 0}
    per_attachment: dict[str, int] = {}
    total = trainable = encoder_trainable = 0
    for name, tensor in model.named_parameters():
        n = tensor.size
        total += n
        if tensor.requires_grad:
            trainable += n
        head = name.split(".", 1)[0]
        if head == "peft":
            kind = name.split(".")[1]
            per_attachment[kind] = per_attachment.get(kind, 0) + n
        elif head in groups:
            groups[head] += n
        if head == "encoder" and tensor.requires_grad:
            encoder_trainable += n
    return ParameterReport(
        total=total,
        trainable=trainable,
        encoder=groups["encoder"],
        neck=groups["neck"],
        decoder=groups["decoder"],
        per_attachment=per_attachment,
        trainable_fraction=trainable / total if total else 0.0,
        encoder_trainable_fraction=encoder_trainable / groups["encoder"] if groups["encoder"] else 0.0,
    )
