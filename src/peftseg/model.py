"""Composition of backbone, PEFT attachment, neck, and decoder head.

The model owns the flat parameter namespace (``encoder.``, ``peft.``,
``neck.``, ``decoder.``) that freeze policies, optimizers, and checkpoints
operate on. Construction is fully determined by the configs plus one seed.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, functional as F, load_checkpoint, save_checkpoint
from .backbone import BackboneConfig, ViTBackbone
from .decoders import DecoderConfig, build_head, decode
from .errors import CheckpointError
from .nn import Module
from .peft import (METHODS, LoraConfig, VitAdapterConfig, VptConfig, apply_freeze_policy,
                   attachment_config, normalize_policy)


class SegmentationModel(Module):
    def __init__(self, backbone: ViTBackbone, decoder_cfg: DecoderConfig, seed: int = 0):
        self.backbone = backbone
        self.decoder_cfg = decoder_cfg
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.neck, self.decoder = build_head(rng, decoder_cfg, backbone.cfg.embed_dim,
                                             backbone.cfg.patch_size, backbone.adapter is not None)
        self.policy = None

    # -- forward -------------------------------------------------------------

    def forward(self, images, bands=None, meta=None, training: bool = False) -> Tensor:
        """Per-pixel class logits (B, K, H, W) for a normalized image batch."""
        stem = self.backbone.stem(images, bands, meta)
        del images  # freed here when the caller passed a temporary
        return self.head(self._transformer(*stem), training)

    def encode(self, images, bands=None, meta=None) -> list[Tensor]:
        """The encoder outputs the head reads: the final tap for a single-scale
        head, the four taps for a pyramid head, and the final tap plus the
        adapter tokens for a pyramid head over a ViT-Adapter."""
        stem = self.backbone.stem(images, bands, meta)
        del images  # freed here when the caller passed a temporary
        return self._transformer(*stem)

    def _transformer(self, tokens: Tensor, adapter_tokens: Tensor | None) -> list[Tensor]:
        """``encode`` after the stem. The encoder builds the four taps only for
        a pyramid head without an adapter."""
        needs_pyramid = self.decoder_cfg.needs_pyramid
        taps = self.backbone.forward_features(tokens, adapter_tokens,
                                              pyramid=needs_pyramid and adapter_tokens is None)
        if needs_pyramid and adapter_tokens is not None:
            return [taps[-1], adapter_tokens]
        return taps

    def head(self, inputs: list[Tensor], training: bool = False) -> Tensor:
        """Neck and decoder over what ``encode`` returns."""
        out_hw = self.backbone.cfg.image_size
        if not self.decoder_cfg.needs_pyramid:
            return decode(inputs[0], self.decoder_cfg, self.decoder, out_hw, training)
        if self.backbone.adapter is not None:
            final, adapter_tokens = inputs
            b, gh, gw, d = final.shape
            final_tokens = F.reshape(final, (b, gh * gw, d))
            pyramid = self.neck(self.backbone.adapter.pyramid(adapter_tokens, final_tokens))
        else:
            pyramid = self.neck(inputs)
        return decode(pyramid, self.decoder_cfg, self.decoder, out_hw, training)

    # -- parameters ------------------------------------------------------------

    def _tree(self) -> dict:
        # the root of the flat namespace; attachments go under peft.*, not encoder.*
        peft = {m.attr: getattr(self.backbone, m.attr) for m in METHODS.values() if m.attr}
        encoder = {k: v for k, v in vars(self.backbone).items() if k not in peft}
        return {"encoder": encoder, "peft": peft, "neck": self.neck, "decoder": self.decoder}

    def trainable_parameters(self):
        for name, t in self.named_parameters():
            if t.requires_grad:
                yield name, t

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: t.data for name, t in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[f"buffers.{name}"] = buf
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the model's arrays in place. Every name is checked
        before anything is written, so a rejected state leaves the model as it was."""
        own = self.state_dict()
        for name in sorted(own.keys() | state.keys()):
            if name not in own:
                raise CheckpointError(f"unexpected tensor {name!r} in checkpoint")
            if name not in state:
                raise CheckpointError(f"checkpoint is missing tensor {name!r}")
            if own[name].shape != np.shape(state[name]):
                raise CheckpointError(f"tensor {name!r}: shape {np.shape(state[name])} "
                                      f"vs {own[name].shape}")
        for name, arr in state.items():
            own[name][...] = arr

    def save(self, directory) -> None:
        save_checkpoint(directory, self.state_dict())

    def load(self, directory) -> None:
        self.load_state_dict(load_checkpoint(directory))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_dict().items()}


def build_model(backbone_cfg: BackboneConfig, decoder_cfg: DecoderConfig, method: str,
                seed: int = 0, lora_cfg: LoraConfig | None = None,
                vpt_cfg: VptConfig | None = None,
                adapter_cfg: VitAdapterConfig | None = None) -> SegmentationModel:
    """Build backbone + attachment + head for a freeze-policy method and mark
    the trainable set."""
    method = normalize_policy(method)
    ss = np.random.SeedSequence(seed)
    backbone_seed, attach_seed, head_seed = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    backbone = ViTBackbone(backbone_cfg, seed=backbone_seed)
    attach = METHODS[method].attach
    if attach is not None:
        attach(backbone, attachment_config(method, lora_cfg, vpt_cfg, adapter_cfg), seed=attach_seed)
    model = SegmentationModel(backbone, decoder_cfg, seed=head_seed)
    return apply_freeze_policy(model, method)
