"""Learned multi-scale neck and the four segmentation heads.

The ViT taps all live at the patch-grid resolution, so hierarchical heads
need a learned pyramid: the first tap is upsampled 4x through two transposed
convolutions, the second 2x, the third passes through, and the fourth is
downsampled by a strided convolution. The linear head is a single transposed
convolution with no nonlinearity; the FCN head stacks transposed-conv blocks
with 3x3 convolutions, channel layer norm, and GeLU; the pyramid heads follow
the usual FPN+PPM and skip-connection designs with bilinear upsampling.
Both pyramid heads classify at their finest level and resize the class
logits to the input extent, not their features: bilinear weights are
non-negative and sum to one, so a 1x1 conv with a bias commutes with the
resize up to rounding.
UperNet's PPM, lateral, smooth and fuse convs and every UNet conv but the
classifier are conv-BN-ReLU blocks, whose batch norm applies the ReLU itself;
only UperNet's scale-1 PPM conv is a plain conv-ReLU, because at batch 1 it
sees a single value per channel, which batch norm cannot normalise.
UperNet's fuse conv and UNet's first stage convs read their coarser inputs
through ``F.resized_conv2d``: the upsampled maps are never built, and the
kernel runs at the coarse extent, with a quarter to a sixty-fourth of the
multiply-adds of convolving the upsampled maps. Only rounding changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, functional as F
from .errors import ConfigError, ShapeError
from .nn import BatchNormRelu2d, Conv2d, ConvTranspose2d, LayerNorm, Module

DECODER_KINDS = ("linear", "fcn", "upernet", "unet")


@dataclass(frozen=True)
class DecoderConfig:
    kind: str
    num_classes: int
    fcn_hidden: int = 128
    unet_widths: tuple[int, int, int, int] = (256, 128, 64, 32)
    ppm_scales: tuple[int, ...] = (1, 2, 3, 6)
    upernet_channels: int = 128

    def __post_init__(self):
        if self.kind not in DECODER_KINDS:
            raise ConfigError(f"unknown decoder kind {self.kind!r}; valid: {list(DECODER_KINDS)}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.fcn_hidden < 1 or self.upernet_channels < 1:
            raise ConfigError("hidden widths must be positive")
        if len(self.unet_widths) != 4 or any(w < 1 for w in self.unet_widths):
            raise ConfigError(f"unet needs 4 positive widths, got {self.unet_widths}")
        if any(s < 1 for s in self.ppm_scales):
            raise ConfigError(f"ppm scales must be positive, got {self.ppm_scales}")
        object.__setattr__(self, "unet_widths", tuple(self.unet_widths))
        object.__setattr__(self, "ppm_scales", tuple(self.ppm_scales))

    @property
    def needs_pyramid(self) -> bool:
        return self.kind in ("upernet", "unet")


class FeaturePyramid:
    """Four channel-first maps at strictly decreasing spatial scales."""

    def __init__(self, maps: list[Tensor]):
        if len(maps) != 4:
            raise ShapeError(f"feature pyramid needs 4 maps, got {len(maps)}")
        extents = [(m.shape[2], m.shape[3]) for m in maps]
        for (h0, w0), (h1, w1) in zip(extents, extents[1:]):
            if h1 >= h0 or w1 >= w0:
                raise ShapeError(f"pyramid scales must strictly decrease, got {extents}")
        self.maps = maps


def _to_channel_first(tap: Tensor) -> Tensor:
    if tap.ndim != 4:
        raise ShapeError(f"tapped map must be (B, h, w, d), got {tap.shape}")
    return F.transpose(tap, (0, 3, 1, 2))


class Neck(Module):
    """Learned upsampling from four same-extent taps to a 4-level pyramid
    at {4x, 2x, 1x, 0.5x} of the patch grid."""

    def __init__(self, rng: np.random.Generator, embed_dim: int):
        if embed_dim % 4:
            raise ConfigError(f"neck needs embed_dim divisible by 4, got {embed_dim}")
        d = embed_dim
        self.up0_a = ConvTranspose2d(rng, d, d // 2, 2, stride=2)
        self.up0_b = ConvTranspose2d(rng, d // 2, d // 4, 2, stride=2)
        self.up1 = ConvTranspose2d(rng, d, d // 2, 2, stride=2)
        self.down3 = Conv2d(rng, d, d, 2, stride=2)
        self.channels = (d // 4, d // 2, d, d)

    def __call__(self, taps: list[Tensor]) -> FeaturePyramid:
        if len(taps) != 4:
            raise ShapeError(f"neck needs 4 tapped maps, got {len(taps)}")
        extents = {t.shape[1:3] for t in taps}
        if len(extents) != 1:
            raise ShapeError(f"tapped maps disagree in extent: {sorted(extents)}")
        m = [_to_channel_first(t) for t in taps]
        return FeaturePyramid([
            self.up0_b(self.up0_a(m[0])),
            self.up1(m[1]),
            m[2],
            self.down3(m[3]),
        ])


class AdapterNeck(Module):
    """Turns the adapter's 3-level pyramid (strides 8/16/32) into a 4-level
    FeaturePyramid by adding one finer level through a transposed conv."""

    def __init__(self, rng: np.random.Generator, dim: int):
        if dim % 2:
            raise ConfigError(f"adapter neck needs an even width, got {dim}")
        self.adapter_up = ConvTranspose2d(rng, dim, dim // 2, 2, stride=2)
        self.channels = (dim // 2, dim, dim, dim)

    def __call__(self, adapter_maps: list[Tensor]) -> FeaturePyramid:
        if len(adapter_maps) != 3:
            raise ShapeError(f"adapter pyramid needs 3 maps, got {len(adapter_maps)}")
        return FeaturePyramid([self.adapter_up(adapter_maps[0]), *adapter_maps])


# ---------------------------------------------------------------------------
# heads


def _channel_layer_norm(x: Tensor, ln: LayerNorm) -> Tensor:
    moved = F.transpose(x, (0, 2, 3, 1))
    return F.transpose(ln(moved), (0, 3, 1, 2))


class LinearDecoder(Module):
    """One transposed convolution with kernel = stride = patch size; nothing else."""

    def __init__(self, rng: np.random.Generator, cfg: DecoderConfig, embed_dim: int, patch_size: int):
        self.head = ConvTranspose2d(rng, embed_dim, cfg.num_classes, patch_size, stride=patch_size)

    def __call__(self, final_tap: Tensor, out_hw: tuple[int, int], training: bool = False) -> Tensor:
        logits = self.head(_to_channel_first(final_tap))
        if logits.shape[2:] != tuple(out_hw):
            raise ShapeError(f"decoded extent {logits.shape[2:]} differs from requested {out_hw}")
        return logits


class FcnDecoder(Module):
    """Stacked upsampling blocks: transposed conv (2x), 3x3 conv, channel
    layer norm, GeLU; one block per doubling until full resolution."""

    def __init__(self, rng: np.random.Generator, cfg: DecoderConfig, embed_dim: int, patch_size: int):
        n_blocks = int(math.log2(patch_size))
        if 2 ** n_blocks != patch_size:
            raise ConfigError(f"fcn decoder needs a power-of-two patch size, got {patch_size}")
        hidden = cfg.fcn_hidden
        self.blocks = []
        c_in = embed_dim
        for _ in range(n_blocks):
            self.blocks.append({
                "up": ConvTranspose2d(rng, c_in, hidden, 2, stride=2),
                "conv": Conv2d(rng, hidden, hidden, 3, padding=1),
                "ln": LayerNorm(hidden),
            })
            c_in = hidden
        self.classifier = Conv2d(rng, hidden, cfg.num_classes, 1)

    def __call__(self, final_tap: Tensor, out_hw: tuple[int, int], training: bool = False) -> Tensor:
        x = _to_channel_first(final_tap)
        for blk in self.blocks:
            x = blk["up"](x)
            x = blk["conv"](x)
            x = _channel_layer_norm(x, blk["ln"])
            x = F.gelu(x)
        logits = self.classifier(x)
        if logits.shape[2:] != tuple(out_hw):
            raise ShapeError(f"decoded extent {logits.shape[2:]} differs from requested {out_hw}")
        return logits


class UperNetDecoder(Module):
    """FPN over the pyramid plus a pooling module on the coarsest level. Every
    conv but the classifier is a conv-BN-ReLU block, except the scale-1 PPM
    conv: pooled to 1x1, its batch statistics at batch 1 are one value per
    channel, so it is a conv-ReLU."""

    def __init__(self, rng: np.random.Generator, cfg: DecoderConfig, pyramid_channels: tuple[int, ...]):
        ch = cfg.upernet_channels
        c0, c1, c2, c3 = pyramid_channels
        self.ppm_scales = cfg.ppm_scales
        self.ppm = [_ConvBnRelu(rng, c3, ch, 1) if s > 1 else _ConvRelu(rng, c3, ch)
                    for s in cfg.ppm_scales]
        self.ppm_fuse = _ConvBnRelu(rng, c3 + ch * len(cfg.ppm_scales), ch)
        self.lateral = [_ConvBnRelu(rng, c, ch, 1) for c in (c0, c1, c2)]
        self.smooth = [_ConvBnRelu(rng, ch, ch) for _ in range(3)]
        self.fuse = _ConvBnRelu(rng, ch * 4, ch)
        self.classifier = Conv2d(rng, ch, cfg.num_classes, 1)

    def _ppm_branches(self, coarsest: Tensor, training: bool = False) -> list[Tensor]:
        h, w = coarsest.shape[2], coarsest.shape[3]
        branches = []
        for s, block in zip(self.ppm_scales, self.ppm):
            pooled = F.adaptive_avg_pool2d(coarsest, s, s)
            branches.append(F.bilinear_resize(block(pooled, training), h, w))
        return branches

    def __call__(self, pyramid: FeaturePyramid, out_hw: tuple[int, int], training: bool = False) -> Tensor:
        p3 = pyramid.maps[3]
        feats = [None, None, None, self.ppm_fuse(
            F.concat([p3, *self._ppm_branches(p3, training)], axis=1), training)]
        # the lateral output and the upsampled map are temporaries, freed
        # once their sum exists (no rule reads them)
        for i in (2, 1, 0):
            h, w = pyramid.maps[i].shape[2], pyramid.maps[i].shape[3]
            feats[i] = self.smooth[i](F.add(self.lateral[i](pyramid.maps[i], training),
                                            F.bilinear_resize(feats[i + 1], h, w)), training)

        logits = self.classifier(self.fuse(feats, training, resize_to=feats[0].shape[2:]))
        return F.bilinear_resize(logits, out_hw[0], out_hw[1])


class _ConvBnRelu(Module):
    """A k x k conv padded by k // 2, then batch norm applying the ReLU itself.

    Given ``resize_to``, each channel block of ``x`` is read as bilinearly
    resized to that extent, which is never built (``F.resized_conv2d``)."""

    def __init__(self, rng, c_in, c_out, k: int = 3):
        self.conv = Conv2d(rng, c_in, c_out, k, padding=k // 2)
        self.bn = BatchNormRelu2d(c_out)

    def __call__(self, x: Tensor | list[Tensor], training: bool, resize_to=None) -> Tensor:
        conv = self.conv
        y = conv(x) if resize_to is None else F.resized_conv2d(
            x, conv.weight, *resize_to, conv.bias, padding=conv.padding)
        return self.bn(y, training)


class _ConvRelu(Module):
    """A 1 x 1 conv then a ReLU, called like ``_ConvBnRelu``."""

    def __init__(self, rng, c_in, c_out):
        self.conv = Conv2d(rng, c_in, c_out, 1)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return F.relu(self.conv(x))


class UNetDecoder(Module):
    """Top-down decoding with skip concatenation: interpolate 2x, concatenate
    the next finer pyramid level, then two conv/batch-norm/ReLU stages. The
    first stage's conv reads the coarse map and the skip as channel blocks
    through ``resized_conv2d``, so neither the interpolated map nor the
    concatenation is built. The 1x1 classifier runs at the finest pyramid
    level and its logits are resized to the input extent."""

    def __init__(self, rng: np.random.Generator, cfg: DecoderConfig, pyramid_channels: tuple[int, ...]):
        w0, w1, w2, w3 = cfg.unet_widths
        c0, c1, c2, c3 = pyramid_channels
        self.entry = _ConvBnRelu(rng, c3, w0)
        self.stages = []
        widths = (w1, w2, w3)
        skips = (c2, c1, c0)
        c_prev = w0
        for width, skip in zip(widths, skips):
            self.stages.append({
                "a": _ConvBnRelu(rng, c_prev + skip, width),
                "b": _ConvBnRelu(rng, width, width),
            })
            c_prev = width
        self.classifier = Conv2d(rng, w3, cfg.num_classes, 1)

    def __call__(self, pyramid: FeaturePyramid, out_hw: tuple[int, int], training: bool = False) -> Tensor:
        p0, p1, p2, p3 = pyramid.maps
        x = self.entry(p3, training)
        for stage, skip in zip(self.stages, (p2, p1, p0)):
            x = stage["b"](stage["a"]([x, skip], training, resize_to=skip.shape[2:]), training)
        return F.bilinear_resize(self.classifier(x), out_hw[0], out_hw[1])


def build_decoder(rng: np.random.Generator, cfg: DecoderConfig, embed_dim: int,
                  patch_size: int, pyramid_channels: tuple[int, ...] | None = None):
    if cfg.kind == "linear":
        return LinearDecoder(rng, cfg, embed_dim, patch_size)
    if cfg.kind == "fcn":
        return FcnDecoder(rng, cfg, embed_dim, patch_size)
    if pyramid_channels is None:
        raise ConfigError(f"{cfg.kind} decoder requires pyramid channel widths")
    if cfg.kind == "upernet":
        return UperNetDecoder(rng, cfg, pyramid_channels)
    return UNetDecoder(rng, cfg, pyramid_channels)


def build_head(rng: np.random.Generator, cfg: DecoderConfig, embed_dim: int, patch_size: int,
               adapter_attached: bool = False):
    """(neck, decoder) for the configured head. Pyramid heads get the adapter
    neck when a ViT-Adapter supplies the pyramid and the tap neck otherwise;
    single-scale heads get no neck."""
    neck = None
    if cfg.needs_pyramid:
        neck = AdapterNeck(rng, embed_dim) if adapter_attached else Neck(rng, embed_dim)
    decoder = build_decoder(rng, cfg, embed_dim, patch_size, neck.channels if neck else None)
    return neck, decoder


def decode(features, cfg: DecoderConfig, decoder, out_hw: tuple[int, int],
           training: bool = False) -> Tensor:
    """Dispatch features to a built head. Single-scale heads consume the
    final tap; hierarchical heads require a FeaturePyramid."""
    if cfg.needs_pyramid:
        if not isinstance(features, FeaturePyramid):
            raise ShapeError(f"{cfg.kind} decoder requires a feature pyramid")
    elif isinstance(features, FeaturePyramid):
        raise ShapeError(f"{cfg.kind} decoder consumes the final tap, not a pyramid")
    return decoder(features, out_hw, training)
