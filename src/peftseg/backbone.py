"""Configurable ViT encoder with band-adaptive patch embedding.

The patch embedding stores one kernel slab per spectral band, so any subset
of the configured bands embeds without weight surgery: a missing band simply
contributes nothing, which after per-band normalization equals feeding the
band's mean value. Features are tapped at four layers (defaulting to the
quarter points of the depth) for hierarchical decoders; other readers get
the final layer alone. Dense tasks only, so there is no class token; the
forward reads the prompt blocks and adapter injection hooks of a PEFT
attachment when one is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor, functional as F, no_grad
from .errors import ConfigError, ShapeError
from .nn import LayerNorm, Linear, Module, param, zeros_param


def default_tap_layers(depth: int) -> tuple[int, int, int, int]:
    """Quarter-point taps: three intermediate layers plus the final one."""
    taps = tuple(int(round(depth * f)) for f in (0.25, 0.5, 0.75, 1.0))
    if len(set(taps)) < 4 or taps[0] < 1:
        raise ConfigError(f"depth {depth} too shallow for four distinct tap layers")
    return taps


@dataclass(frozen=True)
class BackboneConfig:
    embed_dim: int
    depth: int
    heads: int
    patch_size: int
    band_ids: tuple[str, ...]
    image_size: tuple[int, int]
    mlp_ratio: float = 4.0
    tap_layers: tuple[int, ...] = field(default=())
    metadata_enabled: bool = False

    def __post_init__(self):
        if self.embed_dim < 1 or self.depth < 1 or self.heads < 1 or self.patch_size < 1:
            raise ConfigError("embed_dim, depth, heads, and patch_size must be positive")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.mlp_ratio <= 0:
            raise ConfigError("mlp_ratio must be positive")
        if len(self.band_ids) < 1:
            raise ConfigError("at least one band id is required")
        if len(set(self.band_ids)) != len(self.band_ids):
            raise ConfigError("band ids must be unique")
        h, w = self.image_size
        if h % self.patch_size or w % self.patch_size:
            raise ConfigError(f"image size {self.image_size} not divisible by patch size {self.patch_size}")
        taps = self.tap_layers or default_tap_layers(self.depth)
        if len(taps) != 4 or list(taps) != sorted(set(taps)):
            raise ConfigError(f"tap_layers {taps} must be 4 strictly increasing indices")
        if taps[0] < 1 or taps[-1] != self.depth:
            raise ConfigError(f"tap_layers {taps} must lie in [1, {self.depth}] and end at the final layer")
        object.__setattr__(self, "tap_layers", tuple(taps))
        object.__setattr__(self, "band_ids", tuple(self.band_ids))
        object.__setattr__(self, "image_size", tuple(self.image_size))

    @property
    def grid(self) -> tuple[int, int]:
        return self.image_size[0] // self.patch_size, self.image_size[1] // self.patch_size

    @property
    def num_patches(self) -> int:
        gh, gw = self.grid
        return gh * gw

    @property
    def mlp_hidden(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


def vit_base_config(band_ids, image_size=(224, 224), patch_size=16, **kw) -> BackboneConfig:
    return BackboneConfig(embed_dim=768, depth=12, heads=12, patch_size=patch_size,
                          band_ids=tuple(band_ids), image_size=image_size, **kw)


def vit_large_config(band_ids, image_size=(224, 224), patch_size=16, **kw) -> BackboneConfig:
    return BackboneConfig(embed_dim=1024, depth=24, heads=16, patch_size=patch_size,
                          band_ids=tuple(band_ids), image_size=image_size, **kw)


class PatchEmbedding(Module):
    """Per-band kernel slabs plus a shared bias and a learned positional table.

    Selecting any subset of bands yields a valid embedding: token n is the sum
    over the provided bands of that band's slab response at patch n, plus bias
    and position.
    """

    def __init__(self, rng: np.random.Generator, cfg: BackboneConfig):
        p, d = cfg.patch_size, cfg.embed_dim
        self.patch_size = p
        self.band = {b: param(rng, (p, p, d)) for b in cfg.band_ids}
        self.bias = zeros_param((d,))
        self.pos_table = param(rng, (cfg.num_patches, d))

    def weight_for_bands(self, bands: Sequence[str]) -> Tensor:
        p = self.patch_size
        pieces = [F.reshape(self.band[b], (p * p, -1)) for b in bands]
        if len(pieces) == 1:
            return pieces[0]
        return F.concat(pieces, axis=0)


class MetadataEmbedding(Module):
    """Sine-cosine encodings of location and day-of-year plus a linear year
    term, each projected to the embedding width and summed."""

    def __init__(self, rng: np.random.Generator, embed_dim: int):
        self.lat = Linear(rng, 2, embed_dim)
        self.lon = Linear(rng, 2, embed_dim)
        self.day_of_year = Linear(rng, 2, embed_dim)
        self.year = Linear(rng, 1, embed_dim)

    @staticmethod
    def _features(lat, lon, day_of_year, year) -> dict[str, np.ndarray]:
        lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
        lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
        doy = np.atleast_1d(np.asarray(day_of_year, dtype=np.float64))
        year = np.atleast_1d(np.asarray(year, dtype=np.float64))
        if not (np.abs(lat) <= 90).all():  # NaN fails the test
            raise ShapeError(f"latitude must be finite and within [-90, 90]: {lat}")
        if not (np.abs(lon) <= 180).all():
            raise ShapeError(f"longitude must be finite and within [-180, 180]: {lon}")
        if not (np.isfinite(doy).all() and np.isfinite(year).all()):
            raise ShapeError(f"day_of_year {doy} and year {year} must be finite")
        lat_r = np.deg2rad(lat)
        lon_r = np.deg2rad(lon)
        ang = 2.0 * np.pi * doy / 365.25
        return {
            "lat": np.stack([np.sin(lat_r), np.cos(lat_r)], axis=-1),
            "lon": np.stack([np.sin(lon_r), np.cos(lon_r)], axis=-1),
            "day_of_year": np.stack([np.sin(ang), np.cos(ang)], axis=-1),
            "year": ((year - 2000.0) / 100.0)[:, None],
        }

    def __call__(self, lat, lon, day_of_year, year) -> Tensor:
        out = None
        for name, feat in self._features(lat, lon, day_of_year, year).items():
            vec = getattr(self, name)(Tensor(feat.astype(np.float32)))
            out = vec if out is None else F.add(out, vec)
        return out


class TransformerBlock(Module):
    """Pre-norm block: x + attn(LN(x)), then x + mlp(LN(x))."""

    def __init__(self, rng: np.random.Generator, cfg: BackboneConfig):
        d = cfg.embed_dim
        self.heads = cfg.heads
        self.head_dim = d // cfg.heads
        self.ln1 = LayerNorm(d)
        self.attn = {name: Linear(rng, d, d) for name in ("q", "k", "v", "o")}
        self.ln2 = LayerNorm(d)
        self.mlp = {"fc1": Linear(rng, d, cfg.mlp_hidden), "fc2": Linear(rng, cfg.mlp_hidden, d)}

    def _split_heads(self, t: Tensor, b: int, n: int) -> Tensor:
        t = F.reshape(t, (b, n, self.heads, self.head_dim))
        return F.transpose(t, (0, 2, 1, 3))

    def __call__(self, x: Tensor, kv_rows: int = 0) -> Tensor:
        """Run the block on (B, n, d) rows. The first ``kv_rows`` rows only
        supply keys and values: no query, output projection or MLP runs on
        them, and the block returns the other n - kv_rows rows."""
        n = x.shape[1]
        if not 0 <= kv_rows < n:
            raise ShapeError(f"block: {kv_rows} key/value-only rows outside [0, {n})")
        x = self._attention_half(x, kv_rows)
        return F.add(x, self.mlp["fc2"](F.gelu(self.mlp["fc1"](self.ln2(x)))))

    def _attention_half(self, x: Tensor, kv_rows: int) -> Tensor:
        """x + attn(LN(x)) on the query rows. Its own frame, so the LN output,
        q, k, v and the context are freed before the MLP runs."""
        b, n, d = x.shape
        m = n - kv_rows
        h = self.ln1(x)
        rows = (None, (kv_rows, n), None)
        q = self._split_heads(self.attn["q"](F.slice_ranges(h, rows) if kv_rows else h), b, m)
        k = self._split_heads(self.attn["k"](h), b, n)
        v = self._split_heads(self.attn["v"](h), b, n)
        ctx = F.attention(q, k, v)
        ctx = F.reshape(F.transpose(ctx, (0, 2, 1, 3)), (b, m, d))
        if kv_rows:
            x = F.slice_ranges(x, rows)
        return F.add(x, self.attn["o"](ctx))


class ViTBackbone(Module):
    """ViT encoder over multispectral patch tokens with four feature taps."""

    def __init__(self, cfg: BackboneConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.patch_embed = PatchEmbedding(rng, cfg)
        self.meta = MetadataEmbedding(rng, cfg.embed_dim) if cfg.metadata_enabled else None
        self.blocks = [TransformerBlock(rng, cfg) for _ in range(cfg.depth)]
        # PEFT attachment hooks, populated by peftseg.peft
        self.vpt = None
        self.adapter = None
        self.lora = None

    # -- embedding ----------------------------------------------------------

    def embed_patches(self, image, bands: Sequence[str] | None = None) -> Tensor:
        """Tokenize a (C,H,W) image or (B,C,H,W) batch into (.., N, d) tokens."""
        bands = tuple(bands) if bands is not None else self.cfg.band_ids
        unknown = [b for b in bands if b not in self.patch_embed.band]
        if unknown:
            raise ShapeError(f"unknown band ids {unknown}; configured bands are {list(self.cfg.band_ids)}")
        x = image if isinstance(image, Tensor) else Tensor(np.asarray(image, dtype=np.float32))
        squeeze = x.ndim == 3
        if squeeze:
            x = F.reshape(x, (1,) + x.shape)
        if x.ndim != 4 or x.shape[1] != len(bands):
            raise ShapeError(f"image shape {x.shape} does not match {len(bands)} bands")
        b, c, h, w = x.shape
        p = self.cfg.patch_size
        if h % p or w % p:
            raise ShapeError(f"spatial size ({h},{w}) not divisible by patch size {p}; pad first")
        if (h, w) != self.cfg.image_size:
            raise ShapeError(f"image size ({h},{w}) differs from configured {self.cfg.image_size}")
        gh, gw = h // p, w // p

        patches = F.reshape(x, (b, c, gh, p, gw, p))
        patches = F.transpose(patches, (0, 2, 4, 1, 3, 5))
        patches = F.reshape(patches, (b, gh * gw, c * p * p))
        weight = self.patch_embed.weight_for_bands(bands)
        tokens = F.matmul(patches, weight, self.patch_embed.bias, self.patch_embed.pos_table)
        if squeeze:
            tokens = F.reshape(tokens, tokens.shape[1:])
        return tokens

    # -- encoder ------------------------------------------------------------

    def forward_features(self, tokens: Tensor, adapter_tokens=None,
                         pyramid: bool = True) -> list[Tensor]:
        """Run the transformer and return its tapped feature maps: the four at
        ``cfg.tap_layers``, or with ``pyramid`` off the final layer's alone, so
        no earlier layer's output outlives the next block.

        Each tap is reshaped to (.., H/p, W/p, d). The rows of the attached
        VPT's prompt block, one (P, d) block per layer, only supply keys and
        values: each block attends from the patch rows over
        ``[prompts; patches]`` and returns the patch rows alone, so no query,
        output projection or MLP runs on a prompt row and no tapped map holds one.
        """
        cfg = self.cfg
        squeeze = tokens.ndim == 2
        x = F.reshape(tokens, (1,) + tokens.shape) if squeeze else tokens
        b, n, d = x.shape
        if n != cfg.num_patches or d != cfg.embed_dim:
            raise ShapeError(f"tokens {x.shape} do not match grid {cfg.grid} x dim {cfg.embed_dim}")
        gh, gw = cfg.grid
        if self.vpt is not None and self.adapter is not None:
            raise ShapeError("prompt blocks and adapter injection cannot be combined")

        tap_layers = cfg.tap_layers if pyramid else (cfg.depth,)
        taps = []
        for layer, block in enumerate(self.blocks, start=1):
            if self.adapter is not None and adapter_tokens is not None \
                    and layer in self.adapter.injection_layers:
                x = F.add(x, self.adapter.inject[layer](x, adapter_tokens))
            if self.vpt is not None:
                n_p = self.vpt.prompts[layer - 1].shape[0]
                block_prompts = F.reshape(self.vpt.prompts[layer - 1], (1, n_p, d))
                if b > 1:
                    block_prompts = F.concat([block_prompts] * b, axis=0)
                x = block(F.concat([block_prompts, x], axis=1), kv_rows=n_p)
            else:
                x = block(x)
            if layer in tap_layers:
                taps.append(F.reshape(x, (b, gh, gw, d)))

        if squeeze:
            taps = [F.reshape(t, t.shape[1:]) for t in taps]
        return taps

    def stem(self, images, bands: Sequence[str] | None = None,
             meta: dict | None = None) -> tuple[Tensor, Tensor | None]:
        """What the transformer reads of a (C,H,W) image or (B,C,H,W) batch:
        the patch tokens plus the metadata vector, and the adapter stem's
        tokens (None without an adapter).

        ``meta`` holds ``lat``, ``lon``, ``day_of_year`` and ``year`` per image
        and is ignored when metadata is disabled. Under ``no_grad`` nothing
        returned holds the images, so a caller that passed them as a
        temporary, or drops its own name to them, frees the batch before the
        transformer runs.
        """
        x = images if isinstance(images, Tensor) else Tensor(np.asarray(images, dtype=np.float32))
        if x.ndim == 3:
            x = F.reshape(x, (1,) + x.shape)
        tokens = self.embed_patches(x, bands)
        if self.cfg.metadata_enabled and meta is not None:
            vec = self.meta(meta["lat"], meta["lon"], meta["day_of_year"], meta["year"])
            tokens = F.add(tokens, F.reshape(vec, (vec.shape[0], 1, vec.shape[1])))
        adapter_tokens = self.adapter.stem_tokens(x) if self.adapter is not None else None
        return tokens, adapter_tokens

    def image_embedding(self, image, bands: Sequence[str] | None = None,
                        meta: dict | None = None) -> np.ndarray:
        """Arithmetic mean of the final-layer patch tokens, one d-vector per image."""
        single = np.ndim(image) == 3
        with no_grad():
            stem = self.stem(image, bands, meta)
            del image  # freed here when the caller passed a temporary
            final = self.forward_features(*stem, pyramid=False)[-1]
            b, gh, gw, d = final.shape
            emb = F.mean(F.reshape(final, (b, gh * gw, d)), axes=(1,))
        out = np.array(emb.data, copy=True)
        return out[0] if single else out
