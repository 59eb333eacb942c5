"""Synthetic multispectral dataset generator for desk-scale experiments.

Class layouts are smooth random blob fields, so masks are contiguous and the
task is separable by construction. Each class carries two mirrored spectral
variants around a shared center (assigned per smooth polarity region) plus a
smaller class-specific linear component: folding the mirrored variants back
together requires a nonlinearity, so frozen-encoder linear readouts sit below
adapted encoders while nearest-signature classification over the variant set
is still perfect on noiseless data.

Regions shift the shared center: train regions by a small jitter, the
hold-out region by a configurable larger offset, so geographic generalization
has something to generalize across. Test-split samples receive a small extra
spectral drift, mirroring the mild distribution shift between validation and
test observed in practice.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .data import DatasetManifest, Sample, SampleInfo, compute_band_stats
from .errors import ConfigError


@dataclass(frozen=True)
class SyntheticConfig:
    regions: tuple[str, ...] = ("alps", "plains", "coast")
    samples_per_region: int = 30
    ghos_samples: int = 10
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    bands: tuple[str, ...] = ("blue", "green", "red", "nir", "swir1", "swir2")
    extent: int = 64
    num_classes: int = 2
    noise: float = 0.15
    blobs_per_class: int = 3
    polarity_amplitude: float = 1.0
    linear_amplitude: float = 0.2
    region_jitter: float = 0.02
    ghos_offset: float = 0.6
    test_shift: float = 0.15
    informative_bands: int = 0  # 0: class signal spread over all bands
    seed: int = 0

    def __post_init__(self):
        if len(self.regions) < 2:
            raise ConfigError("need at least 2 regions so one can be held out")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigError("region names must be unique")
        if self.samples_per_region < 1 or self.ghos_samples < 0:
            raise ConfigError("sample counts must be positive")
        if not 0 <= self.val_fraction < 1 or not 0 <= self.test_fraction < 1:
            raise ConfigError("val/test fractions must lie in [0, 1)")
        if self.val_fraction + self.test_fraction >= 1:
            raise ConfigError("val + test fractions must leave room for training samples")
        if self.num_classes < 2 or len(self.bands) < 1 or self.extent < 8:
            raise ConfigError("need >= 2 classes, >= 1 band, extent >= 8")
        if self.noise < 0:
            raise ConfigError("noise level must be non-negative")
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "bands", tuple(self.bands))

    @property
    def ghos_region(self) -> str:
        return self.regions[-1]


def _class_direction(rng: np.random.Generator, dim: int, informative: int = 0) -> np.ndarray:
    """Unit direction; with ``informative`` set, the trailing bands carry only
    a small share of the energy, mimicking sensors whose core bands hold most
    of the discriminative signal."""
    v = rng.normal(size=dim)
    if 0 < informative < dim:
        v[informative:] *= 0.2
    return v / np.linalg.norm(v)


def class_signatures(cfg: SyntheticConfig) -> dict[str, np.ndarray]:
    """Per-region signature tables of shape (K, 2, C): two mirrored variants
    per class around the region's center. Reproducible from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    k, c = cfg.num_classes, len(cfg.bands)
    linear_dirs = np.stack([_class_direction(rng, c, cfg.informative_bands) for _ in range(k)])
    polarity_dirs = np.stack([_class_direction(rng, c, cfg.informative_bands) for _ in range(k)])
    tables = {}
    for region in cfg.regions:
        offset = cfg.region_jitter * _class_direction(rng, c)
        if region == cfg.ghos_region:
            offset = cfg.ghos_offset * _class_direction(rng, c)
        table = np.empty((k, 2, c))
        for cls in range(k):
            center = cfg.linear_amplitude * linear_dirs[cls] + offset
            table[cls, 0] = center + cfg.polarity_amplitude * polarity_dirs[cls]
            table[cls, 1] = center - cfg.polarity_amplitude * polarity_dirs[cls]
        tables[region] = table
    return tables


def _smooth_field(rng: np.random.Generator, extent: int, bumps: int, prior: float) -> np.ndarray:
    yy, xx = np.mgrid[0:extent, 0:extent].astype(np.float64)
    score = np.full((extent, extent), prior)
    for _ in range(bumps):
        cx, cy = rng.uniform(0, extent, size=2)
        sigma = rng.uniform(extent / 6, extent / 3)
        amp = rng.uniform(0.5, 1.5)
        score += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma ** 2))
    return score


def _blob_mask(rng, extent, num_classes, blobs_per_class, region_prior) -> np.ndarray:
    scores = np.stack([
        _smooth_field(rng, extent, blobs_per_class, region_prior[k])
        for k in range(num_classes)
    ])
    return scores.argmax(axis=0).astype(np.uint8)


def _polarity(rng, extent, num_classes, blobs_per_class) -> np.ndarray:
    """Per-class smooth sign fields in {0, 1} (variant index)."""
    fields = np.stack([
        _smooth_field(rng, extent, blobs_per_class, 0.0)
        for _ in range(num_classes)
    ])
    return (fields < np.median(fields, axis=(1, 2), keepdims=True)).astype(np.uint8)


def nearest_signature_classify(image: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-pixel argmin Euclidean distance over a (K, 2, C) signature table."""
    k, variants, c = table.shape
    flat = table.reshape(k * variants, c)
    pixels = image.reshape(c, -1).T.astype(np.float64)
    d2 = ((pixels[:, None, :] - flat[None, :, :]) ** 2).sum(axis=2)
    return (d2.argmin(axis=1) // variants).reshape(image.shape[1:]).astype(np.uint8)


def generate_synthetic(cfg: SyntheticConfig, root) -> DatasetManifest:
    """Write a complete dataset (blobs + manifest) and return the manifest.

    Train/val/test are drawn from every region except the last, which is
    reserved as the geographic hold-out. Band statistics come from the train
    split only. Identical config and seed reproduce the dataset bit-exactly.
    """
    tables = class_signatures(cfg)
    geo_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    shift_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    shift_dir = _class_direction(shift_rng, len(cfg.bands))

    region_centers = {}
    for i, region in enumerate(cfg.regions):
        region_centers[region] = (float(10.0 + 8.0 * i), float(5.0 + 12.0 * i))

    n = cfg.samples_per_region
    n_val = int(round(n * cfg.val_fraction))
    n_test = int(round(n * cfg.test_fraction))
    n_train = n - n_val - n_test

    manifest = DatasetManifest(
        root=root,
        num_classes=cfg.num_classes,
        class_names=[f"class_{k}" for k in range(cfg.num_classes)],
        bands=cfg.bands,
        band_stats={b: (0.0, 1.0) for b in cfg.bands},
        samples=[],
        splits={},
    )

    train_samples = []
    for region in cfg.regions:
        is_ghos = region == cfg.ghos_region
        count = cfg.ghos_samples if is_ghos else n
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3, zlib.crc32(region.encode())]))
        prior = rng.normal(0.0, 0.3, size=cfg.num_classes)
        lat0, lon0 = region_centers[region]
        for idx in range(count):
            if is_ghos:
                split = "ghos"
            elif idx < n_train:
                split = "train"
            elif idx < n_train + n_val:
                split = "val"
            else:
                split = "test"
            mask = _blob_mask(rng, cfg.extent, cfg.num_classes, cfg.blobs_per_class, prior)
            variant = _polarity(rng, cfg.extent, cfg.num_classes, cfg.blobs_per_class)
            yy, xx = np.mgrid[0:cfg.extent, 0:cfg.extent]
            pixel_variant = variant[mask, yy, xx]
            image = tables[region][mask, pixel_variant].transpose(2, 0, 1).astype(np.float64)
            if split == "test" and cfg.test_shift > 0:
                image += cfg.test_shift * shift_dir[:, None, None]
            if cfg.noise > 0:
                image += cfg.noise * rng.normal(size=image.shape)
            sample = Sample(
                sample_id=f"{region}_{idx:04d}",
                image=image.astype(np.float32),
                mask=mask,
                bands=cfg.bands,
                lat=float(np.clip(lat0 + geo_rng.uniform(-0.2, 0.2), -90, 90)),
                lon=float(lon0 + geo_rng.uniform(-0.2, 0.2)),
                day_of_year=int(geo_rng.integers(1, 366)),
                year=int(geo_rng.integers(2018, 2024)),
                region=region,
            )
            manifest.save_sample(sample)
            labels = tuple(int(v) for v in np.unique(mask))
            manifest.samples.append(SampleInfo(
                sample_id=sample.sample_id, region=region, lat=sample.lat, lon=sample.lon,
                day_of_year=sample.day_of_year, year=sample.year, labels=labels))
            manifest.splits[sample.sample_id] = split
            if split == "train":
                train_samples.append(sample)

    manifest.band_stats = compute_band_stats(train_samples, cfg.bands)
    manifest.save()
    return manifest
