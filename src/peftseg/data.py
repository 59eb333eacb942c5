"""Dataset manifest, sample storage, and per-sample transforms.

Samples live on disk as raw blobs for bit-exact, dependency-free ingestion:
one little-endian float32 image blob (C,H,W row-major), one uint8 mask blob,
and a JSON sidecar per sample; the manifest is a single JSON file holding
band statistics, class names, per-sample metadata, and the split map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError

IGNORE_INDEX = 255
SPLITS = ("train", "val", "test", "ghos")


@dataclass
class Sample:
    sample_id: str
    image: np.ndarray  # (C, H, W) float32
    mask: np.ndarray   # (H, W) integer ids, IGNORE_INDEX for ignored pixels
    bands: tuple[str, ...]
    lat: float
    lon: float
    day_of_year: int
    year: int
    region: str

    def __post_init__(self):
        self.image = np.ascontiguousarray(self.image, dtype=np.float32)
        self.mask = np.ascontiguousarray(self.mask)
        self.bands = tuple(self.bands)
        if self.image.ndim != 3:
            raise DataError(f"{self.sample_id}: image must be (C,H,W), got {self.image.shape}")
        if self.image.shape[0] != len(self.bands):
            raise DataError(f"{self.sample_id}: {self.image.shape[0]} channels vs {len(self.bands)} bands")
        if self.mask.shape != self.image.shape[1:]:
            raise DataError(f"{self.sample_id}: mask {self.mask.shape} vs image {self.image.shape[1:]}")


@dataclass(frozen=True)
class SampleInfo:
    """Manifest row: everything known about a sample without reading blobs."""
    sample_id: str
    region: str
    lat: float
    lon: float
    day_of_year: int
    year: int
    labels: tuple[int, ...]


@dataclass
class DatasetManifest:
    root: Path
    num_classes: int
    class_names: list[str]
    bands: tuple[str, ...]
    band_stats: dict[str, tuple[float, float]]  # band -> (mean, std)
    samples: list[SampleInfo]
    splits: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.root = Path(self.root)
        self.bands = tuple(self.bands)
        if len(self.class_names) != self.num_classes:
            raise DataError(f"{self.num_classes} classes but {len(self.class_names)} names")
        for band, (mean, std) in self.band_stats.items():
            _check_band_stat(band, mean, std)
        for sid, split in self.splits.items():
            if split not in SPLITS:
                raise DataError(f"sample {sid!r} assigned to unknown split {split!r}")

    # -- split handling -------------------------------------------------------

    def split_ids(self, split: str) -> list[str]:
        return [s.sample_id for s in self.samples if self.splits.get(s.sample_id) == split]

    def has_split(self, split: str) -> bool:
        return any(v == split for v in self.splits.values())

    # -- sample storage ---------------------------------------------------------

    def _paths(self, sample_id: str) -> tuple[Path, Path, Path]:
        base = self.root / "samples"
        return base / f"{sample_id}.img", base / f"{sample_id}.mask", base / f"{sample_id}.json"

    def save_sample(self, sample: Sample) -> None:
        img_path, mask_path, meta_path = self._paths(sample.sample_id)
        img_path.parent.mkdir(parents=True, exist_ok=True)
        img_path.write_bytes(np.ascontiguousarray(sample.image, dtype="<f4").tobytes())
        mask_path.write_bytes(np.ascontiguousarray(sample.mask, dtype=np.uint8).tobytes())
        meta = {
            "sample_id": sample.sample_id,
            "bands": list(sample.bands),
            "shape": list(sample.image.shape),
            "lat": sample.lat,
            "lon": sample.lon,
            "day_of_year": sample.day_of_year,
            "year": sample.year,
            "region": sample.region,
        }
        meta_path.write_text(json.dumps(meta, indent=1), encoding="utf-8")

    def load_sample(self, sample_id: str) -> Sample:
        img_path, mask_path, meta_path = self._paths(sample_id)
        if not meta_path.exists():
            raise DataError(f"sample {sample_id!r} not found under {self.root}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            shape = tuple(int(n) for n in meta["shape"])
            bands = tuple(meta["bands"])
            info = {k: meta[k] for k in ("lat", "lon", "day_of_year", "year", "region")}
            image_raw, mask_raw = img_path.read_bytes(), mask_path.read_bytes()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise DataError(f"sample {sample_id!r}: unreadable sidecar or blob: "
                            f"{type(exc).__name__}: {exc}") from exc
        for path, raw, need in ((img_path, image_raw, 4 * math.prod(shape)),
                                (mask_path, mask_raw, math.prod(shape[1:]))):
            if len(raw) != need:
                raise DataError(f"sample {sample_id!r}: {path.name} holds {len(raw)} bytes, "
                                f"but its sidecar shape {list(shape)} needs {need}")
        image = np.frombuffer(image_raw, dtype="<f4").reshape(shape).astype(np.float32)
        mask = np.frombuffer(mask_raw, dtype=np.uint8).reshape(shape[1:]).copy()
        return Sample(sample_id=sample_id, image=image, mask=mask, bands=bands, **info)

    # -- manifest persistence ---------------------------------------------------

    def save(self) -> Path:
        path = self.root / "manifest.json"
        payload = {
            "num_classes": self.num_classes,
            "class_names": self.class_names,
            "bands": list(self.bands),
            "band_stats": {b: {"mean": m, "std": s} for b, (m, s) in self.band_stats.items()},
            "samples": [
                {"sample_id": s.sample_id, "region": s.region, "lat": s.lat, "lon": s.lon,
                 "day_of_year": s.day_of_year, "year": s.year, "labels": list(s.labels)}
                for s in self.samples
            ],
            "splits": self.splits,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        return path

    @classmethod
    def load(cls, root) -> "DatasetManifest":
        root = Path(root)
        path = root / "manifest.json"
        if not path.exists():
            raise DataError(f"no manifest.json under {root}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return cls(
                root=root,
                num_classes=payload["num_classes"],
                class_names=payload["class_names"],
                bands=tuple(payload["bands"]),
                band_stats={b: (v["mean"], v["std"]) for b, v in payload["band_stats"].items()},
                samples=[SampleInfo(sample_id=s["sample_id"], region=s["region"], lat=s["lat"],
                                    lon=s["lon"], day_of_year=s["day_of_year"], year=s["year"],
                                    labels=tuple(s["labels"])) for s in payload["samples"]],
                splits=dict(payload["splits"]),
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}: malformed dataset manifest: {type(exc).__name__}: {exc}") from exc

    def verify_files(self) -> list[str]:
        """Sample ids whose blobs are missing on disk."""
        missing = []
        for info in self.samples:
            img_path, mask_path, meta_path = self._paths(info.sample_id)
            if not (img_path.exists() and mask_path.exists() and meta_path.exists()):
                missing.append(info.sample_id)
        return missing


# ---------------------------------------------------------------------------
# transforms


def _check_band_stat(band: str, mean, std) -> None:
    """Reject a band statistic that cannot normalise: the mean must be finite
    and the std finite and positive."""
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise DataError(f"band {band!r} needs a finite mean and a finite positive std, "
                        f"got mean {mean} and std {std}")


def normalize(sample: Sample, stats: dict[str, tuple[float, float]]) -> Sample:
    """Per-band (x - mean) / std under the manifest statistics."""
    missing = [b for b in sample.bands if b not in stats]
    if missing:
        raise DataError(f"{sample.sample_id}: no statistics for bands {missing}")
    image = sample.image.copy()
    for c, band in enumerate(sample.bands):
        mean, std = stats[band]
        _check_band_stat(band, mean, std)
        image[c] = (image[c] - mean) / std
    return replace(sample, image=image)


def denormalize(sample: Sample, stats: dict[str, tuple[float, float]]) -> Sample:
    missing = [b for b in sample.bands if b not in stats]
    if missing:
        raise DataError(f"{sample.sample_id}: no statistics for bands {missing}")
    image = sample.image.copy()
    for c, band in enumerate(sample.bands):
        mean, std = stats[band]
        image[c] = image[c] * std + mean
    return replace(sample, image=image)


def subset_bands(sample: Sample, keep) -> Sample:
    """Keep only the listed bands; channel order follows the sample's order."""
    keep = list(keep)
    unknown = [b for b in keep if b not in sample.bands]
    if unknown:
        raise DataError(f"{sample.sample_id}: unknown bands {unknown}")
    kept = [b for b in sample.bands if b in set(keep)]
    idx = [sample.bands.index(b) for b in kept]
    return replace(sample, image=sample.image[idx].copy(), bands=tuple(kept))


def reflect_pad_to(sample: Sample, target: tuple[int, int]) -> Sample:
    """Reflect-pad image to the target extent; padded mask pixels are ignored."""
    th, tw = target
    h, w = sample.mask.shape
    if th < h or tw < w:
        raise DataError(f"{sample.sample_id}: target {target} smaller than current ({h},{w})")
    if (th, tw) == (h, w):
        return sample
    top = (th - h) // 2
    bottom = th - h - top
    left = (tw - w) // 2
    right = tw - w - left
    if top >= h or bottom >= h or left >= w or right >= w:
        raise DataError(f"{sample.sample_id}: reflect padding larger than extent-1")
    image = np.pad(sample.image, ((0, 0), (top, bottom), (left, right)), mode="reflect")
    mask = np.pad(sample.mask, ((top, bottom), (left, right)),
                  mode="constant", constant_values=IGNORE_INDEX)
    return replace(sample, image=image, mask=mask)


def compute_band_stats(samples, bands) -> dict[str, tuple[float, float]]:
    """Population mean/std per band over the pixel union of the given samples."""
    total = {b: 0.0 for b in bands}
    total_sq = {b: 0.0 for b in bands}
    count = {b: 0 for b in bands}
    for sample in samples:
        for c, band in enumerate(sample.bands):
            if band not in total:
                continue
            values = sample.image[c].astype(np.float64)
            total[band] += values.sum()
            total_sq[band] += (values * values).sum()
            count[band] += values.size
    stats = {}
    for band in bands:
        if count[band] == 0:
            raise DataError(f"no pixels observed for band {band!r}")
        mean = total[band] / count[band]
        if not math.isfinite(total_sq[band]):  # checked before inf - inf can warn
            raise DataError(f"band {band!r} has a non-finite pixel")
        var = max(total_sq[band] / count[band] - mean * mean, 0.0)
        std = float(np.sqrt(var))
        _check_band_stat(band, mean, std)
        stats[band] = (float(mean), std)
    return stats
