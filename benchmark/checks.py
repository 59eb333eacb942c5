"""Reference computations the benchmark checks the program's outputs against.

Everything here is plain numpy over raw bytes and arrays: it reads no
``peftseg`` module, so a fault in the program cannot hide itself by also
breaking its own check. Each ``check_*`` function returns True when the
output is right and False when it is wrong.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

IGNORE = 255
FROZEN = "encoder."  # every non-full policy freezes exactly the encoder
MERGE_TOLERANCE = 1e-4  # float32 reassociation, relative to the logit magnitude
EARTH_RADIUS_KM = 6371.0088  # IUGG mean Earth radius
ROW_BLOCK = 256  # pairwise distance rows at a time


# ---------------------------------------------------------------------------
# raw dataset access


def read_split(root: Path, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Normalized images (N, C, H, W) float32 and masks (N, H, W) uint8 of one
    split, read from ``manifest.json`` and the raw ``.img``/``.mask`` blobs."""
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    stats = manifest["band_stats"]
    images, masks = [], []
    for entry in manifest["samples"]:
        sid = entry["sample_id"]
        if manifest["splits"].get(sid) != split:
            continue
        meta = json.loads((root / "samples" / f"{sid}.json").read_text(encoding="utf-8"))
        c, h, w = meta["shape"]
        image = np.fromfile(root / "samples" / f"{sid}.img", dtype="<f4").reshape(c, h, w)
        image = image.astype(np.float32)
        for i, band in enumerate(meta["bands"]):
            image[i] = (image[i] - stats[band]["mean"]) / stats[band]["std"]
        images.append(image)
        masks.append(np.fromfile(root / "samples" / f"{sid}.mask", dtype=np.uint8).reshape(h, w))
    return np.stack(images), np.stack(masks)


# ---------------------------------------------------------------------------
# segmentation metrics


def confusion(masks: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    valid = masks != IGNORE
    ref = masks[valid].astype(np.int64)
    return np.bincount(ref * k + pred[valid].astype(np.int64), minlength=k * k).reshape(k, k)


def miou_percent(cm: np.ndarray) -> float:
    """Mean IoU over classes whose union is non-empty, in percent."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float((tp[present] / union[present]).mean() * 100.0)


def majority_miou(masks: np.ndarray, k: int) -> float:
    """mIoU of predicting the most frequent valid class at every pixel."""
    counts = np.bincount(masks[masks != IGNORE].astype(np.int64), minlength=k)
    return miou_percent(confusion(masks, np.full(masks.shape, counts.argmax()), k))


def check_confusion(masks: np.ndarray, pred: np.ndarray, reported_cm, reported_miou: float,
                    k: int) -> bool:
    """The program's confusion matrix and mIoU equal the ones recomputed from
    the argmax predictions and the raw masks."""
    cm = confusion(masks, pred, k)
    return (np.array_equal(cm, np.asarray(reported_cm))
            and math.isclose(miou_percent(cm), reported_miou, rel_tol=1e-12, abs_tol=1e-9))


# ---------------------------------------------------------------------------
# parameters


def bits(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


def check_frozen_unchanged(fresh: dict, trained: dict) -> bool:
    """Every encoder tensor is bitwise equal to its fresh initialisation."""
    return fresh.keys() == trained.keys() and all(
        bits(a) == bits(trained[n]) for n, a in fresh.items() if n.startswith(FROZEN))


def check_trained_moved(fresh: dict, trained: dict, only: str = "", skip: tuple = ()) -> bool:
    """Every parameter outside the encoder whose name starts with ``only`` and
    with none of ``skip`` differs from its fresh initialisation, and there is
    at least one. Buffers (running statistics) are not parameters."""
    names = [n for n in fresh if n.startswith(only)
             and not n.startswith((FROZEN, "buffers.", *skip))]
    return fresh.keys() == trained.keys() and bool(names) and all(
        bits(fresh[n]) != bits(trained[n]) for n in names)


def check_state_equal(a: dict, b: dict) -> bool:
    """Same names, shapes and bits."""
    return a.keys() == b.keys() and all(
        a[n].shape == b[n].shape and bits(a[n]) == bits(b[n]) for n in a)


def check_close(a: np.ndarray, b: np.ndarray) -> bool:
    """Agreement to ``MERGE_TOLERANCE`` of the larger magnitude."""
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1.0)
    return a.shape == b.shape and float(np.abs(a - b).max()) <= MERGE_TOLERANCE * scale


# ---------------------------------------------------------------------------
# embedding distances


def min_distances(queries: np.ndarray, train: np.ndarray) -> np.ndarray:
    d2 = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


# ---------------------------------------------------------------------------
# spatial splits


def haversine_km(lat1, lon1, lat2, lon2):
    lat1, lon1, lat2, lon2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def cross_split_min_km(lat: np.ndarray, lon: np.ndarray, split: np.ndarray) -> float:
    """Smallest distance between two sites of different splits, in row
    blocks so the pairwise matrix never exceeds ``ROW_BLOCK`` x N."""
    best = math.inf
    for start in range(0, len(lat), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        d = haversine_km(lat[rows, None], lon[rows, None], lat[None, :], lon[None, :])
        cross = split[rows, None] != split[None, :]
        if cross.any():
            best = min(best, float(d[cross].min()))
    return best


def check_buffered_split(ids: list[str], lat: np.ndarray, lon: np.ndarray,
                         assignment: dict, buffer_km: float, reported_min_km: float) -> bool:
    """Every site is assigned exactly once; every pair of sites in different
    splits is at least ``buffer_km`` apart, which is the same as saying any
    two sites closer than the buffer share a split; and the program's reported
    minimum cross-split distance is the true one."""
    if sorted(assignment) != sorted(ids) or len(set(ids)) != len(ids):
        return False
    names = sorted(set(assignment.values()))
    split = np.array([names.index(assignment[s]) for s in ids])
    true_min = cross_split_min_km(lat, lon, split)
    return true_min >= buffer_km and math.isclose(true_min, reported_min_km, rel_tol=1e-9)
