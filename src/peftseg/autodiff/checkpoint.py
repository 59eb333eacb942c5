"""Shared checkpoint format: manifest.json + weights.bin.

A checkpoint is a directory holding a ``manifest.json`` with one entry per
tensor (name, shape, dtype "f32", byte offset, byte length) and a
``weights.bin`` of little-endian IEEE-754 32-bit values concatenated in
manifest order. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
_DTYPE = np.dtype("<f4")


def save_checkpoint(directory, named_arrays) -> None:
    """Write ``{name: ndarray}`` in iteration order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    entries = []
    offset = 0
    blobs = []
    for name, arr in named_arrays.items():
        arr = np.asarray(arr)
        raw = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": "f32",
            "offset": offset,
            "length": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)

    with open(directory / WEIGHTS_NAME, "wb") as fh:
        for raw in blobs:
            fh.write(raw)
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump({"tensors": entries}, fh, indent=1)


def load_checkpoint(directory) -> dict[str, np.ndarray]:
    """Read a checkpoint back into ``{name: float32 ndarray}`` in manifest order."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    weights_path = directory / WEIGHTS_NAME
    if not manifest_path.exists() or not weights_path.exists():
        raise CheckpointError(f"{directory} is not a checkpoint directory")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entries = manifest["tensors"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt manifest in {directory}: {exc}") from exc
    if not isinstance(entries, list):
        raise CheckpointError(f"corrupt manifest in {directory}: 'tensors' is not a list")

    raw = weights_path.read_bytes()
    out: dict[str, np.ndarray] = {}
    end = 0  # tensors lie back to back in manifest order
    for entry in entries:
        try:
            name, dtype, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
            start, length = entry["offset"], entry["length"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"corrupt manifest entry in {directory}: {entry!r} ({exc!r})") from exc
        if not isinstance(name, str):
            raise CheckpointError(f"tensor name {name!r} is not a string")
        if name in out:
            raise CheckpointError(f"tensor {name!r} is listed twice")
        if dtype != "f32":
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {dtype!r}")
        if not all(isinstance(v, int) and v >= 0 for v in (start, length, *shape)):
            raise CheckpointError(f"tensor {name!r}: offset, length and shape must be "
                                  f"non-negative integers, got {start!r}, {length!r}, {list(shape)}")
        if start != end:
            raise CheckpointError(f"tensor {name!r} starts at byte {start}, but the tensors "
                                  f"before it end at byte {end}")
        if start + length > len(raw):
            raise CheckpointError(f"tensor {name!r} extends past end of weights.bin")
        count = math.prod(shape)
        if count * 4 != length:
            raise CheckpointError(f"tensor {name!r}: shape {shape} disagrees with byte length {length}")
        arr = np.frombuffer(raw, dtype=_DTYPE, count=count, offset=start)
        out[name] = arr.reshape(shape).astype(np.float32)
        end = start + length
    if end != len(raw):
        raise CheckpointError(f"weights.bin holds {len(raw) - end} bytes after its last tensor")
    return out
