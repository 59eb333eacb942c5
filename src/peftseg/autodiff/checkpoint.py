"""Shared checkpoint format: manifest.json + weights.bin.

A checkpoint is a directory holding a ``manifest.json`` with one entry per
tensor (name, shape, dtype "f32", byte offset, byte length) and a
``weights.bin`` of little-endian IEEE-754 32-bit values concatenated in
manifest order. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
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
    except (json.JSONDecodeError, KeyError) as exc:
        raise CheckpointError(f"corrupt manifest in {directory}: {exc}") from exc

    raw = weights_path.read_bytes()
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        name = entry["name"]
        if entry["dtype"] != "f32":
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {entry['dtype']!r}")
        start, length = entry["offset"], entry["length"]
        if start + length > len(raw):
            raise CheckpointError(f"tensor {name!r} extends past end of weights.bin")
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if count * 4 != length:
            raise CheckpointError(f"tensor {name!r}: shape {shape} disagrees with byte length {length}")
        arr = np.frombuffer(raw, dtype=_DTYPE, count=count, offset=start)
        out[name] = arr.reshape(shape).astype(np.float32)
    return out
