"""Checkpoint format: manifest.json + weights.bin, bit-exact round trips."""

import json

import numpy as np
import pytest

from peftseg.autodiff import load_checkpoint, save_checkpoint
from peftseg.decoders import DecoderConfig
from peftseg.errors import CheckpointError
from peftseg.model import build_model

from conftest import tiny_backbone


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "a.bias": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.float32(3.5).reshape(()),
    }
    save_checkpoint(tmp_path / "ckpt", arrays)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name].view(np.uint32),
                              np.asarray(arrays[name], dtype=np.float32).view(np.uint32))


def test_manifest_schema(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.ones((2, 3), dtype=np.float32)})
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    entry = manifest["tensors"][0]
    assert entry["name"] == "w"
    assert entry["shape"] == [2, 3]
    assert entry["dtype"] == "f32"
    assert entry["offset"] == 0
    assert entry["length"] == 24
    blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
    assert len(blob) == 24
    assert np.frombuffer(blob, dtype="<f4").tolist() == [1.0] * 6


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope")


def test_truncated_weights_rejected(tmp_path):
    save_checkpoint(tmp_path / "ckpt", {"w": np.ones(8, dtype=np.float32)})
    blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
    (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:-4])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ckpt")


def _two_tensor_checkpoint(directory):
    save_checkpoint(directory, {"a": np.ones(2, dtype=np.float32),
                                "b": np.full(3, 2.0, dtype=np.float32)})
    return json.loads((directory / "manifest.json").read_text())


def _rejected(directory, manifest=None, weights=None):
    if manifest is not None:
        (directory / "manifest.json").write_text(json.dumps(manifest))
    if weights is not None:
        (directory / "weights.bin").write_bytes(weights)
    with pytest.raises(CheckpointError):
        load_checkpoint(directory)


def test_negative_offset_rejected(tmp_path):
    manifest = _two_tensor_checkpoint(tmp_path)
    manifest["tensors"][1]["offset"] = -4
    _rejected(tmp_path, manifest)


def test_missing_entry_key_rejected(tmp_path):
    manifest = _two_tensor_checkpoint(tmp_path)
    del manifest["tensors"][0]["shape"]
    _rejected(tmp_path, manifest)


@pytest.mark.parametrize("tensors", [5, "a", {"name": "a"}, None])
def test_non_list_tensors_rejected(tmp_path, tensors):
    _two_tensor_checkpoint(tmp_path)
    _rejected(tmp_path, {"tensors": tensors})


def test_overlapping_offsets_rejected(tmp_path):
    manifest = _two_tensor_checkpoint(tmp_path)
    manifest["tensors"][1]["offset"] = 4  # "a" covers bytes 0-7
    _rejected(tmp_path, manifest, weights=(tmp_path / "weights.bin").read_bytes()[:16])


def test_duplicate_names_rejected(tmp_path):
    manifest = _two_tensor_checkpoint(tmp_path)
    manifest["tensors"][1]["name"] = "a"
    _rejected(tmp_path, manifest)


def test_trailing_weight_bytes_rejected(tmp_path):
    _two_tensor_checkpoint(tmp_path)
    _rejected(tmp_path, weights=(tmp_path / "weights.bin").read_bytes() + bytes(4))


def test_model_save_load_round_trip(tmp_path):
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "lora", seed=5)
    model.save(tmp_path / "ckpt")
    other = build_model(tiny_backbone(), DecoderConfig("linear", 2), "lora", seed=99)
    other.load(tmp_path / "ckpt")
    for (name_a, ta), (name_b, tb) in zip(model.named_parameters(), other.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data), name_a


def test_adapter_checkpoint_reconstructs_adapted_model(tmp_path):
    """Base names stay stable under LoRA, so a base checkpoint plus the
    adapter-prefixed tensors reconstructs the adapted model."""
    plain = build_model(tiny_backbone(), DecoderConfig("linear", 2), "full_finetune", seed=5)
    adapted = build_model(tiny_backbone(), DecoderConfig("linear", 2), "lora", seed=5)
    plain_names = {n for n, _ in plain.named_parameters()}
    adapted_names = {n for n, _ in adapted.named_parameters()}
    assert plain_names <= adapted_names
    extra = adapted_names - plain_names
    assert extra and all(name.startswith("peft.lora.") for name in extra)


def test_incompatible_shape_rejected(tmp_path):
    model = build_model(tiny_backbone(), DecoderConfig("linear", 2), "full_finetune", seed=5)
    state = model.state_dict()
    name = next(iter(state))
    state[name] = np.zeros((1, 1), dtype=np.float32)
    save_checkpoint(tmp_path / "bad", state)
    fresh = build_model(tiny_backbone(), DecoderConfig("linear", 2), "full_finetune", seed=5)
    with pytest.raises(CheckpointError):
        fresh.load(tmp_path / "bad")
