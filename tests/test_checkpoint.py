"""Checkpoint format: manifest.json + weights.bin, bit-exact round trips."""

import json
import re

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
    """Parameters and batch-norm running statistics survive save and load."""
    images = np.random.default_rng(0).normal(size=(2, 6, 64, 64)).astype(np.float32)
    for kind in ("linear", "unet"):
        model = build_model(tiny_backbone(), DecoderConfig(kind, 2), "lora", seed=5)
        model.forward(images, training=True)  # moves the running statistics
        model.save(tmp_path / kind)
        other = build_model(tiny_backbone(), DecoderConfig(kind, 2), "lora", seed=99)
        saved, fresh = model.state_dict(), other.state_dict()
        buffers = [n for n in saved if n.startswith("buffers.")]
        assert bool(buffers) == (kind == "unet")
        assert all(not np.array_equal(saved[n], fresh[n]) for n in buffers)
        other.load(tmp_path / kind)
        loaded = other.state_dict()
        assert list(loaded) == list(saved)
        for name in saved:
            assert np.array_equal(saved[name], loaded[name]), (kind, name)


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
    """A wrong-shaped tensor or buffer, a tensor or buffer the model lacks, or
    one the checkpoint lacks is rejected by name, and nothing is loaded."""
    wrong = np.zeros((1, 1), dtype=np.float32)
    first_param = lambda state: next(iter(state))
    first_buffer = lambda state: next(n for n in state if n.startswith("buffers."))
    cases = (("linear", first_param, wrong),
             ("unet", first_buffer, wrong),
             ("unet", lambda state: "buffers.decoder.no_such_norm.running_mean",
              np.zeros(4, dtype=np.float32)),
             ("linear", lambda state: "decoder.no_such_layer.weight", wrong),
             ("linear", first_param, None),
             ("unet", first_buffer, None))
    for i, (kind, pick, arr) in enumerate(cases):
        model = build_model(tiny_backbone(), DecoderConfig(kind, 2), "full_finetune", seed=5)
        state = model.state_dict()
        key = pick(state)
        if arr is None:
            del state[key]
        else:
            state[key] = arr
        save_checkpoint(tmp_path / f"bad{i}", state)
        fresh = build_model(tiny_backbone(), DecoderConfig(kind, 2), "full_finetune", seed=6)
        before = fresh.snapshot()
        with pytest.raises(CheckpointError, match=re.escape(repr(key))):
            fresh.load(tmp_path / f"bad{i}")
        after = fresh.state_dict()
        assert all(np.array_equal(after[name], before[name]) for name in before)
