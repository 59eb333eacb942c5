"""The checkpoint format is the parameter walk: ordered state-dict names and
shapes, and every parameter's requires_grad flag, pinned for each freeze
policy x head x metadata setting; and no tensor a model holds escapes it.

The fixture changes only when the format changes on purpose. Regenerate it
with ``PYTHONPATH=src python tests/test_state_names.py``.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from peftseg.autodiff import Tensor
from peftseg.backbone import BackboneConfig
from peftseg.decoders import DECODER_KINDS, DecoderConfig
from peftseg.model import build_model
from peftseg.peft import LORA_TARGETS, POLICIES, LoraConfig, VitAdapterConfig, VptConfig

FIXTURE = Path(__file__).with_name("state_names.json")
CONFIGS = [(policy, kind, meta) for policy in POLICIES for kind in DECODER_KINDS
           for meta in (False, True)]


def config_key(policy: str, kind: str, meta: bool) -> str:
    return f"{policy}+{kind}" + ("+meta" if meta else "")


def tiny_model(policy: str, kind: str, meta: bool):
    """A small model per configuration; LoRA drops two of its default targets
    whenever metadata is on, so non-default targets are pinned too."""
    backbone = BackboneConfig(embed_dim=16, depth=4, heads=2, patch_size=8,
                              band_ids=("b0", "b1", "b2"), image_size=(32, 32),
                              metadata_enabled=meta)
    decoder = DecoderConfig(kind, 3, fcn_hidden=8, unet_widths=(8, 8, 8, 8),
                            upernet_channels=8)
    targets = ("attention-value", "mlp-fc1") if meta else LORA_TARGETS
    return build_model(backbone, decoder, policy, lora_cfg=LoraConfig(rank=2, targets=targets),
                       vpt_cfg=VptConfig(prompts_per_layer=2),
                       adapter_cfg=VitAdapterConfig(channels=(8, 8, 8)))


def describe(model) -> dict:
    return {
        "state": [f"{name} {'x'.join(map(str, arr.shape))}"
                  for name, arr in model.state_dict().items()],
        "requires_grad": "".join("1" if t.requires_grad else "0"
                                 for _, t in model.named_parameters()),
    }


def expected(policy: str, kind: str, meta: bool) -> dict:
    """The fixture's record: state entries are indices into one shared table
    of ``name shape`` lines, since most entries recur across configurations."""
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    record = fixture["configs"][config_key(policy, kind, meta)]
    return {"state": [fixture["entries"][int(i)] for i in record["state"].split()],
            "requires_grad": record["requires_grad"]}


@pytest.mark.parametrize("policy,kind,meta", CONFIGS)
def test_state_names_match_the_checkpoint_format(policy, kind, meta):
    assert describe(tiny_model(policy, kind, meta)) == expected(policy, kind, meta)


def _reachable(obj, tensors: dict, arrays: dict, seen: set) -> None:
    """Every Tensor and ndarray held by the package's objects under ``obj``,
    by identity; a Tensor's own data is not descended into."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        tensors[id(obj)] = obj
    elif isinstance(obj, np.ndarray):
        arrays[id(obj)] = obj
    elif isinstance(obj, dict):
        for item in obj.values():
            _reachable(item, tensors, arrays, seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _reachable(item, tensors, arrays, seen)
    elif type(obj).__module__.startswith("peftseg.") and hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _reachable(item, tensors, arrays, seen)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", DECODER_KINDS)
def test_every_held_tensor_is_named_exactly_once(policy, kind):
    model = tiny_model(policy, kind, meta=True)
    tensors, arrays = {}, {}
    _reachable(model, tensors, arrays, set())
    params = Counter(id(t) for _, t in model.named_parameters())
    buffers = Counter(id(b) for _, b in model.named_buffers())
    assert set(params) == set(tensors) and set(params.values()) == {1}
    assert set(buffers) == set(arrays) and set(buffers.values()) <= {1}


if __name__ == "__main__":
    entries: dict[str, int] = {}
    configs = {}
    for config in CONFIGS:
        record = describe(tiny_model(*config))
        state = [entries.setdefault(entry, len(entries)) for entry in record["state"]]
        configs[config_key(*config)] = {"state": " ".join(map(str, state)),
                                        "requires_grad": record["requires_grad"]}
    fixture = {"entries": list(entries), "configs": configs}
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
