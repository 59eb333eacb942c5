"""Shared fixtures: tiny model configs, the desk-scale synthetic dataset, and
session-cached training runs reused by the learning/generalization tests."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import pytest

from peftseg.autodiff import primitives
from peftseg.backbone import BackboneConfig
from peftseg.decoders import DecoderConfig
from peftseg.peft import VitAdapterConfig
from peftseg.synthetic import SyntheticConfig, generate_synthetic
from peftseg.training import RunConfig, train

BANDS6 = ("blue", "green", "red", "nir", "swir1", "swir2")
BANDS10 = tuple(f"band_{i:02d}" for i in range(10))

DESK_SEEDS = (0, 1, 2, 3, 4)
# fixed, known-good learning rates for the tiny separable task
METHOD_LRS = {
    "full_finetune": 3e-3,
    "lora": 3e-3,
    "linear_probe": 2e-2,
    "vpt": 3e-3,
    "vit_adapter": 3e-3,
}
TINY_ADAPTER = VitAdapterConfig(channels=(32, 32, 32))


def tiny_backbone(bands=BANDS6, image=(64, 64), metadata=False) -> BackboneConfig:
    return BackboneConfig(embed_dim=64, depth=4, heads=4, patch_size=8,
                          band_ids=tuple(bands), image_size=image,
                          metadata_enabled=metadata)


@pytest.fixture(scope="session")
def desk_synth_cfg() -> SyntheticConfig:
    return SyntheticConfig(regions=("north", "south", "holdout"),
                           samples_per_region=40, ghos_samples=10,
                           bands=BANDS6, extent=64, num_classes=2, seed=11)


@pytest.fixture(scope="session")
def desk_manifest(tmp_path_factory, desk_synth_cfg):
    root = tmp_path_factory.mktemp("desk_dataset")
    return generate_synthetic(desk_synth_cfg, root)


@pytest.fixture(scope="session")
def desk_backbone() -> BackboneConfig:
    return tiny_backbone()


@pytest.fixture(scope="session")
def stream_manifest(tmp_path_factory):
    """At least 128 six-band 32x32 samples; tests cut splits from it with ``with_split``."""
    cfg = SyntheticConfig(regions=("p", "q"), samples_per_region=128, ghos_samples=0,
                          extent=32, seed=5)
    return generate_synthetic(cfg, tmp_path_factory.mktemp("stream_dataset"))


def with_split(manifest, split: str, n: int):
    """A copy of ``manifest`` whose only split is ``split``: its first ``n`` samples."""
    return replace(manifest, splits={info.sample_id: split for info in manifest.samples[:n]})


def traced_peak(fn) -> int:
    """tracemalloc peak bytes of one ``fn()`` call, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class PrimitivePeak(NamedTuple):
    """One primitive call: bytes traced when it began (``held``) and the
    most it allocated on top of them before it returned (``transient``)."""
    op: str
    direction: str  # "forward" or "backward"
    call: int  # 1-based, per op and direction
    held: int
    transient: int


@contextmanager
def _probed_rules(probe):
    """Replace every registry entry's forward and backward rule with
    ``probe(op, direction, rule)``, keeping its ``saves``, while the block runs."""
    originals = dict(primitives._REGISTRY)
    for op, prim in originals.items():
        primitives._REGISTRY[op] = replace(prim, forward=probe(op, "forward", prim.forward),
                                           backward=probe(op, "backward", prim.backward))
    try:
        yield
    finally:
        primitives._REGISTRY.update(originals)


@contextmanager
def primitive_peaks():
    """Trace memory and yield a list that gets a ``PrimitivePeak`` for every
    forward and backward rule run while the block is active.

    Each registry entry is wrapped, keeping its ``saves``; the tracemalloc
    peak is reset before each rule runs, so a row's ``held + transient`` is
    the traced peak at that call, and the highest such row is the ceiling of
    what ran. Run ``backward()`` inside the block too: only there is memory traced.
    """
    rows, counts = [], Counter()

    def probed(op, direction, rule):
        def run(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = rule(*args)
            counts[op, direction] += 1
            transient = tracemalloc.get_traced_memory()[1] - held
            rows.append(PrimitivePeak(op, direction, counts[op, direction], held, transient))
            return out
        return run

    with _probed_rules(probed):
        tracemalloc.start()
        try:
            yield rows
        finally:
            tracemalloc.stop()


@contextmanager
def primitive_calls():
    """Yield a ``Counter`` of rule calls keyed by (op, direction), direction
    "forward" or "backward", for every rule run while the block is active.
    A node's backward rule is counted only if its forward ran inside the block."""
    counts = Counter()

    def counted(op, direction, rule):
        def run(*args):
            counts[op, direction] += 1
            return rule(*args)
        return run

    with _probed_rules(counted):
        yield counts


def desk_run_config(manifest, backbone, method, seed) -> RunConfig:
    return RunConfig(
        backbone=backbone,
        decoder=DecoderConfig("linear", manifest.num_classes),
        manifest=manifest,
        method=method,
        learning_rate=METHOD_LRS[method],
        batch_size=8,
        max_epochs=30,
        early_stop_patience=30,  # run out the full 30-epoch budget
        seed=seed,
        adapter=TINY_ADAPTER,
    )


@pytest.fixture(scope="session")
def desk_runs(desk_manifest, desk_backbone):
    """(method, seed) -> RunResult over the full method x seed grid."""
    runs = {}
    for method in METHOD_LRS:
        for seed in DESK_SEEDS:
            cfg = desk_run_config(desk_manifest, desk_backbone, method, seed)
            runs[(method, seed)] = train(cfg)
    return runs


@pytest.fixture(scope="session")
def band_manifest(tmp_path_factory):
    """10-band dataset for the input-generalization (band dropping) runs."""
    cfg = SyntheticConfig(regions=("east", "west", "far"), samples_per_region=20,
                          ghos_samples=6, bands=BANDS10, extent=64,
                          num_classes=2, informative_bands=6, seed=29)
    root = tmp_path_factory.mktemp("band_dataset")
    return generate_synthetic(cfg, root)


@pytest.fixture(scope="session")
def band_runs(band_manifest):
    """(method, bands_label, seed) -> RunResult for full vs subset band sets."""
    backbone = tiny_backbone(bands=BANDS10)
    subset = BANDS10[:6]
    runs = {}
    for method in ("full_finetune", "linear_probe"):
        for label, bands in (("all", None), ("subset", subset)):
            for seed in (0, 1, 2):
                cfg = replace(
                    desk_run_config(band_manifest, backbone, method, seed),
                    bands=bands, max_epochs=15, early_stop_patience=15)
                runs[(method, label, seed)] = train(cfg)
    return runs
