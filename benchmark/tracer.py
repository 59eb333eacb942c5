"""Span tracing of the package's public functions, from outside the package.

``Tracer.install()`` replaces each traced function (module attribute, class
method or autodiff primitive) with a wrapper that records one span per call
while the tracer is active: id, parent span, name, phase, start and end, plus
the time covered by its direct children so self time is exact. Counts are
recorded at the same boundaries. Spans stay in memory; ``write`` puts them in
a CSV file when the run ends. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from pathlib import Path

from peftseg import data, decoders, diagnostics, model, peft, splits, synthetic, training
from peftseg.autodiff import primitives
from peftseg.autodiff.tensor import trace as tape_of
from peftseg.backbone import ViTBackbone
from peftseg.metrics import ConfusionMatrix

MB = 1024 * 1024

# span name -> [(owner, attribute)]; every owner's attribute is replaced.
# Functions imported by name into another module are patched where they are
# looked up, so calls from inside the package hit the wrapper too.
TRACED = {
    "backbone.embed": [(ViTBackbone, "embed_patches")],
    "backbone.encoder": [(ViTBackbone, "forward_features")],
    "peft.adapter": [(peft.VitAdapterAttachment, "stem_tokens"),
                     (peft.VitAdapterAttachment, "pyramid")],
    "decoders.neck": [(decoders.Neck, "__call__"), (decoders.AdapterNeck, "__call__")],
    "decoders.head": [(model, "decode")],
    "model.forward": [(model.SegmentationModel, "forward")],
    "model.snapshot": [(model.SegmentationModel, "snapshot")],
    "training.train": [(training, "train")],
    "training.evaluate": [(training, "evaluate")],
    "training.optimizer": [(training.AdamW, "step")],
    "autodiff.backward": [(training, "backward")],
    "data.load_sample": [(data.DatasetManifest, "load_sample")],
    "data.transform": [(training, "normalize"), (training, "subset_bands"),
                       (training, "reflect_pad_to"), (diagnostics, "normalize"),
                       (diagnostics, "subset_bands"), (diagnostics, "reflect_pad_to")],
    "metrics.update": [(ConfusionMatrix, "update")],
    "diagnostics.distance_report": [(diagnostics, "distance_report")],
    "diagnostics.embed": [(ViTBackbone, "image_embedding")],
    "diagnostics.nn": [(diagnostics, "min_distances_to_train")],
    "splits.build": [(splits, "build_buffered_spatial_splits")],
    "splits.audit": [(splits, "audit_splits")],
    "splits.min_distance": [(splits, "min_cross_split_distance")],
    "checkpoint.save": [(model, "save_checkpoint")],
    "checkpoint.load": [(model, "load_checkpoint")],
    "synthetic.generate": [(synthetic, "generate_synthetic")],
}

# Per-layer metrics: name -> (unit, kind, span names). Kinds, all from the
# traced run: "ms" is span time per timed round, "self" self time per round,
# "calls" calls per round, "count" the metric's own counter per round, "mean"
# that counter per call in the rounds, "mean_all" the same over set-up and
# rounds, and "per_call" mean span ms per call over set-up and rounds.
LAYER_METRICS = {
    "autodiff.backward_ms": ("ms", "ms", ("autodiff.backward",)),
    "autodiff.tape_nodes": ("count", "mean", ("autodiff.backward",)),
    "autodiff.tape_mb": ("MB", "mean", ("autodiff.backward",)),
    "backbone.embed_ms": ("ms", "ms", ("backbone.embed",)),
    "backbone.encoder_ms": ("ms", "ms", ("backbone.encoder",)),
    "peft.adapter_ms": ("ms", "ms", ("peft.adapter",)),
    "peft.trainable_params": ("count", "count", ()),
    "decoders.neck_ms": ("ms", "ms", ("decoders.neck",)),
    "decoders.head_ms": ("ms", "ms", ("decoders.head",)),
    "model.forward_ms": ("ms", "ms", ("model.forward",)),
    "model.snapshot_calls": ("count", "calls", ("model.snapshot",)),
    "model.snapshot_ms": ("ms", "ms", ("model.snapshot",)),
    "model.snapshot_mb": ("MB", "mean", ("model.snapshot",)),
    "training.optimizer_ms": ("ms", "ms", ("training.optimizer",)),
    "training.loop_self_ms": ("ms", "self", ("training.train",)),
    "data.load_sample_calls": ("count", "calls", ("data.load_sample",)),
    "data.load_sample_ms": ("ms", "ms", ("data.load_sample",)),
    "data.read_mb": ("MB", "count", ()),
    "data.transform_ms": ("ms", "ms", ("data.transform",)),
    "metrics.update_calls": ("count", "calls", ("metrics.update",)),
    "metrics.update_ms": ("ms", "ms", ("metrics.update",)),
    "diagnostics.embedding_calls": ("count", "calls", ("diagnostics.embed",)),
    "diagnostics.embed_ms": ("ms", "ms", ("diagnostics.embed",)),
    "diagnostics.nn_ms": ("ms", "ms", ("diagnostics.nn",)),
    "splits.min_distance_calls": ("count", "calls", ("splits.min_distance",)),
    "splits.min_distance_ms": ("ms", "ms", ("splits.min_distance",)),
    "splits.build_self_ms": ("ms", "self", ("splits.build",)),
    "checkpoint.save_ms": ("ms", "per_call", ("checkpoint.save",)),
    "checkpoint.load_ms": ("ms", "per_call", ("checkpoint.load",)),
    "checkpoint.mb": ("MB", "mean_all", ("checkpoint.save", "checkpoint.load")),
    "synthetic.generate_ms": ("ms", "per_call", ("synthetic.generate",)),
}


def primitive_metrics(ops) -> dict:
    out = {}
    for op in ops:
        out[f"autodiff.fwd_ms.{op}"] = ("ms", "ms", (f"autodiff.fwd.{op}",))
        out[f"autodiff.bwd_ms.{op}"] = ("ms", "ms", (f"autodiff.bwd.{op}",))
    return out


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.active = False
        self.phase = "setup"
        self.rounds = 0
        # (id, parent, name, phase, start_ns, end_ns, child_ns)
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (phase, key)
        self._stack = [[0, 0]]  # [span id, child ns]
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        if self.active:
            self.counts[(self.phase, key)] += value

    def span(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0]
        frame = [sid, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._stack[-1][1] += end - start
            self.spans.append((sid, parent, name, self.phase, start, end, frame[1]))

    # -- patching --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for name, targets in TRACED.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._instrument_counts()
        registry = primitives._REGISTRY
        for op, prim in list(registry.items()):
            self._saved.append((registry, op, prim))
            registry[op] = primitives.Primitive(
                self._wrap(f"autodiff.fwd.{op}", prim.forward),
                self._wrap(f"autodiff.bwd.{op}", prim.backward), prim.linear)
        return self

    def _instrument_counts(self) -> None:
        """Counters that need a call's arguments or result."""
        tracer = self
        backward = training.backward
        load_sample = data.DatasetManifest.load_sample
        snapshot = model.SegmentationModel.snapshot
        save, load = model.save_checkpoint, model.load_checkpoint
        train = training.train

        def counted_backward(loss):
            if tracer.active:
                tape = tracer.span("trace.tape_stats", tape_of, loss)
                tracer.count("autodiff.tape_nodes", len(tape.nodes))
                tracer.count("autodiff.tape_mb", sum(n.output.data.nbytes for n in tape.nodes) / MB)
            return backward(loss)

        def counted_load_sample(self, sample_id):
            sample = load_sample(self, sample_id)
            tracer.count("data.read_mb", (sample.image.nbytes + sample.mask.nbytes) / MB)
            return sample

        def counted_snapshot(self):
            snap = snapshot(self)
            tracer.count("model.snapshot_mb", sum(a.nbytes for a in snap.values()) / MB)
            return snap

        def counted_save(directory, named_arrays):
            tracer.count("checkpoint.mb", sum(a.nbytes for a in named_arrays.values()) / MB)
            return save(directory, named_arrays)

        def counted_load(directory):
            arrays = load(directory)
            tracer.count("checkpoint.mb", sum(a.nbytes for a in arrays.values()) / MB)
            return arrays

        def counted_train(cfg, *args, **kwargs):
            result = train(cfg, *args, **kwargs)
            tracer.count("peft.trainable_params",
                         sum(t.size for _, t in result.model.trainable_parameters()))
            return result

        for owner, attr, fn in ((training, "backward", counted_backward),
                                (data.DatasetManifest, "load_sample", counted_load_sample),
                                (model.SegmentationModel, "snapshot", counted_snapshot),
                                (model, "save_checkpoint", counted_save),
                                (model, "load_checkpoint", counted_load),
                                (training, "train", counted_train)):
            self._patch(owner, attr, fn)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------------

    def report(self, metrics: dict) -> dict:
        """Per-layer values for ``metrics`` (name -> (unit, kind, span names))."""
        total = defaultdict(int)      # (phase, name) -> ns
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for _, _, name, phase, start, end, child in self.spans:
            total[(phase, name)] += end - start
            self_ns[(phase, name)] += end - start - child
            calls[(phase, name)] += 1
        rounds = max(self.rounds, 1)

        def summed(table, phases, keys):
            return sum(table[(p, k)] for p in phases for k in keys)

        out = {}
        for metric, (unit, kind, keys) in metrics.items():
            phases = ("setup", "round") if kind in ("mean_all", "per_call") else ("round",)
            n = summed(calls, phases, keys)
            if kind == "ms":
                value = summed(total, phases, keys) / 1e6 / rounds
            elif kind == "self":
                value = summed(self_ns, phases, keys) / 1e6 / rounds
            elif kind == "calls":
                value = n / rounds
            elif kind == "count":
                value = self.counts[("round", metric)] / rounds
            elif kind in ("mean", "mean_all"):
                value = summed(self.counts, phases, (metric,)) / n if n else 0.0
            else:  # per_call
                value = summed(total, phases, keys) / 1e6 / n if n else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "workload", "phase", "start_ns", "end_ns"])
            for sid, parent, name, phase, start, end, _ in self.spans:
                writer.writerow([sid, parent, name, self.workload, phase, start, end])
