"""Measurement loop: set-up, whole timed rounds, per-round checks, metrics.

Untraced runs give the end-to-end metrics; traced runs give the per-layer
metrics and the tracing overhead. Every round attempts the same stages and
the same checks, so the share of failed operations does not depend on the
run length.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from peftseg import training
from tracer import LAYER_METRICS, Tracer, primitive_metrics
from workloads import KNOWN_FAULTS, WORKLOADS

SETUPS = 3
# The registered autodiff primitives; the self-check compares this list with
# the registry, so a new primitive shows up as a missing metric.
PRIMITIVES = (
    "adaptive_avg_pool2d", "add", "avg_pool2d", "batch_norm2d", "bilinear_resize", "concat",
    "conv2d", "conv_transpose2d", "dropout", "gelu", "layer_norm", "log_softmax", "matmul",
    "max_pool2d", "mean", "mul", "neg", "reflect_pad2d", "relu", "reshape", "scale", "slice",
    "softmax", "sub", "sum", "transpose")

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "sps_geomean": "samples/s",
    "peak_mb": "MB",
    "test_miou": "%",
    "ghos_miou": "%",
}


def layer_metrics() -> dict:
    return {**LAYER_METRICS, **primitive_metrics(PRIMITIVES)}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.log: list[dict] = []

    def op(self, name: str, fn, is_check: bool):
        """Run one operation; an exception or a failed check counts as failed
        and makes the run incorrect unless the operation is a known fault."""
        self.attempted += 1
        try:
            result = fn()
        except Exception:  # the loop must go on; the failure is counted and shown
            self.failed += 1
            if name not in KNOWN_FAULTS:
                self.correct = False
            self.log.append({"op": name, "ok": False, "error": traceback.format_exc()})
            traceback.print_exc(file=sys.stderr)
            return None, False
        ok = bool(result) if is_check else True
        if not ok:
            self.failed += 1
            if name not in KNOWN_FAULTS:
                self.correct = False
            print(f"check failed: {name}", file=sys.stderr)
        if is_check:
            self.log.append({"op": name, "ok": ok})
        return result, ok


class SpeedReference:
    """A fixed mix of BLAS, vector and interpreter work that touches nothing of
    the package. The shared machine's speed drifts by tens of percent over
    minutes, and all stages drift together. The kernel is sampled right
    before and after every timed part, and, in long training stages, after
    the first optimizer step that ends a second or more past the last sample.
    Each stretch between two samples is scaled by the mean of those two
    samples, which removes most of the drift. A sample is the median of three
    kernel runs, so one run slowed by a passing burst of load is ignored."""

    SECONDS = 0.025  # the kernel's time at the reference speed
    INTERVAL = 1.0   # longest stretch of a timed part between samples
    RUNS = 3         # kernel runs per sample

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(128, 128)).astype(np.float32)
        self.vector = rng.normal(size=200_000).astype(np.float32)
        self.samples: list[float] = []
        self._part = None  # [stretch start, sample before it, wall s, reference s]

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(120):
            self.matrix @ self.matrix
        for _ in range(30):
            np.tanh(self.vector)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0

    def _sample(self) -> float:
        self.samples.append(statistics.median(self._kernel() for _ in range(self.RUNS)))
        return self.samples[-1]

    def _close_stretch(self, collect: bool) -> None:
        end = time.perf_counter()
        start, before = self._part[0], self._part[1]
        if collect:
            gc.collect()
        after = self._sample()
        self._part[2] += end - start
        self._part[3] += (end - start) * 2 * self.SECONDS / (before + after)
        self._part[0], self._part[1] = time.perf_counter(), after

    def start(self) -> None:
        gc.collect()  # the same heap before every timed part
        before = self._sample()
        self._part = [time.perf_counter(), before, 0.0, 0.0]

    def checkpoint(self) -> None:
        """Called after each optimizer step; samples once the stretch is long."""
        if self._part is not None and time.perf_counter() - self._part[0] >= self.INTERVAL:
            self._close_stretch(collect=False)  # the program's own garbage stays its own

    def stop(self) -> tuple[float, float]:
        """End the timed part: (wall seconds, reference seconds), samples excluded."""
        self._close_stretch(collect=True)
        _, _, wall, scaled = self._part
        self._part = None
        return wall, scaled


def _round(workload, tally: Tally, stage_times: dict, ref: SpeedReference) -> tuple[dict, float]:
    """One round; ``stage_times[name]`` collects (samples, [(wall s, reference s)])."""
    outputs = {}
    total = 0.0
    for stage in workload.stages():
        ref.start()
        result, ok = tally.op(stage.name, lambda: stage.fn(outputs), is_check=False)
        wall, scaled = ref.stop()
        total += wall
        if ok:
            outputs[stage.name] = result
            stage_times.setdefault(stage.name, (stage.samples, []))[1].append((wall, scaled))
    return outputs, total


def _round_s(stage_times: dict, column: int = 1) -> float:
    """Each stage's median over the rounds, summed: one slow round moves neither."""
    return sum(statistics.median(t[column] for t in times) for _, times in stage_times.values())


def run(name: str, seed: int, seconds: float, traced: bool, work: Path, out_dir: Path) -> dict:
    tracer = Tracer(name).install() if traced else None
    workload = WORKLOADS[name](seed, tracer)
    ref = SpeedReference()
    step = training.AdamW.step
    if not tracer:  # in a traced run the samples would land inside the spans

        def step_and_checkpoint(optimizer):
            step(optimizer)
            ref.checkpoint()

        training.AdamW.step = step_and_checkpoint
    tally = Tally()
    try:
        setup_times = []  # (wall s, reference s)
        for i in range(SETUPS):
            ref.start()
            if tracer:
                tracer.active = True
            workload.setup(work / f"setup{i}")
            if tracer:
                tracer.active = False
            setup_times.append(ref.stop())

        stage_times: dict[str, tuple[int, list]] = {}
        untraced_times: dict[str, tuple[int, list]] = {}
        round_times, first = [], None
        while sum(round_times) < seconds or not round_times:
            if tracer:  # untraced rounds, wrappers removed, alternate with traced ones:
                tracer.uninstall()  # the base of the tracing overhead
                _round(workload, Tally(), untraced_times, ref)
                tracer.install()
                tracer.phase, tracer.active = "round", True
            outputs, wall = _round(workload, tally, stage_times, ref)
            if tracer:
                tracer.active = False
                tracer.rounds += 1
            round_times.append(wall)
            first = first if first is not None else outputs
            for check_name, fn in workload.checks(outputs, first, len(round_times)):
                tally.op(check_name, fn, is_check=True)

        if tracer:
            metrics = tracer.report(layer_metrics())
            overhead = 100.0 * (_round_s(stage_times) / _round_s(untraced_times) - 1.0)
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            tracer.write(out_dir / f"{name}-seed{seed}-spans.csv")
        else:
            throughputs = {s: statistics.median(n / t for _, t in times)
                           for s, (n, times) in stage_times.items() if n}
            test_miou, ghos_miou = workload.quality(first)
            values = {
                "setup_s": statistics.median(t for _, t in setup_times),
                "round_s": _round_s(stage_times),
                "sps_geomean": statistics.geometric_mean(throughputs.values()),
                "peak_mb": workload.peak_mb(first),
                "test_miou": test_miou,
                "ghos_miou": ghos_miou,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            detail = {"wall_setup_s": [w for w, _ in setup_times],
                      "wall_round_s": _round_s(stage_times, column=0),
                      "reference_samples_s": ref.samples, "stage_sps": throughputs,
                      "checks": tally.log}
            (out_dir / f"{name}-seed{seed}.json").write_text(
                json.dumps({"metrics": metrics, **detail}, indent=1), encoding="utf-8")
            print(f"{name}: wall round {detail['wall_round_s']:.3f} s, reference kernel "
                  f"{statistics.median(ref.samples) * 1e3:.1f} ms", file=sys.stderr)
            for stage, sps in throughputs.items():
                print(f"{name}: {stage:16s} {sps:9.2f} samples/reference s", file=sys.stderr)
    finally:
        training.AdamW.step = step
        if tracer:
            tracer.uninstall()
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}
