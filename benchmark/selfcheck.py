"""Self-check of the benchmark at a tiny run length.

    python3 benchmark/selfcheck.py                 # all three workloads
    python3 benchmark/selfcheck.py geo-eval        # some of them

1. Each output check rejects a wrong answer: a perturbed confusion matrix, a
   changed frozen tensor, and a split pair closer than the buffer.
2. The primitive list the benchmark traces is the package's registry, and a
   stage or check that raises makes the run incorrect.
3. Each named workload, run untraced and traced for one round, prints exactly
   the metric names and units of ``BENCHMARK.json``, is correct, and fails
   only the known-fault checks.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's files,
   the benchmark exits non-zero without printing a result.
Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def wrong_answers(failures: list) -> None:
    rng = np.random.default_rng(0)
    masks = rng.integers(0, 2, size=(3, 8, 8)).astype(np.uint8)
    masks[0, 0, :] = checks.IGNORE
    pred = rng.integers(0, 2, size=(3, 8, 8))
    cm = checks.confusion(masks, pred, 2)
    miou = checks.miou_percent(cm)
    expect(checks.check_confusion(masks, pred, cm, miou, 2), "confusion: right answer passes",
           failures)
    bad = cm.copy()
    bad[0, 0] -= 1
    bad[0, 1] += 1
    expect(not checks.check_confusion(masks, pred, bad, miou, 2),
           "confusion: perturbed matrix fails", failures)
    expect(not checks.check_confusion(masks, pred, cm, miou + 0.5, 2),
           "confusion: wrong mIoU fails", failures)

    fresh = {"encoder.w": np.ones((2, 2), np.float32), "decoder.w": np.zeros(2, np.float32)}
    trained = {"encoder.w": fresh["encoder.w"].copy(), "decoder.w": np.full(2, 0.5, np.float32)}
    expect(checks.check_frozen_unchanged(fresh, trained)
           and checks.check_trained_moved(fresh, trained), "freeze: right answer passes", failures)
    trained["encoder.w"][1, 1] = np.nextafter(np.float32(1), np.float32(2))
    expect(not checks.check_frozen_unchanged(fresh, trained),
           "freeze: changed frozen tensor fails", failures)
    expect(not checks.check_trained_moved(fresh, {**trained, "decoder.w": fresh["decoder.w"]}),
           "freeze: unmoved trained tensor fails", failures)
    unused = {"decoder.unused": np.zeros(2, np.float32)}
    expect(checks.check_trained_moved({**fresh, **unused}, {**trained, **unused},
                                      skip=("decoder.unused",))
           and not checks.check_trained_moved({**fresh, **unused}, {**trained, **unused},
                                              only="decoder.unused"),
           "freeze: an unmoved tensor fails only the check that names it", failures)

    ids = ["a", "b", "c", "d"]
    lat = np.array([45.0, 45.01, 46.0, 46.01])  # a-b and c-d about 1.1 km apart
    lon = np.array([7.0, 7.0, 7.0, 7.0])
    good = {"a": "train", "b": "train", "c": "val", "d": "val"}
    true_min = checks.cross_split_min_km(lat, lon, np.array([0, 0, 1, 1]))
    expect(checks.check_buffered_split(ids, lat, lon, good, 5.0, true_min),
           "splits: right answer passes", failures)
    close = {**good, "b": "val"}
    close_min = checks.cross_split_min_km(lat, lon, np.array([0, 1, 1, 1]))
    expect(not checks.check_buffered_split(ids, lat, lon, close, 5.0, close_min),
           "splits: pair closer than the buffer fails", failures)
    expect(not checks.check_buffered_split(ids, lat, lon, {**good, "e": "test"}, 5.0, true_min),
           "splits: site assigned twice or unknown fails", failures)


def registry(failures: list) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from harness import PRIMITIVES
    from peftseg.autodiff.primitives import registered_primitives
    expect(tuple(PRIMITIVES) == registered_primitives(), "traced primitives = registry", failures)


def crashes(failures: list) -> None:
    from harness import Tally

    def crash():
        raise RuntimeError("program fault")

    for name, is_check in (("a stage", False), ("a check", True)):
        tally = Tally()
        with contextlib.redirect_stderr(io.StringIO()):  # the expected traceback
            tally.op(name, crash, is_check)
        expect(not tally.correct and tally.failed == 1, f"{name} that raises: run incorrect",
               failures)


def run(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def workload_runs(names: list, failures: list) -> None:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import KNOWN_FAULTS
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--seed", "0", "--seconds", "0.1",
                        "--trace", str(trace)], ROOT)
            if proc.returncode != 0:
                expect(False, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}",
                       failures)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: metric names and units", failures)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["attempted"] >= 1,
                   f"{name} trace {trace}: correct, {result['failed']} of "
                   f"{result['attempted']} failed", failures)
            known = sum(proc.stderr.count(f"check failed: {k}\n") for k in KNOWN_FAULTS)
            expect(result["failed"] == known, f"{name} trace {trace}: only known faults fail",
                   failures)


def bare_directory(failures: list) -> None:
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "benchmark", ignore=shutil.ignore_patterns("out"))
        proc = run(["--workload", "geo-eval", "--seed", "0", "--seconds", "1", "--trace", "0"],
                   bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, no result", failures)
    finally:
        shutil.rmtree(bare)


def main() -> int:
    names = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    failures: list = []
    wrong_answers(failures)
    registry(failures)
    crashes(failures)
    bare_directory(failures)
    workload_runs(names, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
