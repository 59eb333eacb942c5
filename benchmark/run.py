"""Fine-tuning benchmark: one workload, one seed, one run length.

    python3 benchmark/run.py --workload peft-methods --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Progress goes to stderr. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Result
details and trace spans are written under ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("peft-methods", "dense-heads", "geo-eval")
# One BLAS thread: results then repeat bit-for-bit whatever the core count
# (LoRA + UNet test mIoU moves in the second decimal between one and two
# threads), and a run leans less on its neighbours' cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed stage time to measure; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "peftseg" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'peftseg'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # noqa: E402 (needs the thread settings and the path above)

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             work, OUT_DIR)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
