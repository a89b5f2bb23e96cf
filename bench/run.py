"""Benchmark of the covertuav planner and its audit.

Usage (from the repository root):

    python3 bench/run.py --workload study_sweep --seed 1 --seconds 25 --trace 0

Workloads: study_sweep, fine_grid, audit (see README.md). With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of one traced pass and the
tracing overhead. The package is imported from ``src/`` next to this
directory; the run stops with exit code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

WORKLOADS = ("study_sweep", "fine_grid", "audit")
BLAS_THREADS = "1"  # fixed, so that factorizations round the same way every run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "covertuav" / "__init__.py").is_file():
        print(f"covertuav sources not found under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(here)]

    # the program's own import is part of set-up; the benchmark's is not
    t0 = time.perf_counter()
    import covertuav  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s, here / "out")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
