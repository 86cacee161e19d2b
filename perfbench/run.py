"""tscodec benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is the measured time of the whole run and defaults to
``run_seconds`` of BENCHMARK.json. ``--workload all`` (the default) runs
each workload in a child process of its own, with an equal share of it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Failures are
logged to standard error and counted; the run goes on.
"""

import os
import sys
from pathlib import Path

# Pinned before numpy is imported, so no library starts a thread pool.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "tscodec" / "__init__.py").is_file():
        print(f"perfbench: no tscodec sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import bench

    return bench.main(sys.argv[1:], root, {var: os.environ[var] for var in THREAD_VARS})


if __name__ == "__main__":
    sys.exit(main())
