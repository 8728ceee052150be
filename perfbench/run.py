"""Wall-clock benchmark of the transient stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload seq-nonlinear --seed 0 --seconds 24 --trace 0

``--trace 0`` times untraced passes over the workload's analyses until
``--seconds`` have been measured and reports the end-to-end metrics,
each time calibrated against a fixed kernel (see ``bench.py``).
``--trace 1`` runs one untraced pass, then set-up and one pass again with
every layer wrapped (see ``layers.py``), and reports the per-layer
metrics. Either way every output is checked, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cap_blas_threads() -> None:
    """At most one BLAS/OpenMP thread per CPU (set before numpy loads)."""
    cpus = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cpus:
            os.environ[var] = str(cpus)


def use_checkout() -> None:
    """Put this checkout's ``src`` and root first on the import path.

    Exits with code 2 when the simulator source is missing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    use_checkout()
    from perfbench import bench, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    if args.trace:
        result = bench.run_traced(args.workload, args.seed, out_dir=Path.cwd() / ".perfbench_out")
    else:
        result = bench.run_timed(args.workload, args.seed, args.seconds)
    bench.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
