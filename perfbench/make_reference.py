"""Regenerate the committed reference samples for the default seed.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py [workload ...]

For each workload it runs the analyses once at the default seed, checks
them against scalar sequential runs at the ``lte`` rung, and writes their
signals of interest plus the sequential work to
``perfbench/reference/<workload>.npz``. State every regeneration in
CHANGES.md: a new file redefines what the benchmark calls correct.
"""

from __future__ import annotations

import sys

from run import cap_blas_threads, use_checkout


def main(argv: list[str]) -> int:
    cap_blas_threads()
    use_checkout()
    from perfbench import bench, workloads

    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        analyses = workloads.setup(workload, workloads.DEFAULT_SEED)
        outcomes, _, _ = bench.execute_pass(analyses)
        sequential = workloads.sequential_reference(analyses)
        checks = bench.Checks()
        bench.check_pass(analyses, outcomes, sequential, checks)
        bench.report(workload, workloads.DEFAULT_SEED, checks, sequential)
        if checks.failed:
            print(f"{workload}: not written, outputs disagree with the sequential runs")
            return 1
        path = bench.REFERENCE_DIR / f"{workload}.npz"
        workloads.save_reference(path, analyses, outcomes, sequential.sequential_work)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
