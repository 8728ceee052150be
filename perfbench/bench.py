"""Timed and traced runs of one workload, with the output checks.

An *output* is one checked waveform set: one per analysis, or one per
variant of an ensemble. An output fails when its analysis raised, when
any of its samples is not finite, when it deviates from the reference by
more than the ``lte`` rung of the verification ladder, or when its
analysis' deterministic counters differ from the first execution.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.verify.oracle import DEFAULT_TOLERANCE, TOLERANCE_LADDER, classify_tier
from repro.waveform.waveform import WaveformSet, compare, worst_deviation

from perfbench import layers, workloads
from perfbench.tracing import Patcher, SpanLog

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Set-up is timed in batches of this many seconds, SETUP_BATCHES before
#: the timed passes and one after each pass; each batch's mean repeat is
#: calibrated like an analysis and the median batch is reported.
SETUP_BATCH_SECONDS = 0.05
SETUP_BATCHES = 3

#: Seconds the calibration kernel takes on the reference host, a shared
#: 2-vCPU Xeon VM in a fast spell. Timed analyses are scaled by this over
#: the kernel's time around them.
KERNEL_REFERENCE_S = 3.5e-3


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a + 1


_KERNEL_CELLS = [_Cell(i) for i in range(16000)]
_KERNEL_TABLE = {i: i for i in range(100000)}
# A 5-point Laplacian on a 20x20 grid, like the power-grid workload.
_KERNEL_GRID = (
    sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-20, -1, 0, 1, 20], shape=(400, 400))
    .tocsc()
)
_KERNEL_RHS = np.ones(400)

RUNGS = [name for name, _ in TOLERANCE_LADDER] + ["beyond"]


@dataclass
class Checks:
    """Running tally of output checks."""

    attempted: int = 0
    failed: int = 0
    #: Loosest ladder rung seen per output label.
    rungs: dict = field(default_factory=dict)
    #: First execution's signature per analysis label.
    signatures: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.messages.append(f"{label}: {reason}")

    def note_rung(self, label: str, rung: str) -> None:
        old = self.rungs.get(label, "exact")
        self.rungs[label] = max(old, rung, key=RUNGS.index)

    @property
    def loosest(self) -> str:
        return max(self.rungs.values(), key=RUNGS.index) if self.rungs else "exact"


def reference_for(workload: str, seed: int, analyses) -> workloads.Reference:
    """Committed samples for the default seed, sequential runs otherwise."""
    path = REFERENCE_DIR / f"{workload}.npz"
    if seed == workloads.DEFAULT_SEED:
        return workloads.load_reference(path)
    return workloads.sequential_reference(analyses)


def execute_pass(analyses):
    """One pass: outcome, wall and CPU seconds per analysis.

    An analysis that raises yields None; the failure is counted by
    :func:`check_pass` and the run goes on.
    """
    outcomes, walls, cpus = [], [], []
    for a in analyses:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = workloads.execute(a)
        except Exception:  # noqa: BLE001  (each failure is counted, the run goes on)
            traceback.print_exc(file=sys.stderr)
            outcome = None
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        outcomes.append(outcome)
    return outcomes, walls, cpus


def check_pass(analyses, outcomes, reference: workloads.Reference, checks: Checks) -> None:
    for a, outcome in zip(analyses, outcomes):
        labels = a.output_labels
        checks.attempted += len(labels)
        if outcome is None:
            for label in labels:
                checks.fail(label, "analysis raised")
            continue
        first = checks.signatures.setdefault(a.label, outcome.signature)
        same = first == outcome.signature
        for label in labels:
            waves = outcome.outputs[label]
            # Partitioned runs report on their exchange grid: compare there.
            on_grid = a.kind == "wtm"
            reason = _output_problem(label, waves, a.signals, reference, on_grid, checks)
            if reason is None and not same:
                reason = f"counters {outcome.signature} differ from first run {first}"
            if reason is not None:
                checks.fail(label, reason)


def _output_problem(label, waves, signals, reference, on_grid, checks) -> str | None:
    for name in waves.names:
        if not np.all(np.isfinite(waves[name].values)):
            return f"non-finite sample in {name}"
    expected = reference.outputs.get(label)
    if expected is None:
        return f"no reference for {label}"
    if on_grid:
        expected = WaveformSet(waves.times, {s: expected[s].at(waves.times) for s in signals})
    worst = worst_deviation(compare(expected, waves, names=list(signals)))
    if worst is None:
        return "no signal in common with the reference"
    rung = classify_tier(worst.max_relative)
    checks.note_rung(label, rung)
    if not worst.max_relative <= DEFAULT_TOLERANCE:
        return (
            f"{worst.name} deviates {worst.max_relative:.3e} ({rung}) "
            f"from the {reference.source}"
        )
    return None


def timed_setup(workload: str, seed: int, batches: int = SETUP_BATCHES):
    """Set-up repeated in *batches*; return the last result and each batch's
    calibrated mean repeat."""
    means = []
    before = time_kernel()[0]
    for _ in range(batches):
        times = []
        while not times or sum(times) < SETUP_BATCH_SECONDS:
            start = time.perf_counter()
            analyses = workloads.setup(workload, seed)
            times.append(time.perf_counter() - start)
        after = time_kernel()[0]
        means.append(calibrated(statistics.mean(times), before, after))
        before = after
    return analyses, means


def calibration_kernel() -> float:
    """Fixed interpreter, object and sparse-LU work that calls no simulator code.

    Its parts take about 1:2:1 of its time: those proportions tracked the
    workloads' own slow-downs best on the reference host (``README.md``).
    """
    total = 0
    for i in range(13000):
        total += i * i
    for cell in _KERNEL_CELLS:
        total += cell.a * cell.b
    for i in range(0, 100000, 9):
        total += _KERNEL_TABLE[i]
    x = spla.splu(_KERNEL_GRID).solve(_KERNEL_RHS)
    return float(total) + float(x[0])


def time_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of one calibration kernel."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    calibration_kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def calibrated(seconds: float, before: float, after: float) -> float:
    """*seconds* at reference host speed: scaled by the kernel times around it."""
    return seconds * KERNEL_REFERENCE_S / ((before + after) / 2.0)


def calibrated_pass(analyses):
    """One pass with the calibration kernel timed before and after each analysis.

    Returns the outcomes and, per analysis, ``(wall, cpu, calibrated
    wall, calibrated cpu, kernel wall)``.
    """
    outcomes, samples = [], []
    before = time_kernel()
    for a in analyses:
        (outcome,), (wall,), (cpu,) = execute_pass([a])
        after = time_kernel()
        outcomes.append(outcome)
        samples.append(
            (
                wall,
                cpu,
                calibrated(wall, before[0], after[0]),
                calibrated(cpu, before[1], after[1]),
                (before[0] + after[0]) / 2.0,
            )
        )
        before = after
    return outcomes, samples


def virtual_speedup(analyses, outcomes, reference: workloads.Reference) -> float:
    """Scalar sequential work / the configuration's virtual work.

    Sequential analyses *are* the scalar engine, so they count 1:1.
    """
    seq = virtual = 0.0
    for a, outcome in zip(analyses, outcomes):
        if outcome is None:
            continue
        seq += reference.sequential_work.get(a.label, outcome.virtual_total)
        virtual += outcome.virtual_total
    return seq / virtual if virtual > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes until *seconds* of them are measured.

    ``wall_s`` and ``cpu_s`` sum, over the workload's analyses, the median
    calibrated time of each analysis over the passes. The raw medians and
    every calibrated time are printed with the counts.
    """
    analyses, setup_times = timed_setup(workload, seed)
    reference = reference_for(workload, seed, analyses)
    checks = Checks()
    samples = []  # [pass][analysis] -> calibrated_pass sample
    speedup = None
    while not samples or sum(s[0] for p in samples for s in p) < seconds:
        outcomes, pass_samples = calibrated_pass(analyses)
        samples.append(pass_samples)
        check_pass(analyses, outcomes, reference, checks)
        if speedup is None:
            speedup = virtual_speedup(analyses, outcomes, reference)
        setup_times += timed_setup(workload, seed, batches=1)[1]
    setup_s = statistics.median(setup_times)
    report(workload, seed, checks, reference)
    medians = [
        [statistics.median(p[i][k] for p in samples) for k in range(4)]
        for i in range(len(analyses))
    ]
    for i, (a, (wall, cpu, cal_wall, cal_cpu)) in enumerate(zip(analyses, medians)):
        cal = [p[i][2] for p in samples]
        print(
            f"  {a.label}: {len(samples)} passes, median wall {wall:.4f} s, cpu {cpu:.4f} s; "
            f"calibrated wall {cal_wall:.4f} s, cpu {cal_cpu:.4f} s; each calibrated: "
            + " ".join(f"{w:.4f}" for w in cal)
        )
    kernel = statistics.median(s[4] for p in samples for s in p)
    print(
        f"  calibration kernel: median {kernel * 1e3:.3f} ms "
        f"(host {kernel / KERNEL_REFERENCE_S:.2f}x slower than the reference)"
    )
    print(
        f"  setup: {len(setup_times)} batches, median calibrated repeat {setup_s * 1e3:.3f} ms, "
        f"fastest batch {min(setup_times) * 1e3:.3f} ms"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(m[2] for m in medians), "s"),
        "cpu_s": (sum(m[3] for m in medians), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "virtual_speedup": (speedup, "x"),
        "passed_frac": (1.0 - checks.failed / checks.attempted, "ratio"),
    }
    return _result(checks, metrics)


def _untraced_pass(analyses, reference, checks: Checks) -> float:
    outcomes, walls, _ = execute_pass(analyses)
    check_pass(analyses, outcomes, reference, checks)
    return sum(walls)


def run_traced(workload: str, seed: int, out_dir: Path) -> dict:
    """Untraced, traced (set-up included), untraced: one pass each.

    The traced pass is compared with the mean of the untraced passes on
    either side of it, so a cold first pass or a slow spell of the host
    does not fall on one side only.
    """
    analyses = workloads.setup(workload, seed)
    reference = reference_for(workload, seed, analyses)
    checks = Checks()
    untraced_walls = [_untraced_pass(analyses, reference, checks)]

    log = SpanLog()
    patcher = Patcher(packages=("repro", "perfbench"))
    try:
        patcher.install(layers.targets(), log)
        log.run = "setup"
        traced = workloads.setup(workload, seed)
        traced_outcomes, traced_wall = [], 0.0
        for a in traced:
            log.run = a.label
            (outcome,), (wall,), _ = execute_pass([a])
            traced_outcomes.append(outcome)
            traced_wall += wall
    finally:
        restored = patcher.restore()
    check_pass(traced, traced_outcomes, reference, checks)
    untraced_walls.append(_untraced_pass(analyses, reference, checks))

    gaps = layers.coverage_gaps(workload, log.spans)
    if gaps:
        raise RuntimeError(f"traced run recorded no calls into {gaps} on {workload}")
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.json"
    log.write(span_file)
    events = sum(o.events for o in traced_outcomes if o is not None)
    overhead = traced_wall / statistics.mean(untraced_walls)
    metrics = layers.layer_metrics(log.spans, log.counts, events, overhead)
    report(workload, seed, checks, reference)
    top = sorted(
        ((v, k) for k, (v, unit) in metrics.items() if unit == "s"), reverse=True
    )[:3]
    print(
        f"traced {len(log.spans)} spans ({restored} attributes patched and restored) "
        f"-> {span_file.name}; largest self times: "
        + ", ".join(f"{k} {v:.3f} s" for v, k in top)
    )
    return _result(checks, metrics)


def report(workload, seed, checks: Checks, reference) -> None:
    print(f"{workload} seed {seed}: reference = {reference.source}")
    for label, rung in sorted(checks.rungs.items()):
        print(f"  {label}: tightest rung reached {rung}")
    print(f"  loosest of all outputs: {checks.loosest}; failed {checks.failed}/{checks.attempted}")
    for message in checks.messages:
        print(f"  FAIL {message}")


def _result(checks: Checks, metrics: dict) -> dict:
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def print_result(result: dict) -> None:
    print(json.dumps(result), flush=True)
