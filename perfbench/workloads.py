"""The four workloads: seeded inputs, set-up, timed execution, references.

Inputs come from the seed alone. Every value that
:func:`repro.jobs.spec.jitterable_params` lists is multiplied by a 2%
lognormal factor drawn in sorted component-name order, and the program
receives only the jittered circuits (through
:func:`repro.jobs.spec.apply_params`) or the ``variants=[...]`` dicts.
Every call goes through the package's public entry points, looked up on
their modules at call time so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

import repro
import repro.core.wavepipe as wavepipe
import repro.engine.transient as transient
import repro.partition as partition
from repro.circuit.circuit import Circuit
from repro.circuits.interconnect import rc_grid
from repro.circuits.registry import get_benchmark
from repro.jobs.spec import apply_params, jitterable_params
from repro.mna.compiler import compile_circuit
from repro.netlist.writer import write_netlist
from repro.utils.options import SimOptions
from repro.waveform.waveform import WaveformSet

DEFAULT_SEED = 0
JITTER_SIGMA = 0.02
ENSEMBLE_SIZE = 8
PIPELINE_THREADS = 4
WTM_PARTITIONS = 6
#: Per-partition WavePipe threads of the WTM run (Table R13's setting).
WTM_THREADS = 2
#: Step cap of the ensemble run: half of invchain8's 100 ps input edge.
#: Without it the first step after a source breakpoint, which is accepted
#: without an LTE estimate, may span a whole edge, and the shared grid and
#: a variant's own grid then put that edge up to 50 ps apart, so the
#: pointwise check measures edge-timing jitter instead of agreement (the
#: same reason the verification oracle caps the step of compared runs).
ENSEMBLE_MAX_STEP = 50e-12
#: Simulated window of each analysis. They are shorter than the registry
#: windows so that one analysis takes well under a second of host time:
#: the timed run scales each analysis by a calibration kernel timed around
#: it (see ``bench.py``), which only tracks the host's speed over short
#: spans. Each window still covers the circuit's activity.
WINDOWS = {
    "ring9": 6e-9,  # the kick and one 3.1 ns oscillation period
    "mixer": 30e-9,  # three 100 MHz LO periods
    "rcgrid20x20": 40e-9,  # five 8 ns load periods
    "invchain8": 11e-9,  # the 1 ns delay and one 10 ns input period
    "nandchain6": 9e-9,  # the input edges at 1 ns and 7.1 ns through the chain
    "mixedrate6": 12e-9,  # six 2 ns fast-block input periods
}

WORKLOADS = ("seq-nonlinear", "seq-interconnect", "ensemble-mc", "pipelined-traced")


@dataclass
class Analysis:
    """One prepared analysis of a workload.

    ``kind`` is ``transient``, ``wavepipe``, ``wtm`` or ``ensemble``.
    Set-up fills ``compiled`` (transient, wavepipe) or ``manifest`` (wtm).
    """

    label: str
    kind: str
    circuit: Circuit
    tstop: float
    signals: tuple[str, ...]
    options: SimOptions
    tstep: float | None = None
    variants: list[dict] | None = None
    compiled: object | None = None
    manifest: object | None = None

    @property
    def output_labels(self) -> list[str]:
        if self.kind == "ensemble":
            return [f"{self.label}[{k}]" for k in range(len(self.variants))]
        return [self.label]


@dataclass
class Outcome:
    """What one execution of an analysis produced."""

    outputs: dict[str, WaveformSet]
    #: Deterministic counters; identical across repeats and tracing.
    signature: dict
    #: Work the configuration is charged on the virtual clock.
    virtual_total: float
    #: Trace records retained by the live recorder, if one was attached.
    events: int = 0


def _rng(seed: int, key: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(key.encode("utf-8"))])


def jitter(circuit: Circuit, rng: np.random.Generator) -> dict[str, float]:
    """Lognormal (sigma 2%) draws over the sorted perturbable components."""
    nominal = jitterable_params(circuit)
    names = sorted(nominal)
    factors = rng.lognormal(mean=0.0, sigma=JITTER_SIGMA, size=len(names))
    return {name: float(nominal[name] * f) for name, f in zip(names, factors)}


def _jittered(circuit: Circuit, seed: int, key: str) -> Circuit:
    return apply_params(circuit, jitter(circuit, _rng(seed, key)))


def _registry(workload: str, name: str, seed: int, kind: str) -> Analysis:
    bench = get_benchmark(name)
    return Analysis(
        label=name,
        kind=kind,
        circuit=_jittered(bench.build(), seed, f"{workload}/{name}"),
        tstop=WINDOWS[name],
        tstep=bench.tstep,
        signals=tuple(bench.signals),
        options=bench.options,
    )


def generate(workload: str, seed: int) -> list[Analysis]:
    """The workload's analyses with seeded inputs (nothing compiled yet)."""
    if workload == "seq-nonlinear":
        return [
            _registry(workload, "ring9", seed, "transient"),
            _registry(workload, "mixer", seed, "transient"),
        ]
    if workload == "seq-interconnect":
        grid = rc_grid(nx=20, ny=20)
        return [
            Analysis(
                label="rcgrid20x20",
                kind="transient",
                circuit=_jittered(grid, seed, f"{workload}/rcgrid20x20"),
                tstop=WINDOWS["rcgrid20x20"],
                signals=("v(p_19_19)", "v(p_10_19)", "v(p_10_10)"),
                options=SimOptions(),
            )
        ]
    if workload == "ensemble-mc":
        bench = get_benchmark("invchain8")
        circuit = bench.build()
        rng = _rng(seed, f"{workload}/invchain8")
        return [
            Analysis(
                label="invchain8",
                kind="ensemble",
                circuit=circuit,
                tstop=WINDOWS["invchain8"],
                tstep=bench.tstep,
                signals=tuple(bench.signals),
                options=bench.options.replace(max_step=ENSEMBLE_MAX_STEP),
                variants=[jitter(circuit, rng) for _ in range(ENSEMBLE_SIZE)],
            )
        ]
    if workload == "pipelined-traced":
        return [
            _registry(workload, "nandchain6", seed, "wavepipe"),
            _registry(workload, "mixedrate6", seed, "wtm"),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def describe_inputs(analyses: list[Analysis]) -> bytes:
    """Canonical bytes of the generated inputs (same seed, same bytes)."""
    doc = [
        {
            "label": a.label,
            "kind": a.kind,
            "tstop": a.tstop,
            "netlist": write_netlist(a.circuit),
            "variants": a.variants,
        }
        for a in analyses
    ]
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def setup(workload: str, seed: int) -> list[Analysis]:
    """Generate, jitter, compile and partition: everything before a solve.

    The ensemble's variants are compiled inside ``simulate``, because
    the program receives them as override dicts.
    """
    analyses = generate(workload, seed)
    for a in analyses:
        if a.kind in ("transient", "wavepipe"):
            a.compiled = compile_circuit(a.circuit, a.options)
        elif a.kind == "wtm":
            a.manifest = partition.partition_circuit(a.circuit, WTM_PARTITIONS)
    return analyses


def execute(a: Analysis) -> Outcome:
    """Run one analysis through the public API."""
    if a.kind == "transient":
        res = transient.run_transient(a.compiled, a.tstop, tstep=a.tstep, options=a.options)
        return Outcome(
            outputs={a.label: res.waveforms},
            signature=_stats_signature(res.stats, res.stats.total_work),
            virtual_total=res.stats.total_work,
        )
    if a.kind == "wavepipe":
        rec = repro.Recorder()
        res = wavepipe.run_wavepipe(
            a.compiled,
            a.tstop,
            scheme="combined",
            threads=PIPELINE_THREADS,
            tstep=a.tstep,
            options=a.options,
            executor="serial",
            instrument=rec,
        )
        return Outcome(
            outputs={a.label: res.waveforms},
            signature=_stats_signature(res.stats, res.stats.virtual_total),
            virtual_total=res.stats.virtual_total,
            events=len(rec.events) + rec.dropped_events,
        )
    if a.kind == "wtm":
        rec = repro.Recorder()
        res = partition.run_wtm(
            a.circuit,
            a.tstop,
            manifest=a.manifest,
            mode="jacobi",
            scheme="combined",
            threads=WTM_THREADS,
            tstep=a.tstep,
            options=a.options,
            executor="serial",
            multirate=True,
            instrument=rec,
        )
        return Outcome(
            outputs={a.label: res.waveforms},
            signature={
                "newton_iterations": rec.counter("newton.iterations"),
                "outer_iterations": res.stats.outer_iterations,
                "partition_solves": res.stats.partition_solves,
                "virtual_total": res.stats.virtual_total,
            },
            virtual_total=res.stats.virtual_total,
            events=len(rec.events) + rec.dropped_events,
        )
    if a.kind == "ensemble":
        res = repro.simulate(
            a.circuit, tstop=a.tstop, tstep=a.tstep, options=a.options, variants=a.variants
        )
        return Outcome(
            outputs={label: res[k].waveforms for k, label in enumerate(a.output_labels)},
            signature=_stats_signature(res.stats, res.stats.total_work),
            virtual_total=res.stats.total_work,
        )
    raise ValueError(f"unknown analysis kind {a.kind!r}")


def _stats_signature(stats, virtual_total: float) -> dict:
    return {
        "newton_iterations": stats.newton_iterations,
        "accepted_points": stats.accepted_points,
        "virtual_total": virtual_total,
        "speculative_hits": getattr(stats, "speculative_hits", 0),
    }


@dataclass
class Reference:
    """Expected signals per output label, plus scalar sequential work."""

    outputs: dict[str, WaveformSet]
    #: Analysis label -> the scalar sequential engine's total work on
    #: the same inputs (for ``virtual_speedup``).
    sequential_work: dict[str, float]
    source: str


def sequential_reference(analyses: list[Analysis]) -> Reference:
    """Scalar sequential runs of the same inputs, for seeds without a file.

    A sequential analysis is checked against the sequential engine with
    factorisation reuse switched, a different linear-solve path.
    """
    outputs: dict[str, WaveformSet] = {}
    work: dict[str, float] = {}
    for a in analyses:
        if a.kind == "transient":
            options = a.options.replace(jacobian_reuse=not a.options.jacobian_reuse)
            res = transient.run_transient(a.circuit, a.tstop, tstep=a.tstep, options=options)
            outputs[a.label] = res.waveforms
        elif a.kind == "ensemble":
            work[a.label] = 0.0
            for label, overrides in zip(a.output_labels, a.variants):
                res = transient.run_transient(
                    apply_params(a.circuit, overrides), a.tstop, tstep=a.tstep, options=a.options
                )
                outputs[label] = res.waveforms
                work[a.label] += res.stats.total_work
        else:
            res = transient.run_transient(a.circuit, a.tstop, tstep=a.tstep, options=a.options)
            outputs[a.label] = res.waveforms
            work[a.label] = res.stats.total_work
    return Reference(outputs, work, source="sequential run")


def save_reference(path, analyses: list[Analysis], outcomes: list[Outcome], work) -> None:
    """Write the default seed's outputs (signals of interest only)."""
    arrays = {}
    for a, outcome in zip(analyses, outcomes):
        for label, waves in outcome.outputs.items():
            arrays[f"{label}|t"] = waves.times
            for signal in a.signals:
                arrays[f"{label}|{signal}"] = waves[signal].values
    for label, value in work.items():
        arrays[f"{label}|sequential_work"] = np.array([value])
    np.savez_compressed(path, **arrays)


def load_reference(path) -> Reference:
    with np.load(path) as data:
        columns: dict[str, dict[str, np.ndarray]] = {}
        for key in data.files:
            label, _, name = key.partition("|")
            columns.setdefault(label, {})[name] = data[key]
    outputs = {}
    work = {}
    for label, cols in columns.items():
        if "sequential_work" in cols:
            work[label] = float(cols.pop("sequential_work")[0])
        if cols:
            times = cols.pop("t")
            outputs[label] = WaveformSet(times, cols)
    return Reference(outputs, work, source=f"committed samples ({path.name})")
