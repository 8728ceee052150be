"""Sequential LTE-controlled transient analysis (the WavePipe baseline).

This is the reference SPICE loop the paper parallelises: DC operating
point, then one Newton solve per time point with predictor initial
guesses, truncation-error acceptance, shrink-and-retry, and breakpoint
restarts. WavePipe reuses the same building blocks
(:func:`solve_timepoint`, :func:`accept_point`) so sequential and
pipelined runs are numerically comparable point for point.

The same loop also runs K-variant ensembles in lockstep
(:mod:`repro.engine.ensemble`): handed an
:class:`~repro.mna.ensemble.EnsembleSystem`, :func:`solve_timepoint`
picks the lockstep Newton kernel and :func:`accept_point` the
max-reduction LTE test, and everything else is shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.circuit import Circuit
from repro.errors import TimestepError
from repro.instrument.events import (
    DCOP,
    LTE_REJECT,
    OUTCOME_ACCEPTED,
    OUTCOME_LTE_REJECT,
    OUTCOME_NEWTON_FAIL,
    RUN,
    STEP_ACCEPT,
    TIMESTEP,
)
from repro.instrument.metrics import RunMetrics
from repro.instrument.recorder import resolve_recorder
from repro.integration.controller import StepController
from repro.integration.history import Timepoint, TimepointHistory
from repro.integration.lte import LteVerdict, ensemble_lte_verdict, lte_verdict
from repro.integration.methods import SchemeCoefficients, scheme_coefficients
from repro.linalg.solve import BlockSolver, LinearSolver
from repro.mna.compiler import CompiledCircuit, compile_circuit
from repro.mna.ensemble import EnsembleSystem
from repro.mna.system import MnaSystem
from repro.solver.dcop import solve_operating_point
from repro.solver.ensemble import ensemble_newton_solve
from repro.solver.newton import NewtonResult, newton_solve
from repro.utils.options import SimOptions

#: Fraction of tstop considered "reached the end".
END_SLACK = 1e-12

#: Hard cap on attempts (reject/retry cycles) per simulation, a runaway guard.
MAX_ATTEMPTS_FACTOR = 200


@dataclass
class PointSolution:
    """One attempted time point: Newton outcome plus its integration scheme."""

    t: float
    result: NewtonResult
    scheme: SchemeCoefficients

    @property
    def converged(self) -> bool:
        return self.result.converged

    def to_timepoint(self) -> Timepoint:
        """Package as an accepted history point (requires convergence)."""
        return Timepoint(
            t=self.t, x=self.result.x, q=self.result.q, qdot=self.result.qdot
        )


def solve_timepoint(
    system: MnaSystem,
    history: TimepointHistory,
    t_new: float,
    options: SimOptions,
    force_be: bool,
    buffers=None,
    solver: LinearSolver | BlockSolver | None = None,
    x_guess: np.ndarray | None = None,
    iter_cap: int | None = None,
) -> PointSolution:
    """Newton-solve the circuit at *t_new* against *history*.

    The initial guess defaults to the polynomial predictor. The returned
    solution carries q and qdot so it can be appended to a history
    directly. Stateless with respect to *system*: safe for concurrent
    WavePipe tasks, each with its own *buffers* and *solver*.

    An :class:`~repro.mna.ensemble.EnsembleSystem` is solved by the
    lockstep kernel (:func:`~repro.solver.ensemble.ensemble_newton_solve`,
    with a :class:`~repro.linalg.solve.BlockSolver`); its history carries
    ``(n, K)`` solutions and charges, so the predictor, the scheme's
    ``beta`` and the converged charge derivative inherit the variant axis
    elementwise.
    """
    buffers = (
        buffers
        if buffers is not None
        else system.make_buffers(fast_path=options.jacobian_reuse)
    )
    scheme = scheme_coefficients(options.method, history, t_new, force_be=force_be)
    if x_guess is None:
        if options.newton_guess == "predictor":
            x_guess = history.predict(t_new, options.predictor_order)
        else:
            x_guess = history.last.x
    newton = ensemble_newton_solve if isinstance(system, EnsembleSystem) else newton_solve
    result = newton(
        system,
        t_new,
        scheme.alpha0,
        scheme.beta,
        x_guess,
        options,
        out=buffers,
        solver=solver,
        iter_cap=iter_cap,
    )
    if result.converged:
        system.eval(result.x, t_new, buffers)
        result.q = system.charge(buffers)
        result.qdot = scheme.qdot(result.q)
    return PointSolution(t_new, result, scheme)


def accept_point(
    system: MnaSystem,
    history: TimepointHistory,
    solution: PointSolution,
    options: SimOptions,
) -> tuple[LteVerdict, np.ndarray | None]:
    """Run the truncation-error test for a converged point.

    Returns the verdict plus, on an ensemble system, the per-variant
    error ratios behind its max-reduction (None on a scalar system).
    """
    scheme = solution.scheme
    args = (
        scheme.method_used,
        scheme.order,
        history,
        solution.t,
        solution.result.x,
        system.voltage_mask,
        options,
    )
    if isinstance(system, EnsembleSystem):
        return ensemble_lte_verdict(*args, h_solve=scheme.h)
    return lte_verdict(*args, h_solve=scheme.h), None


@dataclass
class TransientStats:
    """Cost accounting for one transient run (sequential or pipelined).

    Wall time is split at the phase boundary the cost model also splits
    at: ``dcop_seconds`` covers the DC operating point (inherently
    serial), ``tran_seconds`` the time-stepping loop (what pipelining
    accelerates). The historical ``wall_seconds`` remains as the derived
    sum.
    """

    accepted_points: int = 0
    rejected_points: int = 0
    newton_failures: int = 0
    newton_iterations: int = 0
    work_units: float = 0.0
    dc_work_units: float = 0.0
    dcop_seconds: float = 0.0
    tran_seconds: float = 0.0
    lu_factors: int = 0
    lu_refactors: int = 0
    lu_solves: int = 0
    lu_reuse_hits: int = 0
    bypass_fallbacks: int = 0
    extra: dict = field(default_factory=dict)

    def charge_lu(self, result: NewtonResult) -> None:
        """Accumulate one Newton solve's linear-solver cost breakdown."""
        self.lu_factors += result.lu_factors
        self.lu_refactors += result.lu_refactors
        self.lu_solves += result.lu_solves
        self.lu_reuse_hits += result.lu_reuse_hits
        self.bypass_fallbacks += result.bypass_fallbacks

    @property
    def wall_seconds(self) -> float:
        """Total wall time: operating point plus transient loop."""
        return self.dcop_seconds + self.tran_seconds

    @property
    def total_work(self) -> float:
        """Serial work including the operating point."""
        return self.work_units + self.dc_work_units


@dataclass
class TransientResult:
    """Waveforms plus diagnostics of one transient run."""

    waveforms: "WaveformSet"
    stats: TransientStats
    times: np.ndarray
    step_sizes: np.ndarray
    options: SimOptions
    metrics: RunMetrics | None = None

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _initial_solution(
    system: MnaSystem,
    options: SimOptions,
    uic: bool,
    node_ics: dict[str, float] | None,
    stats: TransientStats,
    variants: list[CompiledCircuit] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Starting (x0, q0) from the operating point or initial conditions.

    An ensemble passes its per-variant compiled circuits as *variants*.
    Each variant then starts on its own scalar
    :class:`~repro.mna.system.MnaSystem`, because DC homotopy fallbacks
    mutate bank state (gshunt schedule, source scale) and the ensemble
    banks must stay untouched; its ``dcop`` span is tagged ``variant=k``
    and the starts stack into ``(n, K)`` arrays.

    Also books the phase's wall time into ``stats.dcop_seconds``, its
    cost into the other *stats* fields, and emits the ``dcop`` trace
    span(s) when a recorder is attached.
    """
    rec = resolve_recorder(options.instrument)
    started = time.perf_counter()
    if variants is None:
        start = _start_one(system, options, uic, node_ics, stats, rec)
    else:
        starts = [
            _start_one(MnaSystem(compiled), options, uic, node_ics, stats, rec, variant=k)
            for k, compiled in enumerate(variants)
        ]
        start = tuple(np.stack(parts, axis=1) for parts in zip(*starts))
    stats.dcop_seconds = time.perf_counter() - started
    return start


def _start_one(
    system: MnaSystem,
    options: SimOptions,
    uic: bool,
    node_ics: dict[str, float] | None,
    stats: TransientStats,
    rec,
    **tags,
) -> tuple[np.ndarray, np.ndarray]:
    """One scalar system's starting state; see :func:`_initial_solution`."""
    if not uic:
        started = time.perf_counter()
        op = solve_operating_point(system, options)
        stats.dc_work_units += op.work_units
        stats.newton_iterations += op.iterations
        stats.lu_factors += op.lu_factors
        stats.lu_refactors += op.lu_refactors
        stats.lu_solves += op.lu_solves
        stats.lu_reuse_hits += op.lu_reuse_hits
        if rec.enabled:
            dur = time.perf_counter() - started
            rec.emit_span(
                DCOP,
                ts=rec.clock() - dur,
                dur=dur,
                t_sim=0.0,
                cost=op.work_units,
                strategy=op.strategy,
                iterations=op.iterations,
                work_units=op.work_units,
                **tags,
            )
        return op.x, op.q
    compiled = system.compiled
    x0 = np.zeros(system.n)
    for key, value in compiled.initial_conditions.items():
        kind, _, name = key.partition(":")
        if kind == "v":
            x0[compiled.node_voltage_index(name)] = value
        else:
            x0[compiled.branch_current_index(name)] = value
    for node, value in (node_ics or {}).items():
        x0[compiled.node_voltage_index(node)] = value
    out = system.make_buffers()
    system.eval(x0, 0.0, out)
    return x0, system.charge(out)


def run_transient(
    compiled: CompiledCircuit | Circuit,
    tstop: float,
    tstep: float | None = None,
    options: SimOptions | None = None,
    uic: bool = False,
    node_ics: dict[str, float] | None = None,
    instrument=None,
) -> TransientResult:
    """Sequential transient simulation from 0 to *tstop*.

    Args:
        compiled: a circuit or an already-compiled circuit.
        tstep: suggested output/initial step (SPICE ``.tran`` tstep); only
            influences the first step, not output density.
        uic: skip the operating point and start from initial conditions.
        node_ics: extra initial node voltages for ``uic`` runs.
        instrument: optional :class:`~repro.instrument.Recorder` (threaded
            into ``options.instrument``); the run's events and counters
            land there and the result's ``metrics`` gains its counters.
    """
    if isinstance(compiled, Circuit):
        compiled = compile_circuit(compiled, options)
    options = options or compiled.options
    if instrument is not None:
        options = options.replace(instrument=instrument)
    system = MnaSystem(compiled)
    stats, metrics, times, xs, steps = _run_loop(
        system, tstop, tstep, options, uic, node_ics
    )
    return TransientResult(
        waveforms=_build_waveforms(system, times, xs),
        stats=stats,
        times=np.array(times),
        step_sizes=np.array(steps),
        options=options,
        metrics=metrics,
    )


def _run_loop(
    system: MnaSystem,
    tstop: float,
    tstep: float | None,
    options: SimOptions,
    uic: bool,
    node_ics: dict[str, float] | None,
    variants: list[CompiledCircuit] | None = None,
) -> tuple[TransientStats, RunMetrics, list[float], list[np.ndarray], list[float]]:
    """The stepping loop behind both transient entry points.

    DC start, then propose -> solve -> accept/reject -> record until
    *tstop*, under one attempt budget. An
    :class:`~repro.mna.ensemble.EnsembleSystem` (with its per-variant
    compiled circuits as *variants*) steps all K variants on one shared
    grid; its run and timestep spans carry ``sims=K``, and it adds the
    ``ensemble.*`` counters, the ``ensemble.lte.worst_ratio`` histogram
    and ``worst_variant`` on LTE rejects.

    Returns the stats, the run metrics, and the accepted times, solutions
    and step sizes.
    """
    rec = resolve_recorder(options.instrument)
    tracing = rec.enabled
    ensemble = isinstance(system, EnsembleSystem)
    tags = {"sims": system.sims} if ensemble else {}
    kind = "ensemble" if ensemble else "sequential"
    stats = TransientStats()
    started = time.perf_counter()
    run_sid = rec.begin_span(RUN, kind=kind, **tags) if tracing else 0

    x0, q0 = _initial_solution(system, options, uic, node_ics, stats, variants)
    history = TimepointHistory()
    history.append(Timepoint(0.0, x0, q0, np.zeros_like(x0)))

    h0 = options.first_step_fraction * (tstep if tstep else tstop / 50.0)
    controller = StepController(
        options, tstop, h0, system.compiled.collect_breakpoints(tstop)
    )

    rec_times = [0.0]
    rec_x = [x0]
    step_sizes: list[float] = []
    buffers = system.make_buffers(fast_path=options.jacobian_reuse)
    if ensemble:
        solver = BlockSolver(system.sims, system.unknown_names)
    else:
        solver = LinearSolver(system.unknown_names)

    t = 0.0
    attempts = 0
    max_attempts = MAX_ATTEMPTS_FACTOR * max(int(tstop / h0), 1000)
    while t < tstop * (1.0 - END_SLACK):
        attempts += 1
        if attempts > max_attempts:
            raise TimestepError(
                f"attempt budget exhausted at t={t:.3e}s "
                f"({stats.accepted_points} accepted, {stats.rejected_points} rejected)"
            )
        h, hits_bp = controller.propose(t)
        step_sid = rec.begin_span(TIMESTEP, t_sim=t + h, h=h, **tags) if tracing else 0
        solution = solve_timepoint(
            system, history, t + h, options, controller.force_be, buffers, solver
        )
        stats.work_units += solution.result.work_units
        stats.newton_iterations += solution.result.iterations
        stats.charge_lu(solution.result)
        if not solution.converged:
            stats.newton_failures += 1
            if tracing:
                rec.end_span(
                    step_sid,
                    outcome=OUTCOME_NEWTON_FAIL,
                    cost=solution.result.work_units,
                )
            controller.on_newton_failure(h)
            continue

        verdict, ratios = accept_point(system, history, solution, options)
        if not verdict.accepted:
            stats.rejected_points += 1
            if tracing:
                rec.end_span(
                    step_sid,
                    outcome=OUTCOME_LTE_REJECT,
                    cost=solution.result.work_units,
                )
                rec.count("lte.rejects")
                worst = {}
                if ensemble:
                    rec.count("ensemble.lte.rejects")
                    worst["worst_variant"] = int(ratios.argmax()) if ratios.size else -1
                rec.event(
                    LTE_REJECT,
                    t_sim=solution.t,
                    h=h,
                    h_optimal=verdict.h_optimal,
                    **worst,
                )
            controller.on_reject(h, verdict)
            continue

        history.append(solution.to_timepoint())
        controller.on_accept(h, verdict, hits_bp)
        if hits_bp:
            history.mark_era()
        t = solution.t
        stats.accepted_points += 1
        rec_times.append(t)
        rec_x.append(solution.result.x)
        step_sizes.append(h)
        if tracing:
            rec.end_span(
                step_sid, outcome=OUTCOME_ACCEPTED, cost=solution.result.work_units
            )
            rec.count("points.accepted")
            if ensemble:
                rec.count("ensemble.points.accepted")
            rec.observe("step.h_accepted", h)
            if ensemble and ratios.size:
                rec.observe("ensemble.lte.worst_ratio", float(ratios.max()))
            rec.event(STEP_ACCEPT, t_sim=t, h=h)

    stats.tran_seconds = time.perf_counter() - started - stats.dcop_seconds
    if tracing:
        rec.end_span(
            run_sid, cost=stats.total_work, accepted=stats.accepted_points
        )
    metrics = RunMetrics.from_stats(
        stats, scheme=kind, threads=1, recorder=rec if tracing else None
    )
    return stats, metrics, rec_times, rec_x, step_sizes


def _build_waveforms(system: MnaSystem, times, xs) -> "WaveformSet":
    from repro.waveform.waveform import WaveformSet

    matrix = np.vstack(xs)
    data = {name: matrix[:, i] for i, name in enumerate(system.unknown_names)}
    return WaveformSet(np.asarray(times), data)
