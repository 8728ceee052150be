"""Damped Newton–Raphson for the discretised circuit equations.

One call of :func:`newton_solve` finds x with

    F(x) = f(x) + s(t) + gshunt*x + alpha0*q(x) + beta = 0

where ``alpha0``/``beta`` encode the integration scheme (``alpha0 = 0``,
``beta = 0`` gives the DC equations). Convergence follows SPICE: the
iteration stops when every component of the update satisfies
``|dx_i| <= reltol*max(|x_i|, |x_prev_i|) + tol_i`` (vntol for voltages,
abstol for currents) *and* no device limiter fired on the accepted iterate.

The solver is stateless and re-entrant: all scratch state lives in the
caller-provided :class:`~repro.devices.base.EvalOutputs` buffers, so
concurrent WavePipe tasks can run Newton solves on the same system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.base import EvalOutputs
from repro.errors import SingularMatrixError
from repro.instrument.events import (
    NEWTON_SOLVE,
    OUTCOME_NEWTON_FAIL,
    PHASE_ASSEMBLY,
    PHASE_BACKSOLVE,
    PHASE_DEVICE_EVAL,
    PHASE_FACTOR,
)
from repro.instrument.recorder import get_recorder
from repro.linalg.solve import LinearSolver
from repro.mna.system import MnaSystem
from repro.utils.options import SimOptions

@dataclass
class NewtonResult:
    """Outcome of one Newton solve.

    Attributes:
        x: final iterate (meaningful even when unconverged — speculative
            WavePipe phases resume from it).
        converged: True if the SPICE delta-x criterion was met.
        iterations: Newton iterations performed.
        residual_norm: infinity norm of F at the final iterate.
        work_units: cost-model charge for this solve.
        q / qdot: charge vector at the solution and its derivative
            ``alpha0*q + beta`` (filled by the caller's integration layer
            when needed).
        failure: short reason string when not converged.
        lu_factors / lu_refactors / lu_solves / lu_reuse_hits: linear
            solver cost breakdown for this solve (fresh factorisations,
            symbolic-reuse numeric refactorisations, back-solves, and
            back-solves against reused factors).
        bypass_fallbacks: times the Jacobian bypass was abandoned
            mid-solve (residual stall or singular stale factors).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    work_units: float
    q: np.ndarray | None = None
    qdot: np.ndarray | None = None
    failure: str = ""
    lu_factors: int = 0
    lu_refactors: int = 0
    lu_solves: int = 0
    lu_reuse_hits: int = 0
    bypass_fallbacks: int = 0


#: Marginal cost of evaluating one extra ensemble variant, as a fraction
#: of a full device evaluation. Vectorised banks amortise the Python
#: dispatch and index gathers across variants; only the raw numpy
#: arithmetic scales with K.
ENSEMBLE_EVAL_MARGIN = 0.25


def _eval_factor(system: MnaSystem) -> float:
    """Device evaluations one iteration pays for: 1 on a scalar system.

    An ensemble's K variants share one vectorised pass, charged at
    ``1 + (K-1) * ENSEMBLE_EVAL_MARGIN`` full evaluations.
    """
    return 1.0 + ENSEMBLE_EVAL_MARGIN * (getattr(system, "sims", 1) - 1)


def iteration_work(system: MnaSystem, factored: int = 1, bypassed: int = 0) -> float:
    """Cost-model work units for one Newton iteration on *system*.

    Device evaluation dominates in a SPICE engine; factorisation scales
    with the pattern's nonzero count. The constants only matter up to an
    overall scale since speedups are cost ratios on the same system.
    *factored* variants (one, on a scalar system) pay assembly plus
    factorisation; *bypassed* ones skip both and pay only the back-solve,
    modelled at a fifth of the factorisation weight. Frozen (converged)
    ensemble variants pay nothing beyond the shared evaluation.
    """
    nnz = system.pattern.nnz
    return (
        system.work_units_per_eval * _eval_factor(system)
        + 0.05 * nnz * factored
        + 0.01 * nnz * bypassed
    )


def newton_solve(
    system: MnaSystem,
    t: float,
    alpha0: float,
    beta: np.ndarray | float,
    x0: np.ndarray,
    options: SimOptions | None = None,
    out: EvalOutputs | None = None,
    solver: LinearSolver | None = None,
    iter_cap: int | None = None,
) -> NewtonResult:
    """Solve the discretised equations at time *t* starting from *x0*.

    Args:
        alpha0: leading integration coefficient (0 for DC).
        beta: history vector of the integration scheme (0 for DC).
        iter_cap: optional hard iteration bound; when hit, returns the
            current iterate with ``converged=False`` and no error — used
            by WavePipe's speculative forward phase.
    """
    return _instrumented(
        _newton_iterate, system, t, alpha0, beta, x0, options, out, solver, iter_cap
    )


def _instrumented(iterate, system, t, alpha0, beta, x0, options, out, solver, iter_cap):
    """Run one Newton kernel, booking it into the active recorder.

    Shared by the scalar and the ensemble solver: *iterate* is the
    instrumentation-free kernel. On an ensemble system the variant count
    tags the ``newton_solve`` span as ``sims`` and feeds the
    ``ensemble.solves`` and ``ensemble.variants_per_solve`` counters.
    """
    opts = options or system.options
    rec = opts.instrument if opts.instrument is not None else get_recorder()
    if not rec.enabled:
        return iterate(system, t, alpha0, beta, x0, opts, out, solver, iter_cap)
    sims = getattr(system, "sims", None)
    tags = {} if sims is None else {"sims": sims}
    sid = rec.begin_span(NEWTON_SOLVE, t_sim=t, **tags)
    t_start = rec.clock()  # after begin_span so phase children nest inside
    result = iterate(system, t, alpha0, beta, x0, opts, out, solver, iter_cap)
    rec.count("newton.solves")
    rec.count("newton.iterations", result.iterations)
    if sims is not None:
        rec.count("ensemble.solves")
        rec.count("ensemble.variants_per_solve", sims)
    if not result.converged:
        rec.count("newton.failures")
    if result.lu_factors:
        rec.count("lu.factor", result.lu_factors)
    if result.lu_refactors:
        rec.count("lu.refactor", result.lu_refactors)
    if result.lu_solves:
        rec.count("lu.solve", result.lu_solves)
    if result.lu_reuse_hits:
        rec.count("lu.reuse_hit", result.lu_reuse_hits)
    if result.bypass_fallbacks:
        rec.count("newton.bypass_fallback", result.bypass_fallbacks)
    rec.observe("newton.iterations_per_solve", result.iterations)
    _emit_phase_spans(rec, sid, t_start, system, result)
    rec.end_span(
        sid,
        outcome="converged" if result.converged else OUTCOME_NEWTON_FAIL,
        cost=result.work_units,
        iterations=result.iterations,
        converged=result.converged,
        work_units=result.work_units,
        failure=result.failure,
    )
    return result


def _emit_phase_spans(rec, parent: int, t_start: float, system, result) -> None:
    """Child spans splitting one solve's cost into its four phases.

    The split is synthesized from the virtual-clock work model rather
    than timed (the hot loop stays instrumentation-free): each phase's
    ``cost`` attr is deterministic work units, while its wall interval
    is the parent's window divided proportionally — a drawing aid for
    Perfetto, not a measurement. ``device_eval`` additionally carries
    the per-device-class attribution from the compiled circuit's banks,
    scaled like the evaluation charge itself (see :func:`_eval_factor`).
    """
    nnz = system.pattern.nnz
    factorisations = result.lu_factors + result.lu_refactors
    eval_factor = _eval_factor(system)
    eval_cost = result.iterations * system.work_units_per_eval * eval_factor
    assembly_cost = 0.02 * nnz * factorisations
    factor_cost = 0.02 * nnz * factorisations
    backsolve_cost = 0.01 * nnz * result.lu_solves
    phases = [
        (PHASE_DEVICE_EVAL, eval_cost),
        (PHASE_ASSEMBLY, assembly_cost),
        (PHASE_FACTOR, factor_cost),
        (PHASE_BACKSOLVE, backsolve_cost),
    ]
    total = sum(cost for _, cost in phases)
    if total <= 0.0:
        return
    window = max(rec.clock() - t_start, 0.0)
    compiled = getattr(system, "compiled", None)
    cursor = t_start
    for name, cost in phases:
        if cost <= 0.0:
            continue
        dur = window * (cost / total)
        extra = {}
        if name == PHASE_DEVICE_EVAL and compiled is not None:
            extra["classes"] = {
                cls: result.iterations * units * eval_factor
                for cls, units in compiled.eval_cost_by_class().items()
            }
        rec.emit_span(
            name, ts=cursor, dur=dur, parent=parent, cost=cost, **extra
        )
        cursor += dur


def _newton_iterate(
    system: MnaSystem,
    t: float,
    alpha0: float,
    beta,
    x0: np.ndarray,
    opts: SimOptions,
    out: EvalOutputs | None,
    solver: LinearSolver | None,
    iter_cap: int | None,
) -> NewtonResult:
    """The damped-Newton loop itself (instrumentation-free hot path)."""
    out = out if out is not None else system.make_buffers(fast_path=opts.jacobian_reuse)
    solver = solver or LinearSolver(system.unknown_names)
    max_iters = iter_cap if iter_cap is not None else opts.max_newton_iters
    per_iter = iteration_work(system)
    per_iter_bypassed = iteration_work(system, factored=0, bypassed=1)

    reuse = opts.jacobian_reuse
    # Factors are only reusable against the same linearised operator:
    # same pattern (by identity), same alpha0, same gshunt (gmin stepping
    # mutates it). Reuse-off keeps key=None so matches() never fires.
    key = (system.pattern, alpha0, system.gshunt) if reuse else None
    f0 = solver.factor_count
    rf0 = solver.refactor_count
    s0 = solver.solve_count
    rh0 = solver.reuse_hits
    fallbacks = 0
    work = 0.0
    prev_norm = np.inf
    # A stall means the stale factors are a bad model of the current
    # operating point; later iterations of the same solve would stall
    # again, so bypass stays off until the next solve.
    allow_bypass = True

    def finish(converged: bool, iterations: int, norm: float, failure: str = ""):
        return NewtonResult(
            x, converged, iterations, norm, work,
            failure=failure,
            lu_factors=solver.factor_count - f0,
            lu_refactors=solver.refactor_count - rf0,
            lu_solves=solver.solve_count - s0,
            lu_reuse_hits=solver.reuse_hits - rh0,
            bypass_fallbacks=fallbacks,
        )

    abs_tol = system.convergence_tolerances(opts)
    x = np.asarray(x0, dtype=float).copy()
    residual_norm = np.inf

    for iteration in range(1, max_iters + 1):
        system.eval(x, t, out)
        residual = system.resistive_residual(out, x)
        if alpha0 != 0.0 or np.ndim(beta) > 0:
            residual = residual + alpha0 * out.q[: system.n] + beta
        residual_norm = float(np.abs(residual).max()) if residual.size else 0.0
        # Large-but-finite residuals are recoverable (overflow-safe device
        # models plus limiting pull the iterate back); only non-finite
        # values are hopeless.
        if not np.isfinite(residual_norm):
            work += per_iter
            return finish(False, iteration, residual_norm,
                          failure="residual diverged (non-finite)")

        # Jacobian bypass: back-solve against the previous factors while
        # they match this operator and the residual keeps contracting.
        bypass = reuse and allow_bypass and solver.matches(key)
        if bypass and opts.refactor_every > 0 and solver.bypass_streak >= opts.refactor_every:
            bypass = False
        if bypass and residual_norm > opts.reuse_stall_ratio * prev_norm:
            # Stale factors stopped paying for themselves: refactor now.
            bypass = False
            allow_bypass = False
            fallbacks += 1
        prev_norm = residual_norm

        work += per_iter_bypassed if bypass else per_iter
        try:
            if bypass:
                try:
                    delta = solver.solve_reused(-residual)
                    solver.bypass_streak += 1
                except SingularMatrixError:
                    fallbacks += 1
                    work += per_iter - per_iter_bypassed
                    bypass = False
                    allow_bypass = False
            if not bypass:
                jac = system.jacobian(out, alpha0)
                solver.factor(jac, key=key)
                delta = solver.resolve(-residual)
        except SingularMatrixError as exc:
            return finish(False, iteration, residual_norm,
                          failure=f"singular Jacobian: {exc}")

        # Global damping: cap the largest voltage move per iteration.
        # Purely linear systems converge in one exact step — damping them
        # only turns one iteration into several.
        if system.has_nonlinear:
            if opts.voltage_limit > 0:
                vmax = (
                    np.abs(delta[system.voltage_mask]).max()
                    if system.voltage_mask.any()
                    else 0.0
                )
                if vmax > opts.voltage_limit:
                    delta = delta * (opts.voltage_limit / vmax)
            if opts.damping < 1.0:
                delta = delta * opts.damping

        x_new = x + delta

        # Per-device junction limiting on the padded iterate.
        x_new_full = system.pad(x_new)
        limited = system.limit(x_new_full, system.pad(x))
        if limited:
            x_new = x_new_full[: system.n]

        scale = np.maximum(np.abs(x_new), np.abs(x))
        tol = opts.reltol * scale + abs_tol
        small = np.all(np.abs(x_new - x) <= tol)
        x = x_new
        if small and not limited and iteration >= 1:
            return finish(True, iteration, residual_norm)

    failure = "" if iter_cap is not None else "iteration limit reached"
    return finish(False, max_iters, residual_norm, failure=failure)
