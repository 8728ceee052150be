"""Ensemble transient engine: K parameter variants per solve.

Runs the stepping loop of :mod:`repro.engine.transient` over an
:class:`~repro.mna.ensemble.EnsembleSystem`: one shared time grid, one
lockstep Newton solve per candidate point
(:func:`~repro.solver.ensemble.ensemble_newton_solve`), per-variant LTE
ratios combined with a max-reduction accept rule
(:func:`~repro.integration.lte.ensemble_lte_verdict`). DC operating
points stay on the scalar path — homotopy fallbacks mutate per-variant
bank state — and are stacked into the ``(n, K)`` starting state.

There is one loop and two Newton kernels. The loop, the point solver,
the DC start, the solver instrumentation and the LTE test are the
scalar engine's own, so a K=1 ensemble retraces the sequential run bit
for bit, with factorisation reuse on or off. Only the iteration kernels
differ: the lockstep kernel's per-variant bookkeeping costs about 1.5x
the scalar kernel's wall time at K=1, so sequential runs keep theirs.
This module builds the ensemble, calls the loop and splits the result
into one :class:`~repro.engine.transient.TransientResult` per variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Circuit
from repro.engine.transient import (
    TransientResult,
    TransientStats,
    _build_waveforms,
    _run_loop,
)
from repro.instrument.metrics import RunMetrics
from repro.mna.compiler import CompiledCircuit
from repro.mna.ensemble import (
    EnsembleCompilation,
    compile_ensemble,
    ensemble_from_compiled,
)
from repro.utils.options import SimOptions


@dataclass
class EnsembleTransientResult:
    """Per-variant transient results sharing one adaptive time grid.

    ``variants[k]`` is an ordinary
    :class:`~repro.engine.transient.TransientResult` whose waveforms are
    variant *k*'s columns of the lockstep solve; ``stats`` and
    ``metrics`` describe the *shared* run (one Newton history, one grid),
    which all variants reference.
    """

    variants: list[TransientResult]
    stats: TransientStats
    times: np.ndarray
    step_sizes: np.ndarray
    options: SimOptions
    metrics: RunMetrics | None = None

    @property
    def sims(self) -> int:
        return len(self.variants)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __getitem__(self, k: int) -> TransientResult:
        return self.variants[k]

    def __len__(self) -> int:
        return len(self.variants)


def run_ensemble_transient(
    circuits: list[Circuit] | list[CompiledCircuit] | EnsembleCompilation,
    tstop: float,
    tstep: float | None = None,
    options: SimOptions | None = None,
    uic: bool = False,
    node_ics: dict[str, float] | None = None,
    instrument=None,
) -> EnsembleTransientResult:
    """Transient-simulate K same-topology variants in lockstep, 0 to *tstop*.

    Args:
        circuits: K circuit variants (raw or compiled) sharing one
            topology, or an already-built
            :class:`~repro.mna.ensemble.EnsembleCompilation`.
        tstep: suggested output/initial step, as in
            :func:`~repro.engine.transient.run_transient`.
        uic: skip the operating points and start from initial conditions.
        node_ics: extra initial node voltages for ``uic`` runs (applied to
            every variant).
        instrument: optional :class:`~repro.instrument.Recorder`.

    Raises:
        SimulationError: when the variants' topologies differ or a bank
            type does not support ensemble evaluation.
    """
    if isinstance(circuits, EnsembleCompilation):
        ensemble = circuits
    elif circuits and isinstance(circuits[0], Circuit):
        ensemble = compile_ensemble(list(circuits), options)
    else:
        ensemble = ensemble_from_compiled(list(circuits))
    options = options or ensemble.variants[0].options
    if instrument is not None:
        options = options.replace(instrument=instrument)
    system = ensemble.system
    stats, metrics, rec_times, rec_x, step_sizes = _run_loop(
        system, tstop, tstep, options, uic, node_ics, ensemble.variants
    )

    times = np.array(rec_times)
    steps = np.array(step_sizes)
    variants = [
        TransientResult(
            waveforms=_build_waveforms(system, times, [x[:, k] for x in rec_x]),
            stats=stats,
            times=times,
            step_sizes=steps,
            options=options,
            metrics=metrics,
        )
        for k in range(system.sims)
    ]
    return EnsembleTransientResult(
        variants=variants,
        stats=stats,
        times=times,
        step_sizes=steps,
        options=options,
        metrics=metrics,
    )
