"""The layer table: what the traced run wraps and what it reports.

Every ``*_s`` metric is a self time in seconds (span duration minus the
time its child spans cover), summed over the traced pass. Calls, ratios
and percentiles are read off the same spans or off counts taken at the
same boundaries. A ratio whose base is zero on a workload reads 0.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import solve as linalg_solve

from perfbench.tracing import Target, call_counts, durations, self_times

DEVICE_SPANS = {
    "devices.MosfetBank.eval": [("repro.devices.mosfet", "MosfetBank")],
    "devices.BjtBank.eval": [("repro.devices.bjt", "BjtBank")],
    "devices.DiodeBank.eval": [("repro.devices.diode", "DiodeBank")],
    "devices.linear.eval": [
        ("repro.devices.linear", cls)
        for cls in ("ResistorBank", "CapacitorBank", "InductorBank", "MutualInductanceBank")
    ],
    "devices.sources.eval": [
        ("repro.devices.sources", cls)
        for cls in (
            "VoltageSourceBank",
            "CurrentSourceBank",
            "VcvsBank",
            "VccsBank",
            "CccsBank",
            "CcvsBank",
        )
    ],
}


def _factor_span(args) -> str:
    """``LinearSolver.factor(self, matrix, ...)``: dense below the cutoff."""
    dense = args[1].shape[0] <= linalg_solve.DENSE_CUTOFF
    return "linalg.factor_dense" if dense else "linalg.factor_sparse"


def _newton_result(log, args, result) -> None:
    log.count("solver.iterations", result.iterations)
    log.count("solver.converged", 1 if result.converged else 0)


def _pipeline_result(log, args, result) -> None:
    stats = result.stats
    log.count("core.stages", stats.clock.stages)
    log.count("core.speculative_solves", stats.speculative_solves)
    log.count("core.speculative_hits", stats.speculative_hits)
    log.count("core.wasted_work", stats.wasted_work)
    log.count("core.serial_work", stats.serial_total)
    log.count("core.threaded_virtual_work", stats.virtual_total * result.threads)


def _wtm_result(log, args, result) -> None:
    log.count("partition.outer_iterations", result.stats.outer_iterations)
    log.count("partition.partition_solves", result.stats.partition_solves)


def _counter(name: str):
    def after(log, args, result) -> None:
        log.count(name)

    return after


def targets() -> list[Target]:
    """Every wrapped callable, grouped by layer."""
    out = [
        Target(module, f"{cls}.eval", span)
        for span, classes in DEVICE_SPANS.items()
        for module, cls in classes
    ]
    out += [
        Target("repro.devices.base", "DeviceBank.limit", "devices.limit"),
        Target("repro.devices.diode", "DiodeBank.limit", "devices.limit"),
        Target("repro.devices.bjt", "BjtBank.limit", "devices.limit"),
        # mna
        Target("repro.mna.compiler", "CompiledCircuit.__init__", "mna.compile"),
        Target("repro.mna.system", "MnaSystem.__init__", "mna.compile"),
        Target("repro.mna.ensemble", "ensemble_from_compiled", "mna.compile"),
        Target("repro.mna.system", "MnaSystem.eval", "mna.eval"),
        Target("repro.mna.system", "MnaSystem.jacobian", "mna.jacobian"),
        Target("repro.mna.ensemble", "EnsembleSystem.jacobian", "mna.jacobian"),
        # linalg
        Target("repro.linalg.solve", "LinearSolver.factor", _factor_span),
        Target("repro.linalg.solve", "LinearSolver.resolve", "linalg.backsolve"),
        Target("repro.linalg.solve", "LinearSolver.solve_reused", "linalg.backsolve_reused"),
        Target("repro.linalg.solve", "BlockSolver.factor_all", "linalg.block_factor"),
        # solver
        Target("repro.solver.newton", "newton_solve", "solver.newton", _newton_result),
        Target("repro.solver.ensemble", "ensemble_newton_solve", "solver.newton", _newton_result),
        # integration
        Target("repro.integration.lte", "lte_verdict", "integration.lte"),
        Target("repro.integration.lte", "ensemble_lte_verdict", "integration.lte"),
        Target("repro.integration.controller", "StepController.propose", "integration.controller"),
        Target(
            "repro.integration.controller",
            "StepController.on_accept",
            "integration.controller",
            _counter("integration.accepts"),
        ),
        Target(
            "repro.integration.controller",
            "StepController.on_reject",
            "integration.controller",
            _counter("integration.rejects"),
        ),
        Target(
            "repro.integration.controller",
            "StepController.on_newton_failure",
            "integration.controller",
            _counter("integration.newton_failures"),
        ),
        Target("repro.integration.controller", "StepController.restart", "integration.controller"),
        # engine
        Target("repro.engine.transient", "run_transient", "engine.transient"),
        Target("repro.engine.ensemble", "run_ensemble_transient", "engine.ensemble"),
        # core
        Target("repro.core.wavepipe", "run_wavepipe", "core.pipeline"),
        Target("repro.core.pipeline", "PipelineEngine.run", "core.pipeline", _pipeline_result),
        # partition
        Target("repro.partition.partitioner", "partition_circuit", "partition.partition"),
        Target("repro.partition.boundary", "build_partition_circuit", "partition.boundary"),
        Target("repro.partition.coordinator", "run_wtm", "partition.wtm", _wtm_result),
        # api
        Target("repro.api", "simulate", "api.simulate"),
        Target("repro.api", "run_request", "api.simulate"),
        Target("repro.api", "run_ensemble_request", "api.simulate"),
    ]
    out += [
        Target("repro.instrument.recorder", f"Recorder.{meth}", "instrument.recorder")
        for meth in (
            "count",
            "observe",
            "event",
            "begin_span",
            "end_span",
            "emit_span",
            "tag_span",
        )
    ]
    return out


#: Span names every workload must record at least once.
COMMON_SPANS = (
    "mna.compile",
    "mna.eval",
    "mna.jacobian",
    "linalg.backsolve",
    "solver.newton",
    "integration.lte",
    "integration.controller",
    "devices.linear.eval",
    "devices.sources.eval",
)

#: Extra span names each workload exists to exercise.
EXPECTED_SPANS = {
    "seq-nonlinear": (
        "devices.MosfetBank.eval",
        "devices.BjtBank.eval",
        "devices.limit",
        "linalg.factor_dense",
        "engine.transient",
    ),
    "seq-interconnect": ("linalg.factor_sparse", "engine.transient"),
    "ensemble-mc": (
        "devices.MosfetBank.eval",
        "linalg.factor_dense",
        "linalg.block_factor",
        "engine.ensemble",
        "api.simulate",
    ),
    "pipelined-traced": (
        "devices.MosfetBank.eval",
        "core.pipeline",
        "partition.partition",
        "partition.boundary",
        "partition.wtm",
        "instrument.recorder",
    ),
}


def coverage_gaps(workload: str, spans: list[list]) -> list[str]:
    """Expected span names that recorded zero calls on *workload*."""
    calls = call_counts(spans)
    expected = COMMON_SPANS + EXPECTED_SPANS[workload]
    return [name for name in expected if calls.get(name, 0) == 0]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(
    spans, counts, events: int, trace_overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from one traced pass."""
    own = self_times(spans)
    calls = call_counts(spans)

    def s(*names: str) -> tuple[float, str]:
        return sum(own.get(n, 0.0) for n in names), "s"

    def n(*names: str) -> tuple[float, str]:
        return sum(calls.get(name, 0) for name in names), "count"

    newton_us = np.array(durations(spans, "solver.newton")) * 1e6
    factor_calls = calls.get("linalg.factor_dense", 0) + calls.get("linalg.factor_sparse", 0)
    reused = calls.get("linalg.backsolve_reused", 0)
    accepts = counts.get("integration.accepts", 0)
    attempts = accepts + counts.get("integration.rejects", 0) + counts.get(
        "integration.newton_failures", 0
    )
    out = {f"{span}_s": s(span) for span in DEVICE_SPANS}
    out.update(
        {
            "devices.limit_s": s("devices.limit"),
            "devices.eval_calls": n(*DEVICE_SPANS),
            "mna.compile_s": s("mna.compile"),
            "mna.eval_self_s": s("mna.eval"),
            "mna.jacobian_s": s("mna.jacobian"),
            "mna.jacobian_calls": n("mna.jacobian"),
            "linalg.factor_dense_s": s("linalg.factor_dense"),
            "linalg.factor_sparse_s": s("linalg.factor_sparse"),
            "linalg.factor_calls": (factor_calls, "count"),
            "linalg.backsolve_s": s("linalg.backsolve", "linalg.backsolve_reused"),
            "linalg.block_factor_s": s("linalg.block_factor"),
            "linalg.reuse_hit_ratio": (_ratio(reused, reused + factor_calls), "ratio"),
            "solver.newton_solves": n("solver.newton"),
            "solver.newton_iters": (counts.get("solver.iterations", 0), "count"),
            "solver.newton_self_s": s("solver.newton"),
            "solver.newton_solve_us.p50": (
                float(np.percentile(newton_us, 50)) if newton_us.size else 0.0,
                "us",
            ),
            "solver.newton_solve_us.p99": (
                float(np.percentile(newton_us, 99)) if newton_us.size else 0.0,
                "us",
            ),
            "solver.converged_ratio": (
                _ratio(counts.get("solver.converged", 0), calls.get("solver.newton", 0)),
                "ratio",
            ),
            "integration.lte_s": s("integration.lte"),
            "integration.controller_s": s("integration.controller"),
            "integration.accepted_points": (accepts, "count"),
            "integration.accept_ratio": (_ratio(accepts, attempts), "ratio"),
            "engine.transient_self_s": s("engine.transient"),
            "engine.ensemble_self_s": s("engine.ensemble"),
            "core.pipeline_self_s": s("core.pipeline"),
            "core.stages": (counts.get("core.stages", 0), "count"),
            "core.speculation_hit_ratio": (
                _ratio(
                    counts.get("core.speculative_hits", 0),
                    counts.get("core.speculative_solves", 0),
                ),
                "ratio",
            ),
            "core.wasted_work_ratio": (
                _ratio(counts.get("core.wasted_work", 0), counts.get("core.serial_work", 0)),
                "ratio",
            ),
            "core.virtual_efficiency": (
                _ratio(
                    counts.get("core.serial_work", 0),
                    counts.get("core.threaded_virtual_work", 0),
                ),
                "ratio",
            ),
            "partition.partition_s": s("partition.partition"),
            "partition.boundary_s": s("partition.boundary"),
            "partition.wtm_self_s": s("partition.wtm"),
            "partition.outer_iterations": (counts.get("partition.outer_iterations", 0), "count"),
            "partition.partition_solves": (counts.get("partition.partition_solves", 0), "count"),
            "instrument.recorder_s": s("instrument.recorder"),
            "instrument.recorder_calls": n("instrument.recorder"),
            "instrument.events": (events, "count"),
            "api.simulate_self_s": s("api.simulate"),
            "bench.trace_overhead": (trace_overhead, "ratio"),
        }
    )
    return out
