"""Self-time arithmetic, wrapper install/restore and the coverage guard."""

import json
import sys
import types
from pathlib import Path

import pytest

import repro
import repro.api
import repro.core.wavepipe
import repro.engine.transient
import repro.linalg.solve
from perfbench import layers
from perfbench.tracing import Patcher, SpanLog, Target, call_counts, self_times


def test_self_time_subtracts_union_of_children():
    # root [0,10] has children a [1,4] and b [3,6] that overlap on [3,4],
    # and c [9,12] that sticks out past the root's end; a has child d.
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["d", 2.0, 3.0, 1, "r"],
        ["b", 3.0, 6.0, 0, "r"],
        ["c", 9.0, 12.0, 0, "r"],
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 1.0)  # union [1,6] + [9,10]
    assert own["a"] == pytest.approx(2.0)
    assert own["d"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(3.0)


def test_self_times_sum_per_name_and_nest_same_name():
    spans = [
        ["x", 0.0, 4.0, -1, "r"],
        ["x", 1.0, 2.0, 0, "r"],
        ["y", 5.0, 7.0, -1, "r"],
    ]
    assert self_times(spans) == pytest.approx({"x": 4.0, "y": 2.0})
    assert call_counts(spans) == {"x": 2, "y": 1}


def test_span_log_nests_and_writes(tmp_path):
    ticks = iter(range(100))
    log = SpanLog(clock=lambda: float(next(ticks)))
    log.run = "one"
    outer = log.begin("outer")
    inner = log.begin("inner")
    log.end(inner)
    log.end(outer)
    assert log.spans == [["outer", 0.0, 3.0, -1, "one"], ["inner", 1.0, 2.0, 0, "one"]]
    with pytest.raises(RuntimeError):
        a = log.begin("a")
        log.begin("b")
        log.end(a)
    path = tmp_path / "spans.json"
    log.write(path)
    assert json.loads(path.read_text())["fields"] == ["name", "start", "end", "parent", "run"]


def _fake_package():
    """A defining module and an importer that bound the function by alias."""
    defining = types.ModuleType("fakepkg.defining")

    def work(x):
        return x + 1

    work.__module__ = "fakepkg.defining"
    defining.work = work

    class Engine:
        def step(self, x):
            return defining.work(x) * 2

    defining.Engine = Engine
    Engine.__module__ = "fakepkg.defining"
    importer = types.ModuleType("fakepkg.importer")
    importer.renamed = work
    importer.run = lambda x: importer.renamed(x)
    return defining, importer


def test_patcher_wraps_aliases_and_restores(monkeypatch):
    defining, importer = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg.defining", defining)
    monkeypatch.setitem(sys.modules, "fakepkg.importer", importer)
    original_work, original_step = defining.work, defining.Engine.step
    log = SpanLog()
    patcher = Patcher(packages=("fakepkg",))
    patcher.install(
        [
            Target("fakepkg.defining", "work", "layer.work"),
            Target("fakepkg.defining", "Engine.step", "layer.step"),
        ],
        log,
    )
    assert importer.renamed is defining.work is not original_work
    assert importer.run(1) == 2
    assert defining.Engine().step(1) == 4
    assert call_counts(log.spans) == {"layer.work": 2, "layer.step": 1}
    assert log.spans[-1][3] == 1  # work ran inside step (span 1)
    assert patcher.restore() == 3
    assert defining.work is original_work and importer.renamed is original_work
    assert vars(defining.Engine)["step"] is original_step


def test_patcher_refuses_inherited_methods(monkeypatch):
    defining, _ = _fake_package()

    class Child(defining.Engine):
        pass

    defining.Child = Child
    monkeypatch.setitem(sys.modules, "fakepkg.defining", defining)
    patcher = Patcher(packages=("fakepkg",))
    with pytest.raises(LookupError):
        patcher.install([Target("fakepkg.defining", "Child.step", "x")], SpanLog())
    assert patcher.restore() == 0


def test_restore_detects_a_wrapper_left_behind(monkeypatch):
    defining, importer = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg.defining", defining)
    monkeypatch.setitem(sys.modules, "fakepkg.importer", importer)
    patcher = Patcher(packages=("fakepkg",))
    patcher.install([Target("fakepkg.defining", "work", "w")], SpanLog())
    importer.copied = importer.renamed  # a wrapper bound after install
    with pytest.raises(RuntimeError, match="fakepkg.importer.copied"):
        patcher.restore()


def test_layer_targets_cover_every_importer_and_restore():
    originals = {
        "run_transient": repro.engine.transient.run_transient,
        "factor": vars(repro.linalg.solve.LinearSolver)["factor"],
        "simulate": repro.simulate,
    }
    log = SpanLog()
    patcher = Patcher(packages=("repro", "perfbench"))
    try:
        patcher.install(layers.targets(), log)
        wrapped = repro.engine.transient.run_transient
        assert wrapped is not originals["run_transient"]
        # Every module that bound run_transient by from-import sees the wrapper.
        assert repro.core.wavepipe.run_transient is wrapped
        assert repro.api._run_transient is wrapped
        assert repro.simulate is repro.api.simulate is not originals["simulate"]
        circuit = repro.Circuit("rc")
        circuit.add_vsource("V1", "in", "0", repro.Pulse(0, 1, delay=1e-9, rise=1e-10, width=1e-6))
        circuit.add_resistor("R1", "in", "out", "1k")
        circuit.add_capacitor("C1", "out", "0", "1p")
        repro.simulate(circuit, analysis="transient", tstop=5e-9)
    finally:
        patcher.restore()
    calls = call_counts(log.spans)
    for name in ("api.simulate", "engine.transient", "solver.newton", "linalg.factor_dense"):
        assert calls.get(name, 0) > 0, name
    assert repro.engine.transient.run_transient is originals["run_transient"]
    assert repro.core.wavepipe.run_transient is originals["run_transient"]
    assert vars(repro.linalg.solve.LinearSolver)["factor"] is originals["factor"]
    assert repro.simulate is originals["simulate"]


def test_coverage_guard_names_missing_layers():
    spans = [[name, 0.0, 1.0, -1, "r"] for name in layers.COMMON_SPANS]
    assert layers.coverage_gaps("seq-interconnect", spans) == [
        "linalg.factor_sparse",
        "engine.transient",
    ]


def test_layer_metrics_match_benchmark_json():
    config = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    spans = [["solver.newton", 0.0, 1e-3, -1, "r"]]
    metrics = layers.layer_metrics(spans, {}, events=0, trace_overhead=1.2)
    assert sorted(metrics) == sorted(m["name"] for m in config["per_layer"])
    for entry in config["per_layer"]:
        assert metrics[entry["name"]][1] == entry["unit"], entry["name"]
