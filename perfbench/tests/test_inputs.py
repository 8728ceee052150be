"""Seeded inputs: the same seed gives byte-identical generated inputs."""

import pytest

from perfbench import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = workloads.describe_inputs(workloads.generate(workload, 7))
    again = workloads.describe_inputs(workloads.generate(workload, 7))
    other = workloads.describe_inputs(workloads.generate(workload, 8))
    assert first == again
    assert first != other


def test_jitter_touches_every_perturbable_value():
    analyses = workloads.generate("ensemble-mc", 3)
    (ensemble,) = analyses
    nominal = workloads.jitterable_params(ensemble.circuit)
    assert len(ensemble.variants) == workloads.ENSEMBLE_SIZE
    for variant in ensemble.variants:
        assert sorted(variant) == sorted(nominal)
        ratios = [variant[name] / nominal[name] for name in nominal]
        assert all(0.8 < r < 1.25 for r in ratios)
        assert len(set(ratios)) == len(ratios)


def test_setup_compiles_and_partitions():
    analyses = workloads.setup("pipelined-traced", 1)
    wavepipe, wtm = analyses
    assert wavepipe.compiled is not None and wavepipe.manifest is None
    assert wtm.manifest is not None and len(wtm.manifest) == workloads.WTM_PARTITIONS
