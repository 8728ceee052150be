"""Calibrated timing: analyses and set-up scaled by the kernel around them."""

import pytest

from perfbench import bench


def test_calibrated_scales_by_mean_kernel_time():
    ref = bench.KERNEL_REFERENCE_S
    # A host twice as slow as the reference: the kernel takes 2 * ref.
    assert bench.calibrated(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    # The kernel before and after are averaged.
    assert bench.calibrated(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert bench.calibrated(0.5, ref, ref) == pytest.approx(0.5)


def test_calibrated_pass_samples_every_analysis():
    analyses = bench.workloads.setup("seq-interconnect", 1)
    for a in analyses:
        a.tstop = 2e-9
    outcomes, samples = bench.calibrated_pass(analyses)
    assert len(outcomes) == len(samples) == len(analyses)
    for wall, cpu, cal_wall, cal_cpu, kernel in samples:
        assert wall > 0 and cpu > 0 and cal_wall > 0 and cal_cpu > 0 and kernel > 0
        assert cal_wall == pytest.approx(wall * bench.KERNEL_REFERENCE_S / kernel)


def test_timed_setup_reports_one_value_per_batch():
    analyses, means = bench.timed_setup("ensemble-mc", 2, batches=3)
    assert len(means) == 3 and all(m > 0 for m in means)
    assert analyses[0].variants is not None
