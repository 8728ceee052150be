"""A one-variant ensemble records the same instrumentation as the scalar run.

The scalar and ensemble transients share one stepping loop; the
ensemble path only adds its own ``ensemble.*`` counters and histograms.
With K=1 every other counter, every other histogram and every
``TransientStats`` field except the two wall-clock ones must therefore
equal the sequential run's exactly.
"""

from dataclasses import fields

import pytest

from repro.engine.ensemble import run_ensemble_transient
from repro.engine.transient import TransientStats, run_transient
from repro.instrument import Recorder
from repro.utils.options import SimOptions
from repro.verify.generators import draw_circuit

WALL_FIELDS = {"dcop_seconds", "tran_seconds"}


def _without_ensemble(table: dict) -> dict:
    return {k: v for k, v in table.items() if not k.startswith("ensemble.")}


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("seed", [11, 19, 42])
def test_k1_records_scalar_instrumentation(seed, reuse):
    gen = draw_circuit(seed)
    options = SimOptions(jacobian_reuse=reuse)
    seq_rec, ens_rec = Recorder(), Recorder()
    seq = run_transient(gen.circuit, gen.tstop, options=options, instrument=seq_rec)
    ens = run_ensemble_transient(
        [gen.circuit], gen.tstop, options=options, instrument=ens_rec
    )

    seq_snap, ens_snap = seq_rec.snapshot(), ens_rec.snapshot()
    for table in ("counters", "histograms"):
        assert _without_ensemble(ens_snap[table]) == seq_snap[table], table
    assert ens_snap["counters"]["ensemble.points.accepted"] == seq.stats.accepted_points

    for f in fields(TransientStats):
        if f.name not in WALL_FIELDS:
            assert getattr(ens.stats, f.name) == getattr(seq.stats, f.name), f.name
