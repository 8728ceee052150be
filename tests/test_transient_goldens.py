"""Fixed reference outputs for the scalar and ensemble transient paths.

The K=1 bit-identity tests compare two live code paths; a change that
moves both the same way passes them. These goldens pin each path to
numbers stored on disk instead: for verify seeds 11, 19 and 42, with
factorisation reuse on and off, they record the accepted-grid length,
fixed-time samples of every unknown and the ``TransientStats`` counters
of ``run_transient``, of a one-variant ``run_ensemble_transient`` and of
a three-variant ``run_ensemble_transient`` (the ``jittered_variants``
draw of ``test_ensemble_engine.py``).

Integer counters and grid lengths must match exactly; waveform samples
and float counters must sit on the ``machine`` rung of the oracle's
tolerance ladder or tighter.

Regenerate (only when a numerical change is intended) with::

    PYTHONPATH=src python -m tests.test_transient_goldens
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
import scipy

from repro.engine.ensemble import run_ensemble_transient
from repro.engine.transient import run_transient
from repro.jobs.spec import apply_params
from repro.utils.options import SimOptions
from repro.verify.generators import draw_circuit
from repro.verify.oracle import TOLERANCE_LADDER
from tests.test_ensemble_engine import jittered_variants

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "transient_goldens.json"

SEEDS = (11, 19, 42)
REUSE = (True, False)
PATHS = ("transient", "ensemble-k1", "ensemble-k3")

#: Fixed sample instants per run, as fractions of tstop.
SAMPLE_FRACTIONS = np.linspace(0.0, 1.0, 17)

INT_COUNTERS = (
    "accepted_points",
    "rejected_points",
    "newton_failures",
    "newton_iterations",
    "lu_factors",
    "lu_refactors",
    "lu_solves",
    "lu_reuse_hits",
    "bypass_fallbacks",
)
FLOAT_COUNTERS = ("work_units", "dc_work_units")

MACHINE = dict(TOLERANCE_LADDER)["machine"]


def case_key(path: str, seed: int, reuse: bool) -> str:
    return f"{path}/seed{seed}/{'reuse' if reuse else 'no-reuse'}"


def run_case(path: str, seed: int, reuse: bool) -> dict:
    """Run one golden case and reduce it to its stored record."""
    gen = draw_circuit(seed)
    options = SimOptions(jacobian_reuse=reuse)
    if path == "transient":
        result = run_transient(gen.circuit, gen.tstop, options=options)
        variants = [result]
    elif path == "ensemble-k1":
        result = run_ensemble_transient([gen.circuit], gen.tstop, options=options)
        variants = result.variants
    else:
        circuits = [
            apply_params(gen.circuit, o) for o in jittered_variants(gen.circuit, k=3)
        ]
        result = run_ensemble_transient(circuits, gen.tstop, options=options)
        variants = result.variants
    times = SAMPLE_FRACTIONS * gen.tstop
    stats = result.stats
    return {
        "grid_length": int(len(result.times)),
        "sample_times": times.tolist(),
        "samples": [
            {
                name: variant.waveforms[name].at(times).tolist()
                for name in sorted(variant.waveforms.names)
            }
            for variant in variants
        ],
        "counters": {name: int(getattr(stats, name)) for name in INT_COUNTERS},
        "float_counters": {name: float(getattr(stats, name)) for name in FLOAT_COUNTERS},
    }


def write_goldens() -> None:
    cases = {
        case_key(path, seed, reuse): run_case(path, seed, reuse)
        for path in PATHS
        for seed in SEEDS
        for reuse in REUSE
    }
    payload = {
        "generated_with": {"numpy": np.__version__, "scipy": scipy.__version__},
        "cases": cases,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def relative_deviation(ref: np.ndarray, got: np.ndarray) -> float:
    """Max deviation over the reference's swing-or-magnitude scale."""
    diff = float(np.abs(ref - got).max())
    scale = max(float(ref.max() - ref.min()), float(np.abs(ref).max()))
    if scale <= 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / scale


@pytest.mark.parametrize("reuse", REUSE, ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_matches_golden(goldens, path, seed, reuse):
    want = goldens[case_key(path, seed, reuse)]
    got = run_case(path, seed, reuse)
    assert got["grid_length"] == want["grid_length"]
    assert got["counters"] == want["counters"]
    for name, value in want["float_counters"].items():
        assert abs(got["float_counters"][name] - value) <= MACHINE * abs(value), name
    assert len(got["samples"]) == len(want["samples"])
    for k, (got_k, want_k) in enumerate(zip(got["samples"], want["samples"])):
        assert sorted(got_k) == sorted(want_k)
        for name, ref in want_k.items():
            rel = relative_deviation(np.array(ref), np.array(got_k[name]))
            assert rel <= MACHINE, f"variant {k} {name}: {rel:.3e}"


if __name__ == "__main__":
    write_goldens()
