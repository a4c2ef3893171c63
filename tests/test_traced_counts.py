"""The traced seed-1 work of each benchmark workload, pinned.

Each workload's seed-1 inputs are generated by
``verdictbench/workloads.py`` and run in process through
``cli.main(["verify", "--json", path])`` under
``verdictbench/tracer.py``'s ``Tracer``, as one traced benchmark pass
runs them.  The counts are work, not time: how many LP solves,
polynomial products and term products, steps and local-inequality and
lattice calls the same inputs cost.  A change that moves one of them
must say why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "verdictbench"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lctforge import cli  # noqa: E402

DATA = ROOT / "src" / "lctforge" / "data"

COUNTS = {
    "bundled": {
        "linprog.lp_optimize.calls": 18,
        "resolution.lp_calls_per_bound": 1,
        "sparsepoly.mul.calls": 101,
        "sparsepoly.term_products": 6219,
        "sparsepoly.max_terms": 85,
        "certs.steps": 203,
        "localineq.calls": 49,
        "lattice.calls": 18,
    },
    "duval-chains": {
        "linprog.lp_optimize.calls": 22,
        "resolution.lp_calls_per_bound": 22 / 21,
        "certs.steps": 6,
    },
    "polyid-identities": {
        "sparsepoly.mul.calls": 979,
        "sparsepoly.term_products": 44714,
        "sparsepoly.max_terms": 329,
        "certs.steps": 13,
    },
    "smallstep": {
        "certs.steps": 577,
        "localineq.calls": 144,
        "lattice.calls": 121,
    },
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_seed_1_counts(workload, tmp_path, monkeypatch):
    inputs = workloads.generate(workload, 1, tmp_path, DATA)
    monkeypatch.chdir(tmp_path)
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        for inp in inputs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "--json", inp.path])
            assert workloads.mismatches(inp.expect, code,
                                        out.getvalue()) == [], inp.path
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, 1.0)
    expected = {**COUNTS[workload], "certs.steps_error": 0}
    assert {k: metrics[k] for k in expected} == pytest.approx(expected)
