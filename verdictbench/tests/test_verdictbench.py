"""Tests of the verdict benchmark itself: generators, oracles, the
verdict check and the tracer's arithmetic.

    PYTHONPATH=src python -m pytest -q verdictbench/tests
"""

import contextlib
import io
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lctforge import cli  # noqa: E402

DATA = ROOT / "src" / "lctforge" / "data"


def _verify(inp, where):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.chdir(where):
        code = cli.main(["verify", "--json", inp.path])
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    first = workloads.generate(workload, 7, tmp_path / "a", DATA)
    again = workloads.generate(workload, 7, tmp_path / "b", DATA)
    assert workloads.digest(tmp_path / "a") == \
        workloads.digest(tmp_path / "b")
    assert [i.expect for i in first] == [i.expect for i in again]
    if workload != "bundled":
        workloads.generate(workload, 8, tmp_path / "c", DATA)
        assert workloads.digest(tmp_path / "a") != \
            workloads.digest(tmp_path / "c")
        assert any(i.expect.overall == "FAIL" for i in first)


def test_oracle_spot_values():
    assert oracle.duval_maxima(3, 1) == [F(3, 4), F(1), F(3, 4)]
    assert oracle.duval_maxima(4, 1) == [F(4, 5), F(6, 5), F(6, 5), F(4, 5)]
    assert oracle.duval_maxima(8, 1)[3:5] == [F(20, 9), F(20, 9)]
    assert oracle.duval_maxima(5, -1) is None
    assert oracle.QUOTED_WITNESS == {2: (14, 13, 3), 4: (40, 20, 0)}
    for a, b, m, n, alpha, beta in oracle.TUPLES:
        assert oracle.cramer_vertex(a, b, m, n) == (alpha, beta)
    assert oracle.involution_image(-3, 1) == (-3, 1)
    assert oracle.untwist_image(1, F(7, 6)) == (3, F(1, 6))


def test_quoted_f15_is_refuted_at_the_pinned_witnesses(tmp_path):
    inputs = workloads.generate("polyid-identities", 1, tmp_path, DATA)
    quoted = [i for i in inputs if "quoted-f15" in i.path]
    assert len(quoted) == 2
    for inp in quoted:
        assert inp.expect.overall == "FAIL"
        code, stdout = _verify(inp, tmp_path)
        assert workloads.mismatches(inp.expect, code, stdout) == []


def test_fail_ratio_counts_a_corrupted_expectation(tmp_path):
    inputs = workloads.generate("smallstep", 3, tmp_path, DATA)[:4]
    outcomes = []
    for inp in inputs:
        code, stdout = _verify(inp, tmp_path)
        outcomes.append([[[code, stdout, None], 5]])
    assert run.check_outcomes(inputs, outcomes, []) == (20, 0, {})
    inputs[1].expect.values[1] += 1
    attempted, failed, problems = run.check_outcomes(inputs, outcomes, [])
    assert (attempted, failed) == (20, 5)
    assert list(problems) == [inputs[1].path]
    failing = workloads.Expect(statuses=["PASS"])
    assert workloads.mismatches(failing, None, "", "ValueError: boom")


def test_self_time_on_a_synthetic_span_tree():
    #  root [0, 100]
    #    a [10, 40]
    #      a1 [15, 25]
    #    b [50, 90]
    spans = [["root", 0, 100, -1, 0], ["a", 10, 40, 0, 0],
             ["a1", 15, 25, 1, 0], ["b", 50, 90, 0, 0]]
    assert tracer.self_times(spans) == [30, 20, 10, 40]
    layers = tracer.layer_metrics(spans, tracer.Tracer().counters, 200e-9)
    assert layers["trace.coverage"] == pytest.approx(0.5)


def test_time_at_reference_speed_on_synthetic_samples():
    # kernel at 1 time unit in fast spells, 2 in slow ones; one sample
    # every 0.1 s from t = 0 to t = 39.9, slow from t = 10 to t = 20
    sampler = worker.SpeedSampler(reference=1.0)
    sampler.samples = [(t / 10, 2.0 if 100 <= t < 200 else 1.0)
                       for t in range(400)]
    # all fast, less 0.5 s of the sampler's own time
    assert sampler.at_reference_speed(25, 35, 0.5) == pytest.approx(9.5)
    # all slow: half the time at reference speed
    assert sampler.at_reference_speed(10, 19.95, 0) == pytest.approx(4.975)
    # half slow, half fast
    assert sampler.at_reference_speed(15, 24.95, 0) == \
        pytest.approx(9.95 * 0.75)
    # too short to hold MIN_SAMPLES: borrows the nearest samples
    assert sampler.at_reference_speed(15.01, 15.02, 0) == \
        pytest.approx(0.005)
    # a slower reference scales every time
    sampler.reference = 2.0
    assert sampler.at_reference_speed(25, 35, 0.5) == pytest.approx(19.0)


def test_tracer_wraps_every_lookup_site_and_restores_them():
    from lctforge import certs, linprog, resolution, sparsepoly

    original = linprog.lp_optimize
    mul = sparsepoly.SparsePoly.__dict__["__mul__"]
    t = tracer.Tracer()
    assert t.install() == []
    try:
        assert certs.lp_optimize is resolution.lp_optimize
        assert certs.lp_optimize.__wrapped__ is original
        x = sparsepoly.SparsePoly.variable(2, 0)
        y = sparsepoly.SparsePoly.variable(2, 1)
        resolution.du_val_coefficient_bounds(resolution.an_chain(2),
                                             [([1, 1], "<=", 1)])
        (x + y) * (x - y)
        2 * x
    finally:
        t.uninstall()
    assert certs.lp_optimize is resolution.lp_optimize is original
    assert sparsepoly.SparsePoly.__dict__["__mul__"] is mul
    names = [s[0] for s in t.spans]
    assert names.count("linprog.lp_optimize") == 2
    assert names.count("sparsepoly.mul") == 2
    assert all(s[3] == 0 for s in t.spans
               if s[0] == "linprog.lp_optimize")
    assert t.counters["sparsepoly.term_products"] == 2 * 2 + 1
    assert t.counters["resolution.maxima"] == 2
