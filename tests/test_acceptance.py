"""Acceptance gate: one test per shipped claim, one line per criterion.

Run with -v to get the per-criterion verdict lines; each test also
prints `criterion N: PASS/FAIL - detail` so a -s run reads as a
checklist.  Expected values are frozen from independent recomputation
(brute rational evaluation, vertex enumeration, 2x2 Cramer solves)
done before the package was written.
"""

import random
import time
from fractions import Fraction as F

import pytest

from lctforge import data_path
from lctforge.localineq import (
    ThmIParams,
    check_theorem_I_hypotheses,
    implied_inequalities_lemma20,
    vertex_alpha_beta,
    corti_bound,
    mobile_bound_thmII,
)
from lctforge.linprog import Infeasible, Optimal, lp_optimize, LinearProgram
from lctforge.resolution import an_chain, du_val_coefficient_bounds
from lctforge.lattice import (
    apply_involution,
    untwist,
    pukhlikov_bound,
    min_orbit_size,
    superrigidity_orbit_test,
)
from lctforge.surfaces import parse_ledger, ledger_consistency
from lctforge.sparsepoly import (
    SparsePoly,
    poly_equal,
    weighted_degree_profile,
)
from lctforge.polyid import parse_polyid
from lctforge.certs import run_certificate_file
from lctforge.syntax import CheckFailed
from oracles import dot
from vertexenum import box, brute_lexmax, brute_max, satisfies, shifted


def _announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# (A, B, M, N, alpha, beta): the five parameter tuples the local
# inequality is run with, alpha/beta at the feasible-region vertex.
TUPLES = [
    (F(2), F(3, 2), F(0), F(0), F(1), F(1, 2)),
    (F(45, 11), F(52, 21), F(3, 11), F(2, 7), F(675, 197), F(77, 197)),
    (F(43, 14), F(38, 23), F(4, 14), F(8, 13),
     F(700771, 301108), F(69069, 150554)),
    (F(38, 11), F(40, 17), F(4, 11), F(8, 17), F(1444, 453), F(187, 453)),
    (F(48, 41), F(55, 17), F(6, 13), F(3, 17),
     F(29952, 19505), F(5729, 19505)),
]


def test_criterion_1_hypotheses_pass_on_the_five_tuples():
    worst = 0.0
    for a, b, m, n, alpha, beta in TUPLES:
        params = ThmIParams(a, b, m, n, alpha, beta)
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            report = check_theorem_I_hypotheses(params)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert report.overall, (a, b, m, n)
        assert best < 0.001, f"hypothesis check took {best:.6f}s"
        worst = max(worst, best)
    _announce(1, True,
              f"all 5 tuples pass, slowest check {worst * 1000:.3f} ms")


def _cramer_vertex(a, b, m, n):
    """Independent 2x2 solve of the two tight rows:
    (A+M-1)*x - A^2*(B+N-1)*y = 0  and  (1-M)*x + A*y = A."""
    r11, r12, c1 = a + m - 1, -(a * a) * (b + n - 1), F(0)
    r21, r22, c2 = 1 - m, a, a
    det = r11 * r22 - r12 * r21
    assert det != 0
    return ((c1 * r22 - r12 * c2) / det, (r11 * c2 - c1 * r21) / det)


def test_criterion_2_vertex_recovery_bit_exact():
    for a, b, m, n, alpha, beta in TUPLES:
        got = vertex_alpha_beta(a, b, m, n)
        assert got == (alpha, beta)
        assert _cramer_vertex(a, b, m, n) == (alpha, beta)
        revalidated = check_theorem_I_hypotheses(
            ThmIParams(a, b, m, n, alpha, beta))
        assert revalidated.overall
    _announce(2, True,
              "vertex (alpha, beta) exact on all 5 tuples, "
              "Cramer oracle and hypothesis re-validation agree")


# certificate -> headline contradiction value alpha*w*a + beta*w*b
CERT_VALUES = {
    "wps-11-21-29-37-d95.cert": F(24681, 45704),
    "wps-13-14-23-33-d79.cert": F(66727051, 166211616),
    "wps-11-17-24-31-d79.cert": F(6221, 9664),
    "wps-13-17-27-41-d95.cert": F(306379, 1053270),
    # recomputed from the quoted bounds rather than copied: the quoted
    # total for this surface does not match its own inputs
    "wps-14-17-29-41-d99.cert": F(47571457, 67420360),
}


def test_criterion_3_certificate_contradiction_values():
    for name, expected in CERT_VALUES.items():
        report = run_certificate_file(data_path("certs", name))
        assert report.overall, f"{name}:\n{report.render()}"
        values = [s.value for s in report.steps
                  if s.description == "let value"]
        assert len(values) == 1, name
        assert values[0] == expected, name
        assert values[0] < 1, name
    _announce(3, True,
              "all 5 certificates PASS with the frozen exact values, "
              "each value < 1")


LEDGER_NAMES = [
    "wps-11-21-29-37-d95.ledger",
    "wps-13-14-23-33-d79.ledger",
    "wps-11-17-24-31-d79.ledger",
    "wps-13-17-27-41-d95.ledger",
    "wps-14-17-29-41-d99.ledger",
]


def test_criterion_4_ledger_audit_reproduces_tables():
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        total_checks = 0
        total_entries = 0
        for name in LEDGER_NAMES:
            text = data_path("ledgers", name).read_text()
            ledger = parse_ledger(text)
            report = ledger_consistency(ledger)
            bad = [c.name for c in report.checks if not c.holds]
            assert not bad, f"{name}: {bad}"
            total_checks += len(report.checks)
            total_entries += len(ledger.pairings)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert total_checks == 118
    assert total_entries >= 30

    # spot table entries, exact
    d95 = parse_ledger(
        data_path("ledgers", "wps-11-21-29-37-d95.ledger").read_text())
    assert d95.pairing("D", "L_xt") == F(1, 7 * 29)
    assert d95.pairing("D", "R_x") == F(2, 7 * 37)
    assert d95.pairing("L_xt", "L_xt") == F(-47, 21 * 29)
    d99 = parse_ledger(
        data_path("ledgers", "wps-14-17-29-41-d99.ledger").read_text())
    assert d99.pairing("L_xt", "L_xt") == F(-44, 17 * 29)

    assert best < 0.1, f"ledger audit took {best:.4f}s"
    _announce(4, True,
              f"{total_entries} table entries across 5 ledgers, "
              f"{total_checks} consistency checks hold, "
              f"{best * 1000:.1f} ms")


def test_criterion_5_du_val_bounds_with_oracle():
    cases = [
        (3, [([1, 0, 1], "<=", F(1))], [F(3, 4), F(1), F(3, 4)]),
        (4, [([1, 0, 0, 1], "<=", F(1))],
         [F(4, 5), F(6, 5), F(6, 5), F(4, 5)]),
    ]
    for n, cap, expected in cases:
        got = du_val_coefficient_bounds(an_chain(n), cap)
        assert got == expected
        # vertex-enumeration oracle over the same system
        rows = []
        for j in range(n):
            row = [F(0)] * n
            row[j] = F(2)
            if j > 0:
                row[j - 1] = F(-1)
            if j + 1 < n:
                row[j + 1] = F(-1)
            rows.append((row, ">=", F(0)))
        for j in range(n):
            row = [F(0)] * n
            row[j] = F(1)
            rows.append((row, ">=", F(0)))
        rows.extend(cap)
        for i in range(n):
            obj = [F(0)] * n
            obj[i] = F(1)
            assert brute_max(n, obj, rows) == expected[i]
    _announce(5, True,
              "A3 maxima (3/4, 1, 3/4) and A4 maxima "
              "(4/5, 6/5, 6/5, 4/5), vertex-enumeration oracle agrees")


def _invariants():
    text = data_path("polyid", "icosahedral-invariants.polyid").read_text()
    return parse_polyid(text).polys


def _quoted_f15(f15):
    """The f15 with the four sign slips restored, i.e. exactly the
    circulated table of coefficients."""
    def mono(c, ex, ey, ez):
        return SparsePoly(3, {(ex, ey, ez): F(c)})

    flips = (
        -20 * (mono(1, 1, 12, 2) - mono(1, 1, 2, 12)),
        -2400 * (mono(1, 4, 8, 3) - mono(1, 4, 3, 8)),
        200 * (mono(1, 2, 9, 4) - mono(1, 2, 4, 9)),
        -2 * (mono(1, 0, 15, 0) + mono(1, 0, 10, 5)
              - mono(1, 0, 5, 10) - mono(1, 0, 0, 15)),
    )
    out = f15
    for flip in flips:
        out = out + flip
    return out


def _rhs(p):
    f2, f6, f10 = p["f2"], p["f6"], p["f10"]
    inner = 5 * f6 * f6 - f2 * f10
    return (-1728 * f6 ** 5 + f10 ** 3 + 720 * f2 * f6 ** 3 * f10
            - 80 * f2 ** 2 * f6 * f10 ** 2 + 64 * f2 ** 3 * inner ** 2)


@pytest.mark.xfail(strict=True,
                   reason="the quoted identity raises f15 to the 4th "
                          "power; degree 60 cannot equal the degree-30 "
                          "right side (f15^2 is what holds)")
def test_criterion_6_f15_identity_as_quoted():
    p = _invariants()
    quoted = _quoted_f15(p["f15"])
    result = poly_equal(quoted ** 4, _rhs(p))
    detail = ("holds" if result is None
              else f"differs at exponent {result}")
    _announce(6, result is None, f"f15^4 identity {detail}")


def test_criterion_6_f15_corrected_square_and_witnesses():
    t0 = time.perf_counter()
    p = _invariants()
    rhs = _rhs(p)
    # degrees alone refute the quoted power
    assert weighted_degree_profile(rhs, (1, 1, 1)) == {30}
    assert weighted_degree_profile(p["f15"] ** 4, (1, 1, 1)) == {60}
    # the squared identity holds with the corrected signs
    assert poly_equal(p["f15"] ** 2, rhs) is None
    # and fails with the quoted signs, at a pinned exponent
    quoted = _quoted_f15(p["f15"])
    bad_square = poly_equal(quoted ** 2, rhs)
    assert bad_square == (14, 13, 3)
    bad_fourth = poly_equal(quoted ** 4, rhs)
    assert bad_fourth == (40, 20, 0)
    # the two versions differ in exactly the ten flipped monomials
    assert len((quoted - p["f15"]).terms) == 10
    dt = time.perf_counter() - t0
    assert dt < 10, f"identity work took {dt:.2f}s"
    _announce(6, True,
              f"corrected f15^2 identity exact; quoted signs refuted "
              f"with witnesses; {dt:.2f}s")


def _suite_lemma20(rng, count):
    done = 0
    while done < count:
        a = F(rng.randint(1, 60), rng.randint(1, 12))
        b = F(rng.randint(1, 60), rng.randint(1, 12))
        m = F(rng.randint(0, 11), 12)
        n = F(rng.randint(0, 11), 12)
        try:
            got = vertex_alpha_beta(a, b, m, n)
        except CheckFailed:
            continue
        alpha = got[0] + F(rng.randint(0, 8), 7)
        params = ThmIParams(a, b, m, n, alpha, got[1])
        if not check_theorem_I_hypotheses(params).overall:
            continue
        assert implied_inequalities_lemma20(params).overall
        done += 1
    return done


def _suite_branch_agreement(rng):
    checked = 0
    for _ in range(300):
        eps = F(rng.randint(1, 24), rng.randint(1, 6))
        # mobile bound: the two closed forms cross at a1 = -1/2
        a1 = F(-1, 2)
        bound, _profiles = mobile_bound_thmII(a1, eps)
        assert bound == (1 - 2 * a1) / eps ** 2
        assert bound == -4 * a1 / eps ** 2
        # corti bound: product form meets sum form when a1*a2 = 0
        other = F(rng.randint(-12, 12), rng.randint(1, 6))
        for x, y in ((F(0), other), (other, F(0))):
            value = corti_bound(x, y, eps)
            if x >= 0 or y >= 0:
                assert value == 4 * (1 - x) * (1 - y) / eps ** 2
            assert value == 4 * (1 - x - y) / eps ** 2 \
                or x * y != 0
        checked += 1
    return checked


def _suite_involution(rng, count):
    classes = [
        (F(rng.randint(-50, 50)), F(rng.randint(-50, 50)))
        for _ in range(count)
    ]
    k = (-3, 1)
    assert apply_involution(*k) == k
    for c in classes:
        ci = apply_involution(*c)
        assert apply_involution(*ci) == c
        assert dot(ci, ci) == dot(c, c)
    for c in classes[:60]:
        for d in classes[:60]:
            assert dot(apply_involution(*c), apply_involution(*d)) == \
                dot(c, d)
    return len(classes)


def _suite_untwist(rng):
    fixed = grew = 0
    for i in range(1, 40):
        mu = F(i, 6)
        assert untwist(mu, 1 / mu) == (mu, 1 / mu)
        fixed += 1
    for _ in range(1000):
        mu = F(rng.randint(1, 48), rng.randint(1, 12))
        # any point strictly between the fixed hyperbola mu*mult = 1
        # and the singular one mu*mult = 5/4 must grow
        product = F(100 + rng.randint(1, 24), 100)
        assert untwist(mu, product / mu)[0] > mu
        grew += 1
    return fixed + grew


def _suite_pukhlikov():
    # the quadratic bound always exceeds the linear side on the grid,
    # so no (sigma0, sigma1, c) there can trigger the degeneration
    count = 0
    for s0 in range(1, 101):
        for s1 in range(1, 101):
            for k in range(1, 11):
                c = F(-k, 10)
                assert pukhlikov_bound(s0, s1, c, "without_sigma0") > \
                    F(5, 4) * s0 - 3 * c
                count += 1
    return count


def _suite_lp_oracle(rng, count):
    for _ in range(count):
        n = rng.choice((1, 2, 3))
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(n)]
            rel = "=" if rng.random() < 0.15 else \
                rng.choice(("<=", ">="))
            bound = F(rng.randint(-6, 6), rng.randint(1, 2))
            rows.append((coeffs, rel, bound))
        rows.extend(box(n, 4))
        objective = [F(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(n)]
        best = brute_max(n, objective, rows)
        # the box keeps x >= -4, so y = x + 4 >= 0 cuts nothing off
        result = lp_optimize(LinearProgram(*shifted(n, objective, rows, 4)))
        if best is None:
            assert isinstance(result, Infeasible)
        else:
            assert isinstance(result, Optimal)
            witness = tuple(y - 4 for y in result.witness)
            assert result.value - 4 * sum(objective) == best
            assert satisfies(witness, rows)
            assert witness == brute_lexmax(n, objective, rows)
    return count


def test_criterion_7_property_suites():
    rng = random.Random(20260816)
    t0 = time.perf_counter()
    n_lemma = _suite_lemma20(rng, 10_000)
    n_branch = _suite_branch_agreement(rng)
    n_inv = _suite_involution(rng, 500)
    n_untwist = _suite_untwist(rng)
    n_pukh = _suite_pukhlikov()
    n_lp = _suite_lp_oracle(rng, 200)
    dt = time.perf_counter() - t0
    assert dt < 30, f"property suites took {dt:.1f}s"
    _announce(
        7, True,
        f"lemma consequences on {n_lemma} tuples, branch agreement "
        f"x{n_branch}, involution on {n_inv} classes, untwist on "
        f"{n_untwist} points, degeneration grid {n_pukh} points, "
        f"LP oracle on {n_lp} systems; {dt:.1f}s",
    )


def test_criterion_8_orbit_arithmetic():
    assert superrigidity_orbit_test(5, 6) is True
    assert superrigidity_orbit_test(9, 12) is True
    assert min_orbit_size("A5", "P1").known_orbit_sizes == \
        frozenset({12, 20, 30})
    _announce(8, True,
              "superrigidity tests (5,6) and (9,12) hold; "
              "icosahedral P1 orbits {12, 20, 30}")
