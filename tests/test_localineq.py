import random
import re
from fractions import Fraction as F

import pytest

from lctforge import data_path, localineq
from lctforge.localineq import (
    HypothesisReport,
    ThmIParams,
    check_theorem_I_hypotheses,
    implied_inequalities_lemma20,
    theorem_I_refute,
    vertex_alpha_beta,
    corti_bound,
    mobile_bound_thmII,
    adjunction_refute,
    lct_monomial,
)
from lctforge.syntax import CheckFailed, rationals

# The parameter tuples the shipped certificates run on.  First the
# (2, 3/2) workhorse, then the four weighted-hypersurface tuples, then
# the P(14,17,29,41) one.
TUPLES = [
    (F(2), F(3, 2), F(0), F(0), F(1), F(1, 2)),
    (F(45, 11), F(52, 21), F(3, 11), F(2, 7), F(675, 197), F(77, 197)),
    (F(43, 14), F(38, 23), F(4, 14), F(8, 13),
     F(700771, 301108), F(69069, 150554)),
    (F(38, 11), F(40, 17), F(4, 11), F(8, 17), F(1444, 453), F(187, 453)),
    (F(48, 41), F(55, 17), F(6, 13), F(3, 17),
     F(29952, 19505), F(5729, 19505)),
    (F(53, 14), F(54, 17), F(1, 7), F(4, 17), F(2809, 874), F(119, 437)),
]


@pytest.mark.parametrize("tup", TUPLES)
def test_hypotheses_pass_on_shipped_tuples(tup):
    report = check_theorem_I_hypotheses(ThmIParams(*tup))
    assert report.overall
    assert len(report.checks) == 4
    assert all(c.holds for c in report.checks)


def test_hypotheses_fail_small_A():
    # A*(B-1) = 1/2 < 1
    p = ThmIParams(F(1), F(3, 2), F(0), F(0), F(1), F(1))
    report = check_theorem_I_hypotheses(p)
    assert not report.overall
    assert not report.checks[0].holds


def test_hypotheses_disjunction_second_branch():
    # 2M + AN = 16/5 > 2, so the disjunction must fall through to the
    # alpha/beta combination; pick alpha large enough to rescue it.
    base = dict(A=F(2), B=F(2), M=F(4, 5), N=F(4, 5))
    good = ThmIParams(alpha=F(10), beta=F(10), **base)
    assert 2 * good.M + good.A * good.N > 2
    assert check_theorem_I_hypotheses(good).checks[3].holds
    bad = ThmIParams(alpha=F(1), beta=F(1, 10), **base)
    report = check_theorem_I_hypotheses(bad)
    assert not report.checks[3].holds
    assert not report.overall


def test_negative_parameter_rejected():
    with pytest.raises(ValueError):
        ThmIParams(F(-2), F(3, 2), F(0), F(0), F(1), F(1, 2))


def test_lemma20_needs_admissible_parameters():
    with pytest.raises(ValueError):
        implied_inequalities_lemma20(
            ThmIParams(F(1), F(1), F(0), F(0), F(1), F(1)))


def test_lemma20_random_admissible_tuples():
    """Spot-check of the implication (the acceptance suite runs the
    10^4-tuple version): every admissible tuple satisfies all six
    consequences."""
    rng = random.Random(404)
    made = 0
    while made < 300:
        A = F(rng.randint(1, 60), rng.randint(1, 12))
        B = F(rng.randint(1, 60), rng.randint(1, 12))
        M = F(rng.randint(0, 11), 12)
        N = F(rng.randint(0, 11), 12)
        try:
            alpha, beta = vertex_alpha_beta(A, B, M, N)
        except CheckFailed:
            continue
        alpha += F(rng.randint(0, 8), 7)  # moving alpha up stays admissible
        p = ThmIParams(A, B, M, N, alpha, beta)
        if not check_theorem_I_hypotheses(p).overall:
            continue
        report = implied_inequalities_lemma20(p)
        assert report.overall, p
        assert len(report.checks) == 6
        made += 1


# ------------------------------------------------------------- boundaries

D = F(1, 1000)
_DISJUNCTION = ("2*M+A*N <= 2 or "
                "alpha*(B+1-M*B-N) + beta*(A+1-A*N-M) >= A*B-1")
_LEMMA_ARM = "alpha*(B+1-M*B-N) + beta*(A+1-A*N-M) >= A*B-1"

# (check name, A B M N alpha beta at equality, the parameter moved, the
# step of it that makes the check hold, strict).  At each point the
# moved parameter has coefficient 1 in lhs - rhs, so the two side
# points are lhs - rhs = +1/1000 and -1/1000.
HYPOTHESIS_EDGES = [
    # A*(B-1) = 1 and max(M,N) = M = 1
    ("A*(B-1) >= 1 >= max(M,N)", (1, 2, 1, 0, 1, 1), "B", D, False),
    ("A*(B-1) >= 1 >= max(M,N)", (1, 2, 1, 0, 1, 1), "M", -D, False),
    # 1*(2+0-1) = 4*(3/2+0-1)*(1/2)
    ("alpha*(A+M-1) >= A^2*(B+N-1)*beta", (2, F(3, 2), 0, 0, 1, F(1, 2)),
     "alpha", D, False),
    # 1*(1-0) + 2*(1/2) = 2
    ("alpha*(1-M) + A*beta >= A", (2, F(3, 2), 0, 0, 1, F(1, 2)),
     "alpha", D, False),
    # first arm 2*(1/2) + 1*1 = 2, second arm 0 >= 1 false
    (_DISJUNCTION, (1, 2, F(1, 2), 1, 0, 0), "N", -D, False),
    # first arm 0 + 3*1 = 3 > 2, second arm 0*1 + 2*1 = 2 = 3*1-1
    (_DISJUNCTION, (3, 1, 0, 1, 0, 2), "beta", D, False),
]
LEMMA_EDGES = [
    ("B > 1", (1, 1, 0, 0, 0, 0), "B", D, True),
    ("A+M >= 1", (1, 1, 0, 0, 0, 0), "A", D, False),
    # 1*(2+1-0-2) + 0 = 1 = 1*2-1
    (_LEMMA_ARM, (1, 2, 0, 2, 1, 0), "alpha", D, False),
    # 2*(1-0) + 2*0 = 2
    ("beta*(1-N) + B*alpha >= B", (1, 2, 0, 0, 0, 2), "beta", D, False),
    # 1*(2-0)/(1+1) + 0 = 1
    ("alpha*(2-M)/(A+1) + beta*(2-N)/(B+1) >= 1", (1, 1, 0, 0, 1, 0),
     "alpha", D, False),
    # 0 + 1*(1-0)*(0+1) = 1*(0+1)
    ("alpha*(2-M)*B + beta*(1-N)*(A+1) >= B*(A+1)", (0, 1, 0, 0, 0, 1),
     "beta", D, False),
]


def _holds(report, name):
    [holds] = [c.holds for c in report.checks if c.name == name]
    return holds


def _edge_points(values, moved, step, strict):
    """(params, expected holds) at equality and 1/1000 to either side."""
    p = ThmIParams(*values)
    return [(p, not strict),
            (p._replace(**{moved: getattr(p, moved) + step}), True),
            (p._replace(**{moved: getattr(p, moved) - step}), False)]


@pytest.mark.parametrize("name, values, moved, step, strict",
                         HYPOTHESIS_EDGES)
def test_hypothesis_boundaries(name, values, moved, step, strict):
    for p, expected in _edge_points(values, moved, step, strict):
        assert _holds(check_theorem_I_hypotheses(p), name) is expected, p


@pytest.mark.parametrize("name, values, moved, step, strict", LEMMA_EDGES)
def test_lemma20_boundaries(monkeypatch, name, values, moved, step, strict):
    # the lemma's rows are read on points the hypotheses reject, so its
    # precondition is stubbed to an empty (all-pass) report
    monkeypatch.setattr(localineq, "check_theorem_I_hypotheses",
                        lambda p: HypothesisReport(()))
    for p, expected in _edge_points(values, moved, step, strict):
        assert _holds(implied_inequalities_lemma20(p), name) is expected, p


# ------------------------------------------------------------- refutation

# the tuple the P(1,1,2,3) sextic analysis runs with
SEXTIC_PARAMS = ThmIParams(F(2), F(3, 2), F(0), F(0), F(1), F(1, 2))


def test_refute_at_exact_equality():
    # both pairings sit exactly at their thresholds -> refuted
    assert theorem_I_refute(SEXTIC_PARAMS, F(1, 2), F(2, 3), F(1, 3),
                            F(1, 2)) is None


def test_refute_needs_both_sides():
    with pytest.raises(CheckFailed, match="^inconclusive$"):
        theorem_I_refute(SEXTIC_PARAMS, F(1, 2), F(2, 3),
                         F(1, 3) + F(1, 100), F(1, 2))
    with pytest.raises(CheckFailed, match="^inconclusive$"):
        theorem_I_refute(SEXTIC_PARAMS, F(1, 2), F(2, 3), F(1, 3),
                         F(1, 2) + F(1, 100))


def test_refute_gate():
    with pytest.raises(CheckFailed, match="^not applicable: .*5/4 > 1"):
        theorem_I_refute(SEXTIC_PARAMS, F(1), F(1, 2), F(0), F(0))
    # exactly 1 is allowed
    assert theorem_I_refute(SEXTIC_PARAMS, F(1, 2), F(1), F(0), F(0)) is None


def test_refute_reports_hypothesis_failure():
    bad = ThmIParams(F(1), F(3, 2), F(0), F(0), F(1), F(1, 2))
    with pytest.raises(CheckFailed,
                       match="^not applicable: hypotheses fail"):
        theorem_I_refute(bad, F(0), F(0), F(0), F(0))


def test_refute_negative_coefficient():
    with pytest.raises(ValueError):
        theorem_I_refute(SEXTIC_PARAMS, F(-1, 2), F(0), F(0), F(0))


def test_refute_negative_multiplicity():
    # m1 = -5, m2 = -7 used to refute: a negative pairing is below every
    # threshold
    for m1, m2 in ((F(-5), F(-7)), (F(-1, 3), F(1, 2)), (F(1, 3), F(-1, 2))):
        with pytest.raises(ValueError,
                           match="^m1 and m2 must be nonnegative$"):
            theorem_I_refute(SEXTIC_PARAMS, F(1, 2), F(2, 3), m1, m2)
    # the check on a1 and a2 comes first
    with pytest.raises(ValueError, match="^a1 and a2 must be nonnegative$"):
        theorem_I_refute(SEXTIC_PARAMS, F(-1), F(2, 3), F(-1), F(0))


# ----------------------------------------------------------------- vertex


@pytest.mark.parametrize("tup", TUPLES)
def test_vertex_recovers_shipped_alpha_beta(tup):
    A, B, M, N, alpha, beta = tup
    assert vertex_alpha_beta(A, B, M, N) == (alpha, beta)


def test_vertex_solution_makes_rows_tight():
    A, B, M, N = F(45, 11), F(52, 21), F(3, 11), F(2, 7)
    alpha, beta = vertex_alpha_beta(A, B, M, N)
    assert alpha * (A + M - 1) == A * A * (B + N - 1) * beta
    assert alpha * (1 - M) + A * beta == A


def test_vertex_infeasible_cases():
    with pytest.raises(CheckFailed, match="M < 1"):
        vertex_alpha_beta(F(2), F(3, 2), F(1), F(0))
    with pytest.raises(CheckFailed, match=r"A\+M > 1"):
        vertex_alpha_beta(F(1, 2), F(3, 2), F(1, 4), F(0))
    # vertex exists but the first hypothesis bullet fails there
    with pytest.raises(CheckFailed, match="^hypotheses fail at vertex"):
        vertex_alpha_beta(F(3, 2), F(3, 2), F(0), F(0))
    with pytest.raises(ValueError):
        vertex_alpha_beta(F(-1), F(2), F(0), F(0))


# ----------------------------------------------------------------- bounds


def test_corti_branch_agreement_on_axis():
    # with a1*a2 = 0 the two formulas coincide, so the branch choice
    # cannot matter
    for a in [F(-3), F(-1, 2), F(0), F(1, 3), F(2)]:
        lhs = corti_bound(F(0), a, F(1, 2))
        assert lhs == 4 * (1 - a) / F(1, 4)
        assert corti_bound(a, F(0), F(1, 2)) == lhs


def test_corti_both_negative_uses_sum_form():
    assert corti_bound(F(-1), F(-2), F(1)) == 16
    assert corti_bound(F(1, 2), F(-2), F(1)) == 4 * F(1, 2) * 3


def test_corti_eps_positive():
    with pytest.raises(ValueError):
        corti_bound(F(0), F(0), F(0))


def test_thm2_branch_agreement_at_minus_half():
    for eps in [F(1), F(1, 2), F(3, 7)]:
        bound, _ = mobile_bound_thmII(F(-1, 2), eps)
        assert bound == (1 - 2 * F(-1, 2)) / (eps * eps)
        assert bound == -4 * F(-1, 2) / (eps * eps)


def test_thm2_equality_profiles():
    bound, profiles = mobile_bound_thmII(F(0), F(1, 2))
    assert bound == 4
    assert [p.kind for p in profiles] == ["ZeroCoefficient"]
    assert profiles[0].required_multiplicity == 2

    bound, profiles = mobile_bound_thmII(F(-2), F(1, 2))
    assert bound == 32
    assert [p.kind for p in profiles] == ["NegativeIntegerCoefficient"]
    assert profiles[0].required_multiplicity == 4

    _, profiles = mobile_bound_thmII(F(-1, 2), F(1))
    assert profiles == []


def test_adjunction_refute():
    assert adjunction_refute(F(1), F(5, 4)) is None
    assert adjunction_refute(F(1), F(1)) is None
    with pytest.raises(CheckFailed,
                       match="^inconclusive: pairing 3/2 exceeds 1$"):
        adjunction_refute(F(3, 2), F(1))


def test_lct_monomial():
    assert lct_monomial([2, 3], "diagonal") == F(5, 6)
    assert lct_monomial([1, 1], "diagonal") == 1  # capped at 1
    assert lct_monomial([2, 3], "product") == F(1, 3)
    assert lct_monomial([7], "product") == F(1, 7)
    with pytest.raises(ValueError):
        lct_monomial([], "diagonal")
    with pytest.raises(ValueError):
        lct_monomial([0, 2], "diagonal")
    with pytest.raises(ValueError):
        lct_monomial([2], "cuspidal")
    with pytest.raises(ValueError, match="^exponents must be integers$"):
        lct_monomial([F(5, 2)], "product")


# ------------------------------------------- the Fraction formulas, as before
#
# The module decides every inequality on ints scaled by the least common
# denominator of a call's values.  These are the same four functions as
# they read when each side was a Fraction expression; the integer form
# must give the same checks, values, verdicts and texts.


def _ref_params(*values):
    values = rationals(values, "parameters")
    for name, value in zip(ThmIParams._fields, values):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return values


def _ref_hypotheses(p):
    A, B, M, N, al, be = p
    return [
        ("A*(B-1) >= 1 >= max(M,N)", A * (B - 1) >= 1 >= max(M, N)),
        ("alpha*(A+M-1) >= A^2*(B+N-1)*beta",
         al * (A + M - 1) >= A * A * (B + N - 1) * be),
        ("alpha*(1-M) + A*beta >= A", al * (1 - M) + A * be >= A),
        ("2*M+A*N <= 2 or " + _LEMMA_ARM,
         2 * M + A * N <= 2 or _ref_combined(p)),
    ]


def _ref_combined(p):
    A, B, M, N, al, be = p
    return al * (B + 1 - M * B - N) + be * (A + 1 - A * N - M) >= A * B - 1


def _ref_lemma_rows(p):
    A, B, M, N, al, be = p
    return [
        ("B > 1", B > 1),
        ("A+M >= 1", A + M >= 1),
        (_LEMMA_ARM, _ref_combined(p)),
        ("beta*(1-N) + B*alpha >= B", be * (1 - N) + B * al >= B),
        ("alpha*(2-M)/(A+1) + beta*(2-N)/(B+1) >= 1",
         al * (2 - M) / (A + 1) + be * (2 - N) / (B + 1) >= 1),
        ("alpha*(2-M)*B + beta*(1-N)*(A+1) >= B*(A+1)",
         al * (2 - M) * B + be * (1 - N) * (A + 1) >= B * (A + 1)),
    ]


def _ref_failing(rows):
    return "; ".join(name for name, holds in rows if not holds)


def _ref_lemma20(p):
    if _ref_failing(_ref_hypotheses(p)):
        raise ValueError(
            "implied_inequalities_lemma20 needs parameters that pass "
            "check_theorem_I_hypotheses")
    return _ref_lemma_rows(p)


def _ref_refute(p, a1, a2, m1, m2):
    a1, a2, m1, m2 = rationals((a1, a2, m1, m2), "a1, a2, m1 and m2")
    if a1 < 0 or a2 < 0:
        raise ValueError("a1 and a2 must be nonnegative")
    if m1 < 0 or m2 < 0:
        raise ValueError("m1 and m2 must be nonnegative")
    failing = _ref_failing(_ref_hypotheses(p))
    if failing:
        raise CheckFailed("not applicable: hypotheses fail: " + failing)
    A, B, M, N, alpha, beta = p
    gate = alpha * a1 + beta * a2
    if gate > 1:
        raise CheckFailed(f"not applicable: alpha*a1 + beta*a2 = {gate} > 1")
    if m1 > M + A * a1 - a2 or m2 > N + B * a2 - a1:
        raise CheckFailed("inconclusive")


def _ref_vertex(A, B, M, N):
    A, B, M, N = _ref_params(A, B, M, N, 0, 0)[:4]
    if M >= 1:
        raise CheckFailed(f"need M < 1, got M = {M}")
    if A + M <= 1:
        raise CheckFailed(f"need A+M > 1, got A+M = {A + M}")
    det = (A + M - 1) * A + A * A * (B + N - 1) * (1 - M)
    if det == 0:
        raise CheckFailed("singular 2x2 system (determinant 0)")
    alpha = A ** 3 * (B + N - 1) / det
    beta = A * (A + M - 1) / det
    if alpha < 0 or beta < 0:
        raise CheckFailed(
            f"solution has a negative entry: alpha = {alpha}, beta = {beta}")
    failing = _ref_failing(_ref_hypotheses((A, B, M, N, alpha, beta)))
    if failing:
        raise CheckFailed("hypotheses fail at vertex: " + failing)
    return (alpha, beta)


def _outcome(fn, *args):
    """What fn(*args) gives: its value, a report as its (name, holds)
    rows, or the class and text of what it raises."""
    try:
        value = fn(*args)
    except (ValueError, CheckFailed) as exc:
        return type(exc), str(exc)
    if isinstance(value, HypothesisReport):
        assert all(type(c.holds) is bool for c in value.checks)
        return [tuple(c) for c in value.checks]
    return value


def _same_as_reference(values, refute_args):
    """The module and the reference agree at these values on all four
    functions; returns the refutation's outcome."""
    A, B, M, N = values[:4]
    a1, a2, m1, m2 = refute_args
    assert _outcome(vertex_alpha_beta, A, B, M, N) == _outcome(
        _ref_vertex, A, B, M, N), values
    ref = _outcome(_ref_params, *values)
    if ref[0] is ValueError:
        assert _outcome(ThmIParams, *values) == ref
        return ref
    p = ThmIParams(*values)
    assert tuple(p) == ref
    assert _outcome(check_theorem_I_hypotheses, p) == _ref_hypotheses(ref)
    assert _outcome(implied_inequalities_lemma20, p) == _outcome(
        _ref_lemma20, ref), values
    outcome = _outcome(_ref_refute, ref, a1, a2, m1, m2)
    assert _outcome(theorem_I_refute, p, a1, a2, m1, m2) == outcome, (
        values, a1, a2, m1, m2)
    return outcome


def _draw(rng, digits, top):
    """A rational in [0, top] over a denominator of up to the given
    number of digits, or of at most 6, so that equalities occur; an
    int when it is whole."""
    q = rng.randint(1, 6 if rng.random() < 0.4 else 10 ** digits)
    value = F(rng.randint(0, top * q), q)
    return int(value) if value.denominator == 1 else value


def _nudge(rng, value, digits):
    """value, or value moved by one over a number of the given size."""
    step = rng.choice((0, 0, 1, -1))
    if step and value:
        value = value + F(step, rng.randint(1, 10 ** digits))
    return max(value, 0)


def _seeded_case(rng, digits):
    """(A, B, M, N, alpha, beta) and (a1, a2, m1, m2): at or near the
    vertex for (A, B, M, N) when it has one, and there the gate and the
    multiplicity thresholds at or near equality."""
    A, B = 1 + _draw(rng, digits, 5), 1 + _draw(rng, digits, 3)
    M, N = _draw(rng, digits, 1), _draw(rng, digits, 1)
    if rng.random() < 0.05:  # M = 1, A+M = 1, or B+N < 1
        M, A, B = rng.choice(((1, A, B), (M, 1 - M, B), (M, A, 1 - N)))
    try:
        vertex = vertex_alpha_beta(A, B, M, N)
    except (ValueError, CheckFailed):
        vertex = None
    if vertex is None or rng.random() < 0.1:
        alpha, beta = _draw(rng, digits, 4), _draw(rng, digits, 2)
    else:  # beta moved off the vertex breaks check 2 or 3 at once
        alpha, beta = _nudge(rng, vertex[0], digits), vertex[1]
        if rng.random() < 0.3:
            beta = _nudge(rng, beta, digits)
    if alpha and beta and rng.random() < 0.9:
        a1 = _nudge(rng, F(rng.randint(0, 4), 4) / alpha, digits)
        a2 = _nudge(rng, max(1 - alpha * a1, 0) / beta, digits)
        m1 = _nudge(rng, max(M + A * a1 - a2, 0), digits)
        m2 = _nudge(rng, max(N + B * a2 - a1, 0), digits)
    else:
        a1, a2, m1, m2 = (_draw(rng, digits, 2) for _ in range(4))
    return (A, B, M, N, alpha, beta), (a1, a2, m1, m2)


def test_integer_form_matches_the_fraction_formulas_on_seeded_tuples():
    rng = random.Random(2028)
    sizes = [1] * 12_000 + [2] * 4_000 + [3] * 2_500 + [6] * 1_200
    sizes += [30] * 150 + [100] * 100 + [300] * 50
    refuted = inconclusive = gated = 0
    for digits in sizes:
        outcome = _same_as_reference(*_seeded_case(rng, digits))
        if outcome is None:
            refuted += 1
        elif outcome == (CheckFailed, "inconclusive"):
            inconclusive += 1
        elif outcome[1].startswith("not applicable: alpha*a1"):
            gated += 1
    assert len(sizes) == 20_000
    # the seeded tuples reach every outcome past the hypotheses, not
    # only the early exits (474 / 2,413 / 1,618 of the 4,505 tuples
    # that pass them)
    assert min(refuted, inconclusive, gated) >= 400, (
        refuted, inconclusive, gated)


def test_integer_form_matches_the_fraction_formulas_at_the_edges(
        monkeypatch):
    zero = (0,) * 4
    cases = [
        ((0, 0, 0, 0, 0, 0), zero),
        ((2, F(3, 2), 1, 0, 1, F(1, 2)), zero),  # M = 1
        ((F(3, 4), 2, F(1, 4), 0, 1, 1), zero),  # A+M = 1
        ((2, F(1, 4), 0, F(1, 4), 1, 1), zero),  # B+N < 1 and det = 0
        ((2, 0, 0, 0, 1, 1), zero),  # det < 0 and beta < 0
        ((2, F(3, 2), 0, 0, 1, F(1, 2)), (F(1, 2), F(2, 3), F(1, 3),
                                          F(1, 2))),
    ]
    edges = [(name, p) for name, values, moved, step, strict
             in HYPOTHESIS_EDGES + LEMMA_EDGES
             for p, _ in _edge_points(values, moved, step, strict)]
    cases += [(tuple(p), (F(1, 2), F(1, 3), F(1, 3), F(1, 2)))
              for _, p in edges]
    for values, refute_args in cases:
        _same_as_reference(values, refute_args)
    assert _outcome(vertex_alpha_beta, 2, F(1, 4), 0, F(1, 4)) == (
        CheckFailed, "singular 2x2 system (determinant 0)")
    # Lemma 2.0's rows on points its precondition rejects
    monkeypatch.setattr(localineq, "check_theorem_I_hypotheses",
                        lambda p: HypothesisReport(()))
    for _, p in edges:
        assert _outcome(implied_inequalities_lemma20, p) == _ref_lemma_rows(p)


# ------------------------------------------------------------ sympy oracle

def _vertex_ab_tuples():
    """(A, B, M, N, alpha, beta) of each bundled cert's vertex_ab step."""
    found = []
    for path in sorted(data_path("certs").glob("*.cert")):
        for args in re.findall(r"check vertex_ab\((.*)\)", path.read_text()):
            values = dict(arg.split("=") for arg in args.split(", "))
            found.append(tuple(F(values[name]) for name in ThmIParams._fields))
    return found


def test_sympy_agrees_on_the_vertex_and_every_check(monkeypatch):
    """sympy solves the two tight rows for the five verdictbench tuples
    and the seven bundled vertex_ab steps, and evaluates each check's
    name, as written, in Rationals at the vertex and beside it."""
    sympy = pytest.importorskip("sympy")
    bundled = _vertex_ab_tuples()
    assert len(bundled) == 7
    a, b = sympy.symbols("alpha beta")
    lemma_rows, seen = {}, set()
    for A, B, M, N, alpha, beta in TUPLES[:5] + bundled:
        R = [sympy.Rational(v.numerator, v.denominator) for v in (A, B, M, N)]
        rows = [sympy.Eq(a * (R[0] + R[2] - 1),
                         R[0] ** 2 * (R[1] + R[3] - 1) * b),
                sympy.Eq(a * (1 - R[2]) + R[0] * b, R[0])]
        solved = sympy.solve(rows, [a, b], dict=True)
        assert vertex_alpha_beta(A, B, M, N) == (alpha, beta)
        assert solved == [{a: sympy.Rational(alpha.numerator,
                                             alpha.denominator),
                           b: sympy.Rational(beta.numerator,
                                             beta.denominator)}]
        for scale in (F(1), F(9, 10), F(11, 10)):
            for p in (ThmIParams(A, B, M, N, alpha * scale, beta),
                      ThmIParams(A, B, M, N, alpha, beta * scale)):
                env = {name: sympy.Rational(v.numerator, v.denominator)
                       for name, v in zip(ThmIParams._fields, p)}
                for check in check_theorem_I_hypotheses(p).checks:
                    expr = check.name.replace("^", "**")
                    assert bool(eval(expr, {}, env)) is check.holds, (
                        p, check)
                    seen.add(check.holds)
                lemma_rows[p] = env
    assert seen == {True, False}
    # Lemma 2.0's rows, read also where the hypotheses fail
    monkeypatch.setattr(localineq, "check_theorem_I_hypotheses",
                        lambda p: HypothesisReport(()))
    seen.clear()
    for p, env in lemma_rows.items():
        for check in implied_inequalities_lemma20(p).checks:
            assert bool(eval(check.name, {}, env)) is check.holds, (p, check)
            seen.add(check.holds)
    assert seen == {True, False}
