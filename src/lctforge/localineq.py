"""Local inequality machinery for log canonical threshold arguments.

The centerpiece is a six-parameter family of hypotheses (A, B, M, N,
alpha, beta) under which two multiplicity thresholds M + A*a1 - a2 and
N + B*a2 - a1 control local non-log-canonicity at a smooth point.  This
module checks the hypotheses exactly, derives the standard consequences,
solves for the (alpha, beta) vertex used in applications, and evaluates
the classical multiplicity bounds that accompany these arguments.  The
first three and the refutation decide on ints over one common
denominator D of a call's values, each inequality multiplied through by
a power of D; past about 100 digits per denominator that is slower.

The hypotheses and the consequences of Lemma 2.0 come back as a
``HypothesisReport``: a tuple of ``Check(name, holds)``, the name the
inequality as written and holds its exact verdict, in a fixed order.

A verdict is a return value when the claim holds and ``CheckFailed``
with the reason when it does not: ``theorem_I_refute`` and
``adjunction_refute`` return None once the center is refuted, and
``vertex_alpha_beta`` returns (alpha, beta).
"""

from fractions import Fraction
from math import lcm

from .record import record
from .syntax import CheckFailed, integers, rationals


class ThmIParams(record("ThmIParams", "A B M N alpha beta")):
    __slots__ = ()

    def __new__(cls, A, B, M, N, alpha, beta):
        values = rationals((A, B, M, N, alpha, beta), "parameters")
        for name, value in zip(cls._fields, values):
            if value.numerator < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        return super().__new__(cls, *values)


Check = record("Check", "name holds")


class HypothesisReport(record("HypothesisReport", "checks")):
    __slots__ = ()

    @property
    def overall(self):
        """True when every check holds."""
        return all(c.holds for c in self.checks)

    @property
    def failing(self):
        """The names of the checks that do not hold, joined by '; '."""
        return "; ".join(c.name for c in self.checks if not c.holds)


# ---------------------------------------------------------------- hypotheses


def _scaled(values):
    """D, the least common denominator of values, and each value times D."""
    D = lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


_COMBINED = "alpha*(B+1-M*B-N) + beta*(A+1-A*N-M) >= A*B-1"


def _combined(D, a, b, m, n, al, be):
    """Whether the values times D satisfy _COMBINED, times D^3."""
    return (al * (b * D + D * D - m * b - n * D)
            + be * (a * D + D * D - a * n - m * D) >= (a * b - D * D) * D)


def check_theorem_I_hypotheses(p):
    """The four hypothesis bullets, with the disjunction as one check."""
    D, (a, b, m, n, al, be) = _scaled(p)
    return HypothesisReport((
        Check("A*(B-1) >= 1 >= max(M,N)",
              a * (b - D) >= D * D >= D * max(m, n)),
        Check("alpha*(A+M-1) >= A^2*(B+N-1)*beta",
              al * (a + m - D) * D * D >= a * a * (b + n - D) * be),
        Check("alpha*(1-M) + A*beta >= A", al * (D - m) + a * be >= a * D),
        Check("2*M+A*N <= 2 or " + _COMBINED, 2 * m * D + a * n <= 2 * D * D
              or _combined(D, a, b, m, n, al, be)),
    ))


def implied_inequalities_lemma20(p):
    """Six consequences of the hypothesis set.

    All of them must hold whenever check_theorem_I_hypotheses passes;
    a false entry in the returned report is a genuine violation of the
    lemma, not a property of the input.
    """
    if not check_theorem_I_hypotheses(p).overall:
        raise ValueError(
            "implied_inequalities_lemma20 needs parameters that pass "
            "check_theorem_I_hypotheses"
        )
    D, (a, b, m, n, al, be) = _scaled(p)
    return HypothesisReport((
        Check("B > 1", b > D),
        Check("A+M >= 1", a + m >= D),
        Check(_COMBINED, _combined(D, a, b, m, n, al, be)),
        Check("beta*(1-N) + B*alpha >= B", be * (D - n) + b * al >= b * D),
        Check("alpha*(2-M)/(A+1) + beta*(2-N)/(B+1) >= 1",  # times (A+1)(B+1)
              al * (2 * D - m) * (b + D) + be * (2 * D - n) * (a + D)
              >= (a + D) * (b + D) * D),
        Check("alpha*(2-M)*B + beta*(1-N)*(A+1) >= B*(A+1)",
              al * (2 * D - m) * b + be * (D - n) * (a + D)
              >= b * (a + D) * D),
    ))


# ---------------------------------------------------------------- verdicts


def theorem_I_refute(p, a1, a2, m1, m2):
    """Test whether both multiplicity conclusions fail, i.e. whether a
    hypothetical non-log-canonical center at the smooth point is refuted.

    a1, a2 are the boundary coefficients along the two curves; m1, m2
    are the exact local pairing values a certificate asserts for
    mult(D.curve1) and mult(D.curve2).  Returns None when the center
    is refuted; raises CheckFailed("not applicable: <reason>") when the
    hypotheses or the gate alpha*a1 + beta*a2 <= 1 fail, and
    CheckFailed("inconclusive") otherwise.
    """
    a1, a2, m1, m2 = rationals((a1, a2, m1, m2), "a1, a2, m1 and m2")
    if a1.numerator < 0 or a2.numerator < 0:
        raise ValueError("a1 and a2 must be nonnegative")
    if m1.numerator < 0 or m2.numerator < 0:
        raise ValueError("m1 and m2 must be nonnegative")
    report = check_theorem_I_hypotheses(p)
    if not report.overall:
        raise CheckFailed("not applicable: hypotheses fail: "
                          + report.failing)
    D, (a, b, m, n, al, be, x1, x2, y1, y2) = _scaled((*p, a1, a2, m1, m2))
    gate = al * x1 + be * x2
    if gate > D * D:
        raise CheckFailed(
            f"not applicable: alpha*a1 + beta*a2 = {Fraction(gate, D * D)} > 1"
        )
    if y1 * D > m * D + a * x1 - x2 * D or y2 * D > n * D + b * x2 - x1 * D:
        raise CheckFailed("inconclusive")


def vertex_alpha_beta(A, B, M, N):
    """Solve for (alpha, beta) making hypothesis checks 2 and 3 exact
    equalities, then validate the full hypothesis set.

    Returns (alpha, beta); raises CheckFailed(reason) when there is no
    such vertex.
    """
    A, B, M, N = ThmIParams(A, B, M, N, 0, 0)[:4]  # checks the signs
    D, (a, b, m, n) = _scaled((A, B, M, N))
    if m >= D:
        raise CheckFailed(f"need M < 1, got M = {M}")
    if a + m <= D:
        raise CheckFailed(f"need A+M > 1, got A+M = {A + M}")
    # alpha*(A+M-1) - A^2*(B+N-1)*beta = 0
    # alpha*(1-M)   + A*beta           = A, det and numerators times D^4
    det = (a + m - D) * a * D * D + a * a * (b + n - D) * (D - m)
    if det == 0:
        raise CheckFailed("singular 2x2 system (determinant 0)")
    alpha = Fraction(a ** 3 * (b + n - D), det)
    beta = Fraction(a * (a + m - D) * D * D, det)
    if alpha.numerator < 0 or beta.numerator < 0:
        raise CheckFailed(
            f"solution has a negative entry: alpha = {alpha}, beta = {beta}"
        )
    report = check_theorem_I_hypotheses(ThmIParams(A, B, M, N, alpha, beta))
    if not report.overall:
        raise CheckFailed("hypotheses fail at vertex: " + report.failing)
    return (alpha, beta)


# ---------------------------------------------------------------- bounds


def corti_bound(a1, a2, eps):
    """Multiplicity bound for a mobile-times-mobile local intersection."""
    a1, a2, eps = rationals((a1, a2, eps), "a1, a2 and eps")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a1 >= 0 or a2 >= 0:
        return 4 * (1 - a1) * (1 - a2) / (eps * eps)
    return 4 * (1 - a1 - a2) / (eps * eps)


EqualityProfile = record("EqualityProfile", "kind required_multiplicity")


def mobile_bound_thmII(a1, eps):
    """Mobile self-intersection bound, plus the equality profiles.

    The profiles describe the only two shapes an equality case can
    take; they are returned for inspection, never asserted.
    """
    a1, eps = rationals((a1, eps), "a1 and eps")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a1 >= Fraction(-1, 2):
        bound = (1 - 2 * a1) / (eps * eps)
    else:
        bound = -4 * a1 / (eps * eps)
    profiles = []
    if a1 < 0 and a1.denominator == 1:
        profiles.append(
            EqualityProfile("NegativeIntegerCoefficient", 2 / eps)
        )
    if a1 == 0:
        profiles.append(EqualityProfile("ZeroCoefficient", 1 / eps))
    return (bound, profiles)


def adjunction_refute(pairing, threshold):
    """Adjunction forces pairing > threshold at a non-log-canonical
    center on the curve.  Returns None (refuted) when that strict
    inequality fails; raises CheckFailed("inconclusive: ...") when it
    holds."""
    pairing, threshold = rationals((pairing, threshold),
                                   "pairing and threshold")
    if pairing > threshold:
        raise CheckFailed(
            f"inconclusive: pairing {pairing} exceeds {threshold}")


def lct_monomial(exponents, form):
    """Log canonical threshold of a diagonal form or a monomial product."""
    exps = integers(exponents, "exponents")
    if not exps:
        raise ValueError("need at least one exponent")
    if any(m <= 0 for m in exps):
        raise ValueError("exponents must be positive integers")
    if form == "diagonal":
        return min(Fraction(1), sum(Fraction(1, m) for m in exps))
    if form == "product":
        return min(Fraction(1, m) for m in exps)
    raise ValueError(f"unknown form {form!r} (want 'diagonal' or 'product')")
