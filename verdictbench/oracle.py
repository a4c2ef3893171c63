"""Known answers for the verdict benchmark, computed without lctforge.

Every expected value the benchmark checks comes from here: a closed
form, a value frozen in tests/test_acceptance.py (copied, so that the
benchmark does not import the test suite), or a small independent
computation over ``fractions.Fraction``.
"""

from fractions import Fraction as F


def rat(x):
    """Render a rational as the certificate language writes it."""
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


# (A, B, M, N, alpha, beta): the five pinned local-inequality tuples,
# alpha/beta at the feasible-region vertex (tests/test_acceptance.py).
TUPLES = [
    (F(2), F(3, 2), F(0), F(0), F(1), F(1, 2)),
    (F(45, 11), F(52, 21), F(3, 11), F(2, 7), F(675, 197), F(77, 197)),
    (F(43, 14), F(38, 23), F(4, 14), F(8, 13),
     F(700771, 301108), F(69069, 150554)),
    (F(38, 11), F(40, 17), F(4, 11), F(8, 17), F(1444, 453), F(187, 453)),
    (F(48, 41), F(55, 17), F(6, 13), F(3, 17),
     F(29952, 19505), F(5729, 19505)),
]

# Bundled certificate -> value of its `let value` step
# (tests/test_acceptance.py, criterion 3).
CERT_VALUES = {
    "wps-11-21-29-37-d95.cert": F(24681, 45704),
    "wps-13-14-23-33-d79.cert": F(66727051, 166211616),
    "wps-11-17-24-31-d79.cert": F(6221, 9664),
    "wps-13-17-27-41-d95.cert": F(306379, 1053270),
    "wps-14-17-29-41-d99.cert": F(47571457, 67420360),
}

LEDGERS = [
    "wps-11-21-29-37-d95.ledger",
    "wps-13-14-23-33-d79.ledger",
    "wps-11-17-24-31-d79.ledger",
    "wps-13-17-27-41-d95.ledger",
    "wps-14-17-29-41-d99.ledger",
]

# Graded-lex leading exponent of (quoted f15)^k - RHS of the degree-30
# relation (tests/test_acceptance.py, criterion 6).
QUOTED_WITNESS = {2: (14, 13, 3), 4: (40, 20, 0)}

# f15 as the widely circulated table quotes it: the bundled f15 with
# its four documented sign slips put back.
QUOTED_F15 = (
    "x*(y^10 - z^10)*(352*x^4 - 160*x^2*y*z - 10*y^2*z^2)"
    " + (y^5 - z^5)*(3840*x^8*y*z - 1024*x^10)"
    " - (y^5 - z^5)*(3840*x^6*y^2*z^2 + 1200*x^4*y^3*z^3"
    " - 100*x^2*y^4*z^4 + (y^10 + z^10 + 2*y^5*z^5))"
)

# Right-hand side of the degree-30 relation, in the bundled names.
RELATION_RHS = ("-1728*f6^5 + f10^3 + 720*f2*f6^3*f10"
                " - 80*f2^2*f6*f10^2 + 64*f2^3*inner^2")


def duval_maxima(n, c):
    """Per-coefficient maxima on the A_n chain under a1 + an <= c.

    The rows 2a_j - a_{j-1} - a_{j+1} >= 0 make a_0 = 0, a_1, ..., a_n,
    a_{n+1} = 0 concave, so a_i <= i*a_1 and a_i <= (n+1-i)*a_n; adding
    a_i/i + a_i/(n+1-i) <= a_1 + a_n <= c gives the bound, and the tent
    peaked at i attains it.  None when c < 0 (the system is empty).
    """
    c = F(c)
    if c < 0:
        return None
    return [c * i * (n + 1 - i) / (n + 1) for i in range(1, n + 1)]


def cramer_vertex(a, b, m, n):
    """Independent 2x2 solve of the two tight rows
    (A+M-1)*x - A^2*(B+N-1)*y = 0  and  (1-M)*x + A*y = A."""
    r11, r12 = a + m - 1, -(a * a) * (b + n - 1)
    r21, r22, c2 = 1 - m, a, a
    det = r11 * r22 - r12 * r21
    return (-r12 * c2 / det, r11 * c2 / det)


def involution_image(h, e):
    """H -> 5H - 2E, E -> 12H - 5E on span(H, E1+...+E6)."""
    return (5 * h + 12 * e, -(2 * h + 5 * e))


def untwist_image(mu, mult):
    """(mu', mult') = (3 / (15/mu - 12*mult), 6/mu - 5*mult)."""
    return (3 / (15 / F(mu) - 12 * F(mult)), 6 / F(mu) - 5 * F(mult))
