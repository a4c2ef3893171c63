"""A_n resolution chains and the arithmetic that lives on them.

A chain is n (-2)-curves E_1..E_n meeting consecutively, and it is
held as its length n: an_chain(n) checks n >= 1, and every reader
validates its chain through it.  On top of it:
the nonnegativity systems 2a_j - (neighbors) >= 0 bounding strict
transform coefficients, the coefficient formula along a tower of smooth
blow-ups, and exact pairing of classes pi*(-k K) + sum e_i E_i.
"""

from fractions import Fraction
import itertools

from .linprog import Infeasible, LinearProgram, Optimal, lp_optimize
from .record import record
from .syntax import CheckFailed, rationals


def an_chain(n):
    """The A_n chain of n (-2)-curves E_1..E_n, E_i.E_{i+1} = 1 and
    every other pair 0, as its length n; n < 1 is a ValueError."""
    if n < 1:
        raise ValueError("chain length must be at least 1")
    return n


def du_val_coefficient_bounds(chain, extra=()):
    """Exact per-variable maxima of a_1..a_n, n = chain, subject to the
    chain inequalities 2a_j - a_{j-1} - a_{j+1} >= 0 and extra rows;
    every a_j is nonnegative, as every LinearProgram variable is.

    Raises CheckFailed when the system is infeasible and ValueError
    when some a_i is unbounded above."""
    n = an_chain(chain)
    # the rows -E_j.(sum a_i E_i) >= 0, built after the size check
    lp = LinearProgram(n, [0] * n, itertools.chain(
        (([2 if k == j else -1 if abs(k - j) == 1 else 0
           for k in range(n)], ">=", 0) for j in range(n)), extra))
    maxima = []
    for i in range(n):
        result = lp_optimize(lp.maximizing([0] * i + [1] + [0] * (n - i - 1)))
        if isinstance(result, Infeasible):
            raise CheckFailed("constraint system is infeasible")
        if not isinstance(result, Optimal):
            raise ValueError(
                f"a_{i + 1} is unbounded above; add a cap constraint"
            )
        maxima.append(result.value)
    return maxima


class TowerInput(record("TowerInput", "a1 a2 m")):
    __slots__ = ()

    def __new__(cls, a1, a2, m):
        a1, a2, *ms = rationals((a1, a2, *m), "a1, a2 and m")
        if any(v < 0 for v in ms):
            raise ValueError("multiplicities must be nonnegative")
        return super().__new__(cls, a1, a2, tuple(ms))


def tower_coefficients(t, n):
    """Exceptional coefficients along a tower of n blow-ups.

    Entry i (1-based) is a1 + i*a2 - i + m_0 + ... + m_{i-1}, paired
    with a flag recording whether it lies in [0, 1].
    """
    if n < 1:
        raise ValueError("need at least one blow-up")
    if len(t.m) < n:
        raise ValueError(
            f"need {n} multiplicities, got {len(t.m)}"
        )
    out = []
    acc = Fraction(0)
    for i in range(1, n + 1):
        acc += t.m[i - 1]
        coeff = t.a1 + i * t.a2 - i + acc
        out.append((coeff, Fraction(0) <= coeff <= Fraction(1)))
    return out


class ResClass(record("ResClass", "k ksq e")):
    """pi*(-k K) + sum e_i E_i on a resolution with ambient K^2 = ksq."""

    __slots__ = ()

    def __new__(cls, k, ksq, e):
        k, ksq, *e = rationals((k, ksq, *e), "k, ksq and e")
        return super().__new__(cls, k, ksq, tuple(e))


def resolution_pairing(c1, c2, chain):
    """Exact pairing on A_n, n = chain: pullbacks meet nothing
    exceptional, so the value is k1*k2*K^2 plus the chain form on the
    exceptional coefficients, summed along its diagonal and
    off-diagonal in one pass."""
    n = an_chain(chain)
    if len(c1.e) != n or len(c2.e) != n:
        raise ValueError(
            f"class lengths {len(c1.e)}, {len(c2.e)} do not match A_{n}"
        )
    if c1.ksq != c2.ksq:
        raise ValueError("classes carry different ambient K^2 values")
    e1, e2 = c1.e, c2.e
    total = c1.k * c2.k * c1.ksq - 2 * sum(a * b for a, b in zip(e1, e2))
    for i in range(n - 1):
        total += e1[i] * e2[i + 1] + e1[i + 1] * e2[i]
    return total
