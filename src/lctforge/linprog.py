"""Exact linear programming over the rationals.

Small dense simplex with Bland's rule, meant for the tiny systems that
show up in du Val coefficient bounds and case analyses (a handful of
variables, a handful of rows).  It always maximizes; to minimize c.x,
maximize -c.x and negate the value.  Every variable is nonnegative
(standard form): a program that needs a free variable writes it as two
columns, x = u - v.  All arithmetic is Fraction arithmetic, so results
are exact and deterministic.  The tableau may hold at most
MAX_TABLEAU_ENTRIES entries (rows times columns, with a row for each
objective of the lexicographic pass below); a larger program is refused
with an ``LctforgeError`` before the tableau is built.  The limit bounds
size, not time (see MAX_TABLEAU_ENTRIES).  A tableau over n variables is
at least (n + 1)^2, so ``LinearProgram`` refuses n >= 90 before it reads
a row.

``LinearProgram`` signs each row once, to a nonnegative right-hand side,
and a ``>=`` row with a zero one is written as ``<=``, so its slack
starts in the basis; ``maximizing`` reads only a new objective.  Phase 1
runs only when some row still needs an artificial variable.  The last
row of the tableau is the reduced-cost row; every pivot updates it too.

When the optimal face is not a single point, ``lp_optimize`` returns the
lexicographically smallest optimizer, found in one pass on the optimal
tableau (Isermann 1982): columns with a nonzero reduced cost are fixed
at zero, which keeps every later pivot on the optimal face, then -x_1,
..., -x_n are maximized in turn, each step fixing the columns its own
reduced-cost row leaves nonzero.  Each step is bounded, since x_i >= 0,
so the witness of every bounded program is canonical: it does not
depend on the order of the rows.

Work that is skipped, with the same pivots and results: the objective
-x_k is priced out by copying x_k's row with entry k zeroed; a
nonbasic x_k is already at 0, its least value, so its step only fixes
its column; and once no nonbasic column is left free, no pivot can
move the vertex and the pass stops.  A pivot sets the pivot column of
the other rows to 0 without computing it, does not divide a pivot row
whose pivot is already 1, and builds each entry it updates, x - f*p,
and each entry x / piv of a row it divides, as one Fraction from ints
rather than a product and a difference, or a quotient.  That
construction runs one gcd of the full size, where the operations
reduced smaller parts: about twice as fast on the small entries of the
du Val and bundled programs, it is slower past about 30 digits (20
dense rows of 300-digit integers over 8 variables take 1.3-1.6 s,
against 1.0 s).  Bland's rule decides from ints and builds no
Fraction: a column enters when its reduced cost has a positive
numerator, and the ratio test compares rhs / a by cross-multiplying
numerators and denominators, so it picks the same pivots.
"""

from fractions import Fraction

from .record import record
from .syntax import LctforgeError, rationals

RELATIONS = ("<=", ">=", "=")
_FLIP = {"<=": ">=", ">=": "<=", "=": "="}
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)
# Largest tableau lp_optimize builds, in entries: its rows times its
# columns (variables, slacks, artificials and the right-hand side).
# The rows are the constraints, the objective, and one more per
# variable for the objectives of the lexicographic pass, which cost as
# much as rows: one row over 500 variables (2 x 502 without those
# objectives) takes 500 pivots, 0.3-0.6 s with the limit raised.
# The A32 du Val system with a cap row (66 x 66) fits.  Time is not
# bounded: Klee-Minty programs fit up to n = 44, at about 1.6 times the
# pivots per variable (1,219, 0.06-0.12 s at n = 14); see ROADMAP
# item 6, the work meter.  Times are in process on a 2-vCPU Xeon.
MAX_TABLEAU_ENTRIES = 1 << 13


class LinearProgram(record("LinearProgram", "n_vars objective constraints")):
    """max of a linear objective subject to linear rows.

    constraints is an iterable of (coeffs, relation, bound) triples
    with relation one of '<=', '>=', '='.  Every variable is
    nonnegative; no other bound is implied.  Rows are stored signed,
    as Fractions read by ``syntax.rationals``.
    """

    __slots__ = ()

    def __new__(cls, n_vars, objective, constraints):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        # the objective is read by maximizing, on a program with no rows
        lp = super().__new__(cls, n_vars, (), ()).maximizing(objective)
        if (n_vars + 1) ** 2 > MAX_TABLEAU_ENTRIES:
            raise LctforgeError(
                f"LP over {n_vars} variables exceeds the tableau limit "
                f"of {MAX_TABLEAU_ENTRIES} entries")
        rows = []
        for k, (coeffs, rel, bound) in enumerate(constraints):
            coeffs = rationals(coeffs, "coefficients")
            if len(coeffs) != n_vars:
                raise ValueError(
                    f"constraint {k} has {len(coeffs)} coefficients, expected {n_vars}"
                )
            if rel not in RELATIONS:
                raise ValueError(f"constraint {k}: unknown relation {rel!r}")
            bound, = rationals((bound,), "bounds")
            if bound.numerator < 0 or (not bound and rel == ">="):
                coeffs = tuple(-c if c else c for c in coeffs)
                rel, bound = _FLIP[rel], -bound
            rows.append((coeffs, rel, bound))
        return super().__new__(cls, n_vars, lp.objective, tuple(rows))

    def maximizing(self, objective):
        """This program, with objective read as the constructor reads it."""
        n, objective = self.n_vars, rationals(objective, "objective")
        if len(objective) != n:
            raise ValueError(
                f"objective has {len(objective)} coefficients, expected {n}")
        return super().__new__(type(self), n, objective, self.constraints)


Optimal = record("Optimal", "value witness")


class _NoOptimum:
    """A result with no fields: true, and equal to any result of its
    own class."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return f"{type(self).__name__}()"


class Infeasible(_NoOptimum):
    __slots__ = ()


class Unbounded(_NoOptimum):
    __slots__ = ()


def _pivot(rows, basis, r, col):
    """Pivot on rows[r][col]; rows past len(basis) are objective rows."""
    prow = rows[r]
    piv = prow[col]
    if piv != 1:
        vn, vd = piv.denominator, piv.numerator
        prow = rows[r] = [Fraction(x.numerator * vn, x.denominator * vd)
                          if x else x for x in prow]
    nonzero = [(j, x.numerator, x.denominator)
               for j, x in enumerate(prow) if x and j != col]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            # row[j] - f * prow[j] as one Fraction built from ints
            fn, fd = f.numerator, f.denominator
            for j, pn, pd in nonzero:
                x = row[j]
                xd = x.denominator
                row[j] = Fraction(x.numerator * fd * pd - fn * pn * xd,
                                  xd * fd * pd)
            row[col] = _ZERO
    basis[r] = col


def _simplex(rows, basis, allowed):
    """Maximize the objective row rows[-1] in place by Bland's rule,
    entering only the columns in allowed (ascending).  Returns False
    when the objective is unbounded."""
    while True:
        z = rows[-1]
        col = next((j for j in allowed if z[j].numerator > 0), None)
        if col is None:
            return True
        # least rhs / a over a > 0 as ints n / d (d > 0) cross-multiplied,
        # from rn / rd = 1 / 0; a tie goes to the least basis index
        leave, rn, rd = -1, 1, 0
        for i, b in enumerate(basis):
            a = rows[i][col]
            if a.numerator > 0:
                rhs = rows[i][-1]
                n = rhs.numerator * a.denominator
                d = rhs.denominator * a.numerator
                s = n * rd - rn * d
                if s < 0 or (not s and b < basis[leave]):
                    leave, rn, rd = i, n, d
        if leave < 0:
            return False
        _pivot(rows, basis, leave, col)


def lp_optimize(lp):
    """Solve lp exactly.  Returns Optimal, Infeasible, or Unbounded."""
    n, cons = lp.n_vars, lp.constraints
    # columns: x_0..x_{n-1}, one slack or surplus per inequality, then
    # artificials
    n_art = sum(rel != "<=" for _, rel, _ in cons)
    slack = n
    art = first_art = slack + sum(rel != "=" for _, rel, _ in cons)
    width = first_art + n_art + 1
    if (len(cons) + 1 + n) * width > MAX_TABLEAU_ENTRIES:
        raise LctforgeError(
            f"LP tableau of {len(cons) + 1 + n} rows x {width} columns "
            f"exceeds the limit of {MAX_TABLEAU_ENTRIES} entries"
        )
    padding = [_ZERO] * (width - n)
    rows, basis = [], []
    # phase 1 maximizes -(sum of artificials), priced out over the rows
    # whose artificial starts in the basis
    phase1 = [_ZERO] * width
    for coeffs, rel, bound in cons:
        line = [*coeffs, *padding]
        line[-1] = bound
        if rel != "=":
            line[slack] = _ONE if rel == "<=" else _MINUS_ONE
            if rel == "<=":
                basis.append(slack)
            slack += 1
        if rel != "<=":
            phase1 = [p + x for p, x in zip(phase1, line)]
            line[art] = _ONE
            basis.append(art)
            art += 1
        rows.append(line)
    rows.append([*lp.objective, *padding])
    real = range(first_art)
    if n_art:
        rows.append(phase1)
        _simplex(rows, basis, real)
        rows.pop()
        if any(rows[i][-1] for i, b in enumerate(basis) if b >= first_art):
            return Infeasible()
        # drive zero-level artificials out of the basis; a row with no
        # other nonzero entry is redundant and goes
        for i in reversed(range(len(basis))):
            if basis[i] >= first_art:
                col = next((j for j in real if rows[i][j]), None)
                if col is None:
                    del rows[i], basis[i]
                else:
                    _pivot(rows, basis, i, col)
    if not _simplex(rows, basis, real):
        return Unbounded()
    allowed = list(real)
    for k in range(n):
        allowed = [j for j in allowed if not rows[-1][j]]
        if set(allowed) <= set(basis):
            break  # no nonbasic column is free, so the vertex is fixed
        if k in basis:
            # the objective -x_k priced out: x_k's row with entry k
            # zeroed
            z = rows[basis.index(k)].copy()
            z[k] = _ZERO
            rows[-1] = z
            _simplex(rows, basis, allowed)
        else:
            # x_k is nonbasic, so at 0, its least value: fix its column
            allowed = [j for j in allowed if j != k]
    point = [_ZERO] * width
    for i, b in enumerate(basis):
        point[b] = rows[i][-1]
    witness = tuple(point[:n])
    value = sum((c * w for c, w in zip(lp.objective, witness) if c and w),
                _ZERO)
    return Optimal(value, witness)
