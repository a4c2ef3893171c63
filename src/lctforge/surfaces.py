"""Intersection ledgers for quasismooth hypersurfaces in weighted P^3.

A surface is P(a0,a1,a2,a3) cut by a quasihomogeneous polynomial of
degree d; its anticanonical class is O(I) with amplitude I = sum - d.
The curves that matter here come in two shapes: quasilines (two
coordinates vanish) and coordinate cuts (one coordinate vanishes plus a
residual equation of known weighted degree).  A SurfaceLedger records
the published intersection table for one surface — pairings, self
intersections, decompositions of coordinate curves, orbifold points —
and ledger_consistency re-derives every number in it from scratch.

Coordinates are always named x, y, z, t in weight order.
"""

from fractions import Fraction
from math import lcm, prod
import re

from .localineq import HypothesisReport
from .record import record
from .syntax import (Cursor, LctforgeError, ParseError, integers,
                     logical_lines)

COORDS = "xyzt"


# ---------------------------------------------------------------- surfaces


def amplitude(weights, degree):
    """Sum of weights minus degree.  May be <= 0 (non-Fano)."""
    weights = integers(weights, "weights")
    [degree] = integers([degree], "weights and degree")
    if any(a <= 0 for a in weights) or degree <= 0:
        raise ValueError("weights and degree must be positive")
    return sum(weights) - degree


class WeightedSurface(record("WeightedSurface", "weights degree")):
    __slots__ = ()

    def __new__(cls, weights, degree):
        weights = integers(weights, "weights")
        if len(weights) != 4:
            raise ValueError(f"need 4 weights, got {len(weights)}")
        degree = sum(weights) - amplitude(weights, degree)  # checks degree
        return super().__new__(cls, weights, degree)

    @property
    def amplitude(self):
        return sum(self.weights) - self.degree


# ------------------------------------------------------------------ curves


class QuasiLine(record("QuasiLine", "i j")):
    __slots__ = ()

    def __new__(cls, i, j):
        if not (0 <= i < 4 and 0 <= j < 4):
            raise ValueError("coordinate index out of range")
        if i == j:
            raise ValueError("quasiline needs two distinct coordinates")
        return super().__new__(cls, i, j)


class CoordCut(record("CoordCut", "i e")):
    __slots__ = ()

    def __new__(cls, i, e):
        if not 0 <= i < 4:
            raise ValueError("coordinate index out of range")
        if e <= 0:
            raise ValueError("residual degree must be positive")
        return super().__new__(cls, i, e)


def anticanonical_pairing(surface, c):
    """Pairing of the anticanonical divisor O(I), I the amplitude, with
    the curve c, as ints (numerator, denominator) not in lowest terms;
    an error on a non-Fano surface."""
    m = surface.amplitude
    if m <= 0:
        raise ValueError(f"amplitude {m} is not positive")
    w = surface.weights
    if isinstance(c, QuasiLine):
        k, l = (a for a in range(4) if a not in (c.i, c.j))
        return m, w[k] * w[l]
    if isinstance(c, CoordCut):
        j, k, l = (a for a in range(4) if a != c.i)
        return m * c.e, w[j] * w[k] * w[l]
    raise ValueError(f"unknown curve descriptor {c!r}")


# ------------------------------------------------------------------ ledger


# on: ((curve name, local multiplicity), ...)
SingularPoint = record("SingularPoint", "name index local_type on")
# one re-derived table entry: `lctforge ledger` shows lhs relation rhs
LedgerCheck = record("LedgerCheck", "name lhs relation rhs holds")


# curves: name -> QuasiLine | CoordCut; decompositions: coordinate
# index -> component names; pairings: the sorted pair of names -> value,
# ("D", "L") for D.L, ("L", "L") for L^2, ("L", "R") for L.R;
# singular_points: name -> SingularPoint, in file order.  parse_ledger
# checks every name and pair once, so the record takes them as given.
class SurfaceLedger(record("SurfaceLedger", "surface curves decompositions "
                           "pairings singular_points")):
    __slots__ = ()

    def pairing(self, a, b):
        """The one read of a table number: D.C with a or b the name
        "D", C^2 when a == b, else C.C' with the structural zero 0 for
        disjoint quasilines; None when the table lacks it."""
        value = self.pairings.get((a, b) if a <= b else (b, a))
        if value is None:
            ca, cb = self.curves.get(a), self.curves.get(b)
            if (isinstance(ca, QuasiLine) and isinstance(cb, QuasiLine)
                    and {ca.i, ca.j, cb.i, cb.j} == {0, 1, 2, 3}):
                value = 0
        return value


def ledger_consistency(ledger):
    """Re-derive every entry of the intersection table.

    Checks, all exact: (a) each recorded anticanonical pairing equals
    the weight formula; (b) for each coordinate decomposition C_i and
    each component G, (a_i/I)*(D.G) = G.C_i, the sum of G's row over
    the components, G^2 included — this recovers every
    self-intersection; (c) the same for each curve outside the
    decomposition whose D pairing and row are known; (d) the
    components' D pairings sum to D.C_i = (a_i/I)*K^2, where K^2 =
    I^2*d / (a0*a1*a2*a3); (e) each orbifold point index equals the
    weight of its coordinate.  Every number is read through
    ledger.pairing.  Each check is decided on ints over the lcm of its
    own values' denominators, so no number outgrows the few values one
    check reads; its two sides are built as Fractions once, for the
    report.

    Raises LctforgeError naming the missing entries when (b) or (d)
    needs one, and on a surface that is not Fano.
    """
    surf = ledger.surface
    I = surf.amplitude
    if I <= 0:
        raise LctforgeError(f"amplitude {I} is not positive: the surface "
                            "is not Fano")
    w = surf.weights
    pairing = ledger.pairing
    names = sorted(ledger.curves)
    checks = []
    missing = []

    def equal(name, lhs, lden, rhs, rden):
        """Record lhs/lden == rhs/rden, decided on the ints."""
        checks.append(LedgerCheck(name, Fraction(lhs, lden), "==",
                                  Fraction(rhs, rden),
                                  lhs * rden == rhs * lden))

    def total(values):
        """sum(values) as ints (n, d), d the lcm of their denominators."""
        d = lcm(*(v.denominator for v in values))
        return sum(v.numerator * (d // v.denominator) for v in values), d

    def entry(a, b):
        """pairing(a, b), or None with its gap recorded when the table
        lacks it."""
        value = pairing(a, b)
        if value is None:
            missing.append(f"self {a}" if a == b else f"pair {a}.{b}")
        return value

    for name in names:
        if (dval := pairing("D", name)) is not None:
            equal(f"D.{name} matches the weight formula", dval.numerator,
                  dval.denominator,
                  *anticanonical_pairing(surf, ledger.curves[name]))

    for i in sorted(ledger.decompositions):
        comps = ledger.decompositions[i]
        coord = COORDS[i]
        dvals = []
        for gamma in comps:
            dvals.append(dval := entry("D", gamma))
            rhs = entry(gamma, gamma)
            if rhs is None:
                continue  # the row of gamma is not searched
            row = [entry(gamma, lam) for lam in comps if lam != gamma]
            if not missing:  # with a gap, the outcome is the error below
                equal(f"C_{coord}: ({w[i]}/{I})*(D.{gamma}) recovers "
                      f"{gamma}^2", w[i] * dval.numerator,
                      I * dval.denominator, *total([rhs, *row]))
        if not missing:
            equal(f"C_{coord}: sum of D pairings over components",
                  *total(dvals), w[i] * I * surf.degree, prod(w))
        for gamma in names:
            if gamma in comps or (dval := pairing("D", gamma)) is None:
                continue
            row = [v for lam in comps
                   if (v := pairing(gamma, lam)) is not None]
            if len(row) == len(comps):  # additivity only on a whole row
                equal(f"C_{coord} additivity against {gamma}", *total(row),
                      w[i] * dval.numerator, I * dval.denominator)

    for pt in ledger.singular_points.values():
        m = re.fullmatch(r"O_([xyzt])", pt.name)
        if m:
            equal(f"{pt.name} index equals the {m.group(1)} weight",
                  pt.index, 1, w[COORDS.index(m.group(1))], 1)

    if missing:  # each gap once, in first mention order
        raise LctforgeError("missing ledger entries: "
                            + ", ".join(dict.fromkeys(missing)))
    return HypothesisReport(tuple(checks))


# ------------------------------------------------------------ ledger files


def _coordinate(cur):
    letter = cur.peek()
    if not letter or letter not in COORDS:
        cur.fail("expected coordinate letter")
    cur.take(letter)  # cuts x from a name such as xy
    return COORDS.index(letter)


def _build(cur, at, make, *args):
    """make(*args); a ValueError it raises (a weight that is not
    positive, line(x,x) ...) is a ParseError at token at."""
    try:
        return make(*args)
    except ValueError as exc:
        cur.fail(str(exc), cur.col(at))


def parse_ledger(text):
    """Parse the line-oriented ledger format into a SurfaceLedger."""
    surface = None
    curves = {}
    decomps = {}
    pairings = {}
    points = {}

    def known(cur, name):
        if name not in curves:
            cur.fail(f"unknown curve {name!r}", cur.end())
        return name

    def once(cur, table, key, what):
        """Refuse a second line for the entry key of table."""
        if key in table:
            cur.fail(f"{what} already given", cur.end())

    for lineno, line in logical_lines(text):
        cur = Cursor(line, lineno)
        head = cur.ident("directive")
        if head != "surface" and surface is None:
            cur.fail("the surface line must come first", cur.end())
        if head == "surface":
            if surface is not None:
                cur.fail("surface line given twice", cur.end())
            at = cur.i
            cur.expect("weights=")
            ws = [cur.integer()]
            for _ in range(3):
                cur.expect(",")
                ws.append(cur.integer())
            cur.expect("degree=")
            d = cur.integer()
            surface = _build(cur, at, WeightedSurface, ws, d)
        elif head == "curve":
            name = cur.ident()
            if name in curves or name == "D":
                cur.fail(f"curve name {name!r} already taken", cur.end())
            cur.expect("=")
            kind = cur.ident("curve kind")
            at = cur.i - 1
            cur.expect("(")
            if kind not in ("line", "cut"):
                cur.fail(f"unknown curve kind {kind!r}", cur.end())
            i = _coordinate(cur)
            cur.expect(",")
            if kind == "line":
                desc = _build(cur, at, QuasiLine, i, _coordinate(cur))
            else:
                desc = _build(cur, at, CoordCut, i, cur.integer())
            cur.expect(")")
            curves[name] = desc
        elif head == "decomp":
            i = _coordinate(cur)
            once(cur, decomps, i, f"decomposition for {COORDS[i]}")
            cur.expect("=")
            names = [known(cur, cur.ident())]
            while not cur.at_end():
                cur.expect("+")
                name = known(cur, cur.ident())
                if name in names:
                    cur.fail(f"curve {name!r} repeated in decomposition",
                             cur.col(cur.i - 1))
                names.append(name)
            decomps[i] = names
        elif head == "pair":
            a = cur.ident()
            cur.expect(".")
            b = cur.ident()
            cur.expect("=")
            value = cur.rational()
            if a == "D" or b == "D":
                name = known(cur, b if a == "D" else a)
                what = f"pair D.{name}"
            else:
                known(cur, a)
                known(cur, b)
                if a == b:
                    cur.fail("use a self line for self-intersections",
                             cur.end())
                what = f"pair {a}.{b}"
            key = (a, b) if a <= b else (b, a)
            once(cur, pairings, key, what)
            pairings[key] = value
        elif head == "self":
            name = known(cur, cur.ident())
            once(cur, pairings, (name, name), f"self {name}")
            cur.expect("=")
            pairings[name, name] = cur.rational()
        elif head == "point":
            name = cur.ident()
            once(cur, points, name, f"point {name}")
            cur.expect("index=")
            index = cur.integer()
            cur.expect("type=")
            p = cur.integer()
            cur.expect(",")
            q = cur.integer()
            cur.expect("on=")
            on = []
            while True:
                cname = known(cur, cur.ident())
                cur.expect(":")
                on.append((cname, cur.rational()))
                if cur.at_end():
                    break
                cur.expect(",")
            points[name] = SingularPoint(name, index, (p, q), tuple(on))
        else:
            cur.fail(f"unknown directive {head!r}", cur.end())
        if not cur.at_end():
            cur.fail("trailing text")
    if surface is None:
        raise ParseError(1, 1, "empty ledger: no surface line")
    return SurfaceLedger(surface, curves, decomps, pairings, points)
