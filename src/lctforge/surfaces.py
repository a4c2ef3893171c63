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

from dataclasses import dataclass
from fractions import Fraction
import re

from .localineq import Check, HypothesisReport
from .rational import parse_rat, rat_str
from .sparsepoly import SparsePoly

COORDS = "xyzt"


# ---------------------------------------------------------------- surfaces


def amplitude(weights, degree):
    """Sum of weights minus degree.  May be <= 0 (non-Fano)."""
    weights = [int(a) for a in weights]
    if any(a <= 0 for a in weights) or int(degree) <= 0:
        raise ValueError("weights and degree must be positive")
    return sum(weights) - int(degree)


class WeightedSurface:
    def __init__(self, weights, degree, defining_poly=None):
        weights = tuple(int(a) for a in weights)
        if len(weights) != 4:
            raise ValueError(f"need 4 weights, got {len(weights)}")
        degree = int(degree)
        self.amplitude = amplitude(weights, degree)  # validates positivity
        self.weights = weights
        self.degree = degree
        if defining_poly is not None and defining_poly.arity != 4:
            raise ValueError("defining polynomial must have 4 variables")
        self.defining_poly = defining_poly

    @property
    def is_fano(self):
        return self.amplitude > 0

    def __repr__(self):
        w = ",".join(str(a) for a in self.weights)
        return f"WeightedSurface(P({w}), degree {self.degree})"


def k_squared(surface):
    """Anticanonical self-intersection I^2*d / (a0*a1*a2*a3)."""
    w = surface.weights
    return Fraction(
        surface.amplitude ** 2 * surface.degree, w[0] * w[1] * w[2] * w[3]
    )


@dataclass(frozen=True)
class Pass:
    pass


@dataclass(frozen=True)
class Fail:
    offending: tuple


def check_quasihomogeneous(surface):
    """Pass iff every monomial of the defining polynomial has weighted
    degree equal to the surface degree; Fail carries the bad exponents."""
    poly = surface.defining_poly
    if poly is None:
        raise ValueError("surface has no defining polynomial")
    bad = []
    for expo in poly.coefficients():
        wdeg = sum(w * e for w, e in zip(surface.weights, expo))
        if wdeg != surface.degree:
            bad.append(expo)
    if bad:
        return Fail(tuple(bad))
    return Pass()


# ------------------------------------------------------------------ curves


@dataclass(frozen=True)
class QuasiLine:
    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i < 4 and 0 <= self.j < 4):
            raise ValueError("coordinate index out of range")
        if self.i == self.j:
            raise ValueError("quasiline needs two distinct coordinates")


@dataclass(frozen=True)
class CoordCut:
    i: int
    e: int

    def __post_init__(self):
        if not 0 <= self.i < 4:
            raise ValueError("coordinate index out of range")
        if self.e <= 0:
            raise ValueError("residual degree must be positive")


def anticanonical_pairing(surface, c, m=None):
    """Pairing of O(m) with the curve c.

    With m omitted, m defaults to the amplitude, giving the pairing
    against the anticanonical divisor; that default is an error on a
    non-Fano surface.
    """
    if m is None:
        m = surface.amplitude
        if m <= 0:
            raise ValueError(
                f"amplitude {m} is not positive; pass m explicitly"
            )
    m = int(m)
    if m <= 0:
        raise ValueError("m must be a positive integer")
    w = surface.weights
    if isinstance(c, QuasiLine):
        k, l = (a for a in range(4) if a not in (c.i, c.j))
        return Fraction(m, w[k] * w[l])
    if isinstance(c, CoordCut):
        j, k, l = (a for a in range(4) if a != c.i)
        return Fraction(m * c.e, w[j] * w[k] * w[l])
    raise ValueError(f"unknown curve descriptor {c!r}")


# ------------------------------------------------------------------ ledger


@dataclass(frozen=True)
class SingularPoint:
    name: str
    index: int
    local_type: tuple
    on: tuple  # ((curve name, local multiplicity), ...)


class LedgerGapError(Exception):
    """A consistency check needed a table entry that is not present."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(
            "missing ledger entries: " + ", ".join(self.missing)
        )


class SurfaceLedger:
    def __init__(self, surface, curves, decompositions, pairings,
                 anticanonical, self_intersections, singular_points=()):
        self.surface = surface
        self.curves = dict(curves)
        self.decompositions = {
            int(i): list(names) for i, names in decompositions.items()
        }
        self.pairings = {}
        for key, value in pairings.items():
            a, b = key
            if a == b:
                raise ValueError(f"pairing key {a!r} repeated; use self")
            self.pairings[frozenset((a, b))] = Fraction(value)
        self.anticanonical = {
            name: Fraction(v) for name, v in anticanonical.items()
        }
        self.self_intersections = {
            name: Fraction(v) for name, v in self_intersections.items()
        }
        self.singular_points = tuple(singular_points)
        known = set(self.curves)
        for name in self._mentioned_names():
            if name not in known:
                raise ValueError(f"ledger mentions unknown curve {name!r}")

    def _mentioned_names(self):
        for names in self.decompositions.values():
            yield from names
        for key in self.pairings:
            yield from key
        yield from self.anticanonical
        yield from self.self_intersections
        for pt in self.singular_points:
            for name, _ in pt.on:
                yield name

    def pairing(self, a, b):
        """Table lookup with the structural zero for disjoint quasilines."""
        key = frozenset((a, b))
        if key in self.pairings:
            return self.pairings[key]
        ca, cb = self.curves[a], self.curves[b]
        if isinstance(ca, QuasiLine) and isinstance(cb, QuasiLine):
            if {ca.i, ca.j, cb.i, cb.j} == {0, 1, 2, 3}:
                return Fraction(0)
        return None


def ledger_consistency(ledger):
    """Re-derive every entry of the intersection table.

    Checks, all exact: (a) each recorded anticanonical pairing equals
    the weight formula; (b) for each coordinate decomposition C_i and
    each component G, (a_i/I)*(D.G) = G^2 + sum of cross pairings inside
    the decomposition — this recovers every self-intersection; (c) for
    curves outside a decomposition whose pairings with all its
    components are known, the same additivity; (d) the components' D
    pairings sum to I*a_i*d/(a0*a1*a2*a3); (e) each orbifold point
    index equals the weight of its coordinate.

    Raises LedgerGapError when (a), (b), or (d) needs a missing entry.
    """
    surf = ledger.surface
    I = surf.amplitude
    w = surf.weights
    checks = []
    missing = []

    def need_d(name):
        if name not in ledger.anticanonical:
            missing.append(f"pair D.{name}")
            return None
        return ledger.anticanonical[name]

    for name in sorted(ledger.anticanonical):
        table = ledger.anticanonical[name]
        formula = anticanonical_pairing(surf, ledger.curves[name])
        checks.append(Check(
            f"D.{name} matches the weight formula",
            table, "==", formula, table == formula,
        ))

    for i in sorted(ledger.decompositions):
        comps = ledger.decompositions[i]
        coord = COORDS[i]
        for gamma in comps:
            dval = need_d(gamma)
            if gamma not in ledger.self_intersections:
                missing.append(f"self {gamma}")
                continue
            lhs = None if dval is None else Fraction(w[i], I) * dval
            rhs = ledger.self_intersections[gamma]
            ok = True
            for lam in comps:
                if lam == gamma:
                    continue
                val = ledger.pairing(gamma, lam)
                if val is None:
                    missing.append(f"pair {gamma}.{lam}")
                    ok = False
                else:
                    rhs += val
            if lhs is None or not ok:
                continue
            checks.append(Check(
                f"C_{coord}: ({w[i]}/{I})*(D.{gamma}) recovers {gamma}^2",
                lhs, "==", rhs, lhs == rhs,
            ))
        total = Fraction(0)
        ok = True
        for gamma in comps:
            dval = need_d(gamma)
            if dval is None:
                ok = False
            else:
                total += dval
        if ok:
            target = Fraction(I * w[i] * surf.degree,
                              w[0] * w[1] * w[2] * w[3])
            checks.append(Check(
                f"C_{coord}: sum of D pairings over components",
                total, "==", target, total == target,
            ))
        for gamma in sorted(ledger.curves):
            if gamma in comps:
                continue
            vals = [ledger.pairing(gamma, lam) for lam in comps]
            if any(v is None for v in vals):
                continue  # additivity only when the row is complete
            dval = ledger.anticanonical.get(gamma)
            if dval is None:
                continue
            lhs = sum(vals, Fraction(0))
            rhs = Fraction(w[i], I) * dval
            checks.append(Check(
                f"C_{coord} additivity against {gamma}",
                lhs, "==", rhs, lhs == rhs,
            ))

    for pt in ledger.singular_points:
        m = re.fullmatch(r"O_([xyzt])", pt.name)
        if m:
            weight = w[COORDS.index(m.group(1))]
            checks.append(Check(
                f"{pt.name} index equals the {m.group(1)} weight",
                Fraction(pt.index), "==", Fraction(weight),
                pt.index == weight,
            ))

    if missing:
        seen = []
        for entry in missing:
            if entry not in seen:
                seen.append(entry)
        raise LedgerGapError(seen)
    return HypothesisReport(
        tuple(checks), all(c.holds for c in checks)
    )


# ------------------------------------------------------------ ledger files


class LedgerParseError(Exception):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class _Cursor:
    def __init__(self, text, lineno):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def fail(self, message):
        raise LedgerParseError(self.lineno, self.pos + 1, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def match(self, pattern, what):
        self.skip_ws()
        m = re.compile(pattern).match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def word(self, what="name"):
        return self.match(r"[A-Za-z_][A-Za-z0-9_]*", what)

    def literal(self, s):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.fail(f"expected {s!r}")
        self.pos += len(s)

    def integer(self, what="integer"):
        return int(self.match(r"-?[0-9]+", what))

    def rational(self, what="rational"):
        lit = self.match(r"-?[0-9]+(?:/[0-9]+)?", what)
        try:
            return parse_rat(lit)
        except ZeroDivisionError:
            self.fail(f"zero denominator in {lit!r}")

    def coordinate(self):
        c = self.match(r"[xyzt]", "coordinate letter")
        return COORDS.index(c)


def parse_ledger(text):
    """Parse the line-oriented ledger format into a SurfaceLedger."""
    surface = None
    curves = {}
    decomps = {}
    pairings = {}
    seen_pairs = set()
    anticanonical = {}
    selfs = {}
    points = []

    def known(cur, name):
        if name not in curves:
            cur.fail(f"unknown curve {name!r}")
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)
        head = cur.word("directive")
        if head != "surface" and surface is None:
            cur.fail("the surface line must come first")
        if head == "surface":
            cur.literal("weights=")
            ws = [cur.integer()]
            for _ in range(3):
                cur.literal(",")
                ws.append(cur.integer())
            cur.literal("degree=")
            d = cur.integer()
            surface = WeightedSurface(ws, d)
        elif head == "curve":
            name = cur.word()
            if name in curves or name == "D":
                cur.fail(f"curve name {name!r} already taken")
            cur.literal("=")
            kind = cur.word("curve kind")
            cur.literal("(")
            if kind == "line":
                i = cur.coordinate()
                cur.literal(",")
                j = cur.coordinate()
                desc = QuasiLine(i, j)
            elif kind == "cut":
                i = cur.coordinate()
                cur.literal(",")
                e = cur.integer()
                desc = CoordCut(i, e)
            else:
                cur.fail(f"unknown curve kind {kind!r}")
            cur.literal(")")
            curves[name] = desc
        elif head == "decomp":
            i = cur.coordinate()
            if i in decomps:
                cur.fail(f"decomposition for {COORDS[i]} already given")
            cur.literal("=")
            names = [known(cur, cur.word())]
            while not cur.at_end():
                cur.literal("+")
                names.append(known(cur, cur.word()))
            decomps[i] = names
        elif head == "pair":
            a = cur.word()
            cur.literal(".")
            b = cur.word()
            cur.literal("=")
            value = cur.rational()
            if a == "D":
                if known(cur, b) in anticanonical:
                    cur.fail(f"pair D.{b} already given")
                anticanonical[b] = value
            elif b == "D":
                if known(cur, a) in anticanonical:
                    cur.fail(f"pair D.{a} already given")
                anticanonical[a] = value
            else:
                known(cur, a)
                known(cur, b)
                if a == b:
                    cur.fail("use a self line for self-intersections")
                key = frozenset((a, b))
                if key in seen_pairs:
                    cur.fail(f"pair {a}.{b} already given")
                seen_pairs.add(key)
                pairings[(a, b)] = value
        elif head == "self":
            name = known(cur, cur.word())
            if name in selfs:
                cur.fail(f"self {name} already given")
            cur.literal("=")
            selfs[name] = cur.rational()
        elif head == "point":
            name = cur.word()
            cur.literal("index=")
            index = cur.integer()
            cur.literal("type=")
            p = cur.integer()
            cur.literal(",")
            q = cur.integer()
            cur.literal("on=")
            on = []
            while True:
                cname = known(cur, cur.word())
                cur.literal(":")
                on.append((cname, cur.rational()))
                if cur.at_end():
                    break
                cur.literal(",")
            points.append(SingularPoint(name, index, (p, q), tuple(on)))
        else:
            cur.fail(f"unknown directive {head!r}")
        if head != "point" and not cur.at_end():
            cur.skip_ws()
            cur.fail("trailing text")
    if surface is None:
        raise LedgerParseError(1, 1, "empty ledger: no surface line")
    return SurfaceLedger(
        surface, curves, decomps, pairings, anticanonical, selfs, points
    )


# --------------------------------------------------------------- shipments


def bundled_surfaces():
    """The five weighted hypersurfaces shipped with the package, keyed
    by the basenames of their ledger files."""

    def mono(*rows):
        return SparsePoly(4, {expo: Fraction(1) for expo in rows})

    return {
        "wps-11-21-29-37-d95": WeightedSurface(
            (11, 21, 29, 37), 95,
            mono((0, 1, 0, 2), (0, 0, 2, 1), (1, 4, 0, 0), (6, 0, 1, 0)),
        ),
        "wps-13-14-23-33-d79": WeightedSurface(
            (13, 14, 23, 33), 79,
            mono((0, 0, 2, 1), (0, 4, 1, 0), (1, 0, 0, 2), (5, 1, 0, 0)),
        ),
        "wps-11-17-24-31-d79": WeightedSurface(
            (11, 17, 24, 31), 79,
            mono((0, 1, 0, 2), (0, 0, 2, 1), (1, 4, 0, 0), (5, 0, 1, 0)),
        ),
        "wps-13-17-27-41-d95": WeightedSurface(
            (13, 17, 27, 41), 95,
            mono((0, 0, 2, 1), (0, 4, 1, 0), (1, 0, 0, 2), (6, 1, 0, 0)),
        ),
        "wps-14-17-29-41-d99": WeightedSurface(
            (14, 17, 29, 41), 99,
            mono((0, 1, 0, 2), (0, 0, 2, 1), (1, 5, 0, 0), (5, 0, 1, 0)),
        ),
    }
