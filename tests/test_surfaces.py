from dataclasses import dataclass
from fractions import Fraction
from fractions import Fraction as F
from itertools import combinations
import re
import tracemalloc

import pytest

from lctforge import data_path
from lctforge.sparsepoly import SparsePoly
from lctforge.surfaces import (
    amplitude,
    WeightedSurface,
    QuasiLine,
    CoordCut,
    anticanonical_pairing,
    parse_ledger,
    ledger_consistency,
)
from lctforge.syntax import LctforgeError, ParseError
import oracles
from oracles import is_fano


@dataclass(frozen=True)
class Pass:
    pass


@dataclass(frozen=True)
class Fail:
    offending: tuple


def check_quasihomogeneous(surface, poly):
    """Pass iff every monomial of the defining polynomial has weighted
    degree equal to the surface degree; Fail carries the bad exponents."""
    if poly.arity != 4:
        raise ValueError("defining polynomial must have 4 variables")
    bad = []
    for expo in poly.coefficients():
        wdeg = sum(w * e for w, e in zip(surface.weights, expo))
        if wdeg != surface.degree:
            bad.append(expo)
    if bad:
        return Fail(tuple(bad))
    return Pass()


def bundled_surfaces():
    """The five weighted hypersurfaces shipped with the package, each
    with its defining polynomial, keyed by the basenames of their
    ledger files."""

    def mono(*rows):
        return SparsePoly(4, {expo: Fraction(1) for expo in rows})

    return {
        "wps-11-21-29-37-d95": (
            WeightedSurface((11, 21, 29, 37), 95),
            mono((0, 1, 0, 2), (0, 0, 2, 1), (1, 4, 0, 0), (6, 0, 1, 0)),
        ),
        "wps-13-14-23-33-d79": (
            WeightedSurface((13, 14, 23, 33), 79),
            mono((0, 0, 2, 1), (0, 4, 1, 0), (1, 0, 0, 2), (5, 1, 0, 0)),
        ),
        "wps-11-17-24-31-d79": (
            WeightedSurface((11, 17, 24, 31), 79),
            mono((0, 1, 0, 2), (0, 0, 2, 1), (1, 4, 0, 0), (5, 0, 1, 0)),
        ),
        "wps-13-17-27-41-d95": (
            WeightedSurface((13, 17, 27, 41), 95),
            mono((0, 0, 2, 1), (0, 4, 1, 0), (1, 0, 0, 2), (6, 1, 0, 0)),
        ),
        "wps-14-17-29-41-d99": (
            WeightedSurface((14, 17, 29, 41), 99),
            mono((0, 1, 0, 2), (0, 0, 2, 1), (1, 5, 0, 0), (5, 0, 1, 0)),
        ),
    }


LEDGER_NAMES = [
    "wps-11-21-29-37-d95",
    "wps-13-14-23-33-d79",
    "wps-11-17-24-31-d79",
    "wps-13-17-27-41-d95",
    "wps-14-17-29-41-d99",
]


def load(name):
    return parse_ledger(data_path("ledgers", name + ".ledger").read_text())


def test_amplitude():
    assert amplitude((11, 21, 29, 37), 95) == 3
    assert amplitude((13, 14, 23, 33), 79) == 4
    assert amplitude((14, 17, 29, 41), 99) == 2
    assert amplitude((1, 1, 1, 1), 5) == -1  # non-Fano is allowed
    with pytest.raises(ValueError):
        amplitude((0, 1, 1, 1), 3)
    with pytest.raises(ValueError):
        amplitude((1, 1, 1, 1), 0)
    with pytest.raises(ValueError, match="^weights must be integers$"):
        amplitude([Fraction(3, 2), 1, 2, 3], 6)


def test_weighted_surface_validation():
    s = WeightedSurface((1, 1, 2, 3), 6)
    assert s.amplitude == 1 and is_fano(s)
    with pytest.raises(ValueError):
        WeightedSurface((1, 1, 2), 4)


def test_quasihomogeneous_bundled():
    for name, (surf, poly) in bundled_surfaces().items():
        assert check_quasihomogeneous(surf, poly) == Pass(), name


def test_quasihomogeneous_catches_bad_term():
    poly = SparsePoly(4, {(0, 1, 0, 2): 1, (1, 1, 1, 1): 1})
    res = check_quasihomogeneous(WeightedSurface((11, 21, 29, 37), 95), poly)
    assert isinstance(res, Fail)
    assert res.offending == ((1, 1, 1, 1),)
    with pytest.raises(ValueError):
        check_quasihomogeneous(WeightedSurface((1, 1, 2, 3), 6),
                               SparsePoly.variable(3, 0))


def test_bundled_surfaces_match_their_ledgers():
    for name, (surf, _) in bundled_surfaces().items():
        led = load(name)
        assert led.surface.weights == surf.weights
        assert led.surface.degree == surf.degree


def test_curve_descriptors():
    with pytest.raises(ValueError):
        QuasiLine(1, 1)
    with pytest.raises(ValueError):
        QuasiLine(0, 4)
    with pytest.raises(ValueError):
        CoordCut(2, 0)


def test_anticanonical_pairing_formulas():
    s = WeightedSurface((11, 21, 29, 37), 95)  # amplitude 3
    # x = t = 0 line sees the y and z weights
    assert anticanonical_pairing(s, QuasiLine(0, 3)) == (3, 21 * 29)
    assert F(*anticanonical_pairing(s, QuasiLine(0, 3))) == F(1, 203)
    # a cut x = 0 of residual degree e
    assert anticanonical_pairing(s, CoordCut(0, 58)) == \
        (3 * 58, 21 * 29 * 37)
    with pytest.raises(ValueError):
        anticanonical_pairing(s, "L_xt")


def test_anticanonical_pairing_non_fano_needs_m():
    s = WeightedSurface((1, 1, 1, 1), 5)
    with pytest.raises(ValueError):
        anticanonical_pairing(s, QuasiLine(0, 1))


# A small synthetic ledger for the sextic in P(1,1,2,3): one coordinate
# cut decomposed into a quasiline and a residual quintic cut, numbers
# chosen to satisfy every consistency rule.
SEXTIC_LEDGER = """\
surface weights=1,1,2,3 degree=6

curve L = line(x,y)      # x = y = 0
curve R = cut(x,5)
curve M = line(z,t)

decomp x = L + R

pair D.L = 1/6
pair D.R = 5/6
pair D.M = 1
pair L.R = 1/4
pair M.R = 1
self L = -1/12
self R = 7/12

point O_z index=2 type=1,1 on=L:1/2
"""


def _sextic(drop=(), add=""):
    """SEXTIC_LEDGER without the lines that start with one of drop,
    with add appended as its last line."""
    lines = SEXTIC_LEDGER.splitlines(keepends=True)
    return "".join(l for l in lines if not l.startswith(drop)) + add


def test_sum_check_carries_k_squared():
    """Check (d)'s right side is (a_i/I)*K^2, K^2 = I^2*d/(a0*a1*a2*a3)."""
    for led, k2 in ((load("wps-11-21-29-37-d95"), F(285, 82621)),
                    (parse_ledger(SEXTIC_LEDGER), F(1))):
        surf = led.surface
        sums = [c for c in ledger_consistency(led).checks
                if c.name.endswith("sum of D pairings over components")]
        assert len(sums) == len(led.decompositions)
        for i, c in zip(sorted(led.decompositions), sums):
            assert c.rhs == F(surf.weights[i], surf.amplitude) * k2


def test_parse_ledger_round_trip_fields():
    led = parse_ledger(SEXTIC_LEDGER)
    assert led.surface.weights == (1, 1, 2, 3)
    assert led.curves["L"] == QuasiLine(0, 1)
    assert led.curves["R"] == CoordCut(0, 5)
    assert led.decompositions == {0: ["L", "R"]}
    assert led.pairing("D", "R") == F(5, 6)
    assert led.pairing("L", "L") == F(-1, 12)
    assert led.pairing("L", "R") == F(1, 4)
    assert list(led.singular_points) == ["O_z"]
    assert led.singular_points["O_z"].on == (("L", F(1, 2)),)


def test_structural_zero_for_disjoint_lines():
    led = parse_ledger(SEXTIC_LEDGER)
    # L is x=y=0, M is z=t=0: all four coordinates used, never meet
    assert led.pairing("L", "M") == 0
    # unknown pair of non-disjoint curves stays unknown
    assert led.pairing("M", "R") == 1
    del led.pairings["M", "R"]
    assert led.pairing("M", "R") is None


def test_synthetic_ledger_consistent():
    report = ledger_consistency(parse_ledger(SEXTIC_LEDGER))
    assert report.overall
    names = [c.name for c in report.checks]
    assert "C_x: (1/1)*(D.L) recovers L^2" in names
    assert "C_x: sum of D pairings over components" in names
    assert "C_x additivity against M" in names
    assert "O_z index equals the z weight" in names


def test_consistency_detects_wrong_self_intersection():
    text = SEXTIC_LEDGER.replace("self L = -1/12", "self L = -1/11")
    report = ledger_consistency(parse_ledger(text))
    assert not report.overall
    bad = [c for c in report.checks if not c.holds]
    assert len(bad) == 1
    assert "recovers L^2" in bad[0].name


def test_consistency_gap_error():
    text = SEXTIC_LEDGER.replace("pair L.R = 1/4\n", "")
    with pytest.raises(LctforgeError) as exc:
        ledger_consistency(parse_ledger(text))
    assert str(exc.value) == "missing ledger entries: pair L.R, pair R.L"


@pytest.mark.parametrize("drop, message", [
    (("pair D.L",), "missing ledger entries: pair D.L"),
    (("self L",), "missing ledger entries: self L"),
    # the L row is not searched once its self line is missing
    (("self L", "pair L.R"), "missing ledger entries: self L, pair R.L"),
])
def test_consistency_gap_names_each_missing_entry(drop, message):
    with pytest.raises(LctforgeError) as exc:
        ledger_consistency(parse_ledger(_sextic(drop)))
    assert str(exc.value) == message


SEXTIC_CHECKS = [
    "D.L matches the weight formula",
    "D.M matches the weight formula",
    "D.R matches the weight formula",
    "C_x: (1/1)*(D.L) recovers L^2",
    "C_x: (1/1)*(D.R) recovers R^2",
    "C_x: sum of D pairings over components",
    "C_x additivity against M",
    "O_z index equals the z weight",
]


@pytest.mark.parametrize("drop, gone", [
    ((), []),
    # M has no D entry, so neither its formula nor its additivity
    (("pair D.M",), ["D.M matches the weight formula",
                     "C_x additivity against M"]),
    # the M row against C_x is incomplete
    (("pair M.R",), ["C_x additivity against M"]),
])
def test_additivity_needs_a_complete_row(drop, gone):
    report = ledger_consistency(parse_ledger(_sextic(drop)))
    assert [c.name for c in report.checks] == [
        name for name in SEXTIC_CHECKS if name not in gone]
    assert all(c.holds for c in report.checks)


@pytest.mark.parametrize("line,fragment", [
    ("curve L = line(x,y)", "surface line must come first"),
    ("surface weights=1,1,2 degree=6", "expected ','"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = arc(x,y)",
     "unknown curve kind"),
    ("surface weights=1,1,2,3 degree=6\npair D.L = 1/6", "unknown curve"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     "pair D.L = 1/6\npair L.D = 1/6", "already given"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     "pair L.L = 1", "self line"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     "decomp x = L + L",
     "line 3, column 16: curve 'L' repeated in decomposition"),
    (_sextic(add="curve L = line(x,t)\n"),
     "line 18, column 8: curve name 'L' already taken"),
    (_sextic(add="pair R.L = 1/4\n"),
     "line 18, column 15: pair R.L already given"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     "point O_t index=3 type=1,1 on=L:1\n"
     "point O_t index=3 type=1,1 on=L:1",
     "line 4, column 10: point O_t already given"),
    ("surface weights=1,1,2,3 degree=6\nbogus hello", "unknown directive"),
    ("surface weights=1,1,2,3 degree=6 extra", "trailing text"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     "self L = 1/0", "zero denominator"),
    ("", "empty ledger"),
    ("surface weights=-1,1,2,3 degree=6",
     "line 1, column 9: weights and degree must be positive"),
    ("surface weights=1,1,2,3 degree=0",
     "line 1, column 9: weights and degree must be positive"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,x)",
     "line 2, column 11: quasiline needs two distinct coordinates"),
    ("surface weights=1,1,2,3 degree=6\ncurve R = cut(x,0)",
     "line 2, column 11: residual degree must be positive"),
    ("surface weights=1,1,2,3 degree=6\ncurve R = cut(x,-5)",
     "line 2, column 11: residual degree must be positive"),
    ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     "surface weights=11,21,29,37 degree=95",
     "line 3, column 8: surface line given twice"),
    pytest.param("surface weights=1,1,2,3 degree=" + "9" * 5000,
                 "line 1, column 32: Exceeds the limit (4300 digits)",
                 id="long-literal"),
])
def test_parse_ledger_errors(line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_ledger(line)
    assert fragment in str(exc.value)


def test_consistency_refuses_non_fano():
    led = parse_ledger("surface weights=1,1,1,1 degree=5\n"
                       "curve L = line(x,y)\npair D.L = 1\n")
    with pytest.raises(LctforgeError) as exc:
        ledger_consistency(led)
    assert str(exc.value) == (
        "amplitude -1 is not positive: the surface is not Fano"
    )


def test_ledger_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_ledger("surface weights=1,1,2,3 degree=6\nbogus hello")
    assert exc.value.line == 2
    # column points just past the directive word it choked on
    assert exc.value.column == 6


@pytest.mark.parametrize("name", LEDGER_NAMES)
def test_bundled_ledgers_consistent(name):
    report = ledger_consistency(load(name))
    assert report.overall
    assert all(c.holds for c in report.checks)


def _single_entry_edits(text):
    """The ledger text itself, then each edit of one entry: each pair or
    self value +-1/7, each point index +-1, each such line deleted."""
    yield "as shipped", text
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        head = line.split(" ", 1)[0]
        if head not in ("pair", "self", "point"):
            continue
        edited = [("deleted", "")]
        for delta in (1, -1):
            if head == "point":
                edited.append((f"index {delta:+}", re.sub(
                    r"index=(\d+)", lambda m: f"index={int(m[1]) + delta}",
                    line)))
            else:
                left, _, value = line.partition("= ")
                edited.append((f"{delta:+}/7",
                               f"{left}= {F(value) + F(delta, 7)}\n"))
        for what, new in edited:
            yield (f"line {k + 1} {what}",
                   "".join(lines[:k] + [new] + lines[k + 1:]))


# Five typos that compensate each other (ROADMAP item 2): 1/7 added to
# three self values and taken from two pair values
D79_COMPENSATING = {"self L_xz": F(1, 7), "self R_x": F(1, 7),
                    "self R_z": F(1, 7), "pair L_xz.R_x": F(-1, 7),
                    "pair L_xz.R_z": F(-1, 7)}


def _outcome(audit, ledger):
    try:
        report = audit(ledger)
    except LctforgeError as exc:
        return str(exc)
    assert all(type(c.lhs) is type(c.rhs) is F and type(c.holds) is bool
               for c in report.checks)
    return report.checks


@pytest.mark.parametrize("name", LEDGER_NAMES)
def test_audit_matches_the_fraction_reference(name):
    """The audit on ints gives the reference's report, check for check,
    or its missing-entries error, on every single-entry edit."""
    text = data_path("ledgers", name + ".ledger").read_text()
    outcomes = set()
    for what, edited in _single_entry_edits(text):
        got = _outcome(ledger_consistency, parse_ledger(edited))
        assert got == _outcome(oracles.ledger_consistency,
                               parse_ledger(edited)), what
        outcomes.add("error" if isinstance(got, str)
                     else all(c.holds for c in got))
    assert outcomes == {"error", True, False}


def test_compensating_edit_passes_both_audits():
    lines = data_path("ledgers", "wps-13-14-23-33-d79.ledger").read_text(
    ).splitlines(keepends=True)
    edited = 0
    for k, line in enumerate(lines):
        entry, _, value = line.partition(" = ")
        if entry in D79_COMPENSATING:
            lines[k] = f"{entry} = {F(value) + D79_COMPENSATING[entry]}\n"
            edited += 1
    assert edited == 5
    ledger = parse_ledger("".join(lines))
    got = _outcome(ledger_consistency, ledger)
    assert got == _outcome(oracles.ledger_consistency, ledger)
    assert len(got) == 26 and all(c.holds for c in got)


def test_audit_numbers_stay_the_size_of_one_check():
    """1,770 pairings with distinct 40-digit denominators: each check
    combines only the few values it reads, so the audit holds a few
    such numbers at a time (a peak near 50 KB), never the table's
    common denominator (about 64,000 digits; scaled to it, the 1,832
    values take some 50 MB)."""
    n, big = 60, 10 ** 39
    lines = ["surface weights=11,17,24,31 degree=79",
             *(f"curve C{k} = line(x,t)" for k in range(n)),
             "decomp x = C0 + C1",
             *(f"pair D.C{k} = 1/102" for k in range(n)),
             "self C0 = 1/3", "self C1 = 1/5"]
    lines += [f"pair C{a}.C{b} = 1/{big + k}"
              for k, (a, b) in enumerate(combinations(range(n), 2))]
    ledger = parse_ledger("\n".join(lines))
    tracemalloc.start()
    try:
        report = ledger_consistency(ledger)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.checks) == n + 2 + 1 + (n - 2)
    assert sum(c.holds for c in report.checks) == n  # the D pairings
    assert peak < 1 << 20, peak


def test_bundled_ledger_entry_values():
    """A few table entries pinned by hand against the weight formulas."""
    t1 = load("wps-11-21-29-37-d95")
    assert t1.pairing("D", "L_xt") == F(1, 7 * 29)
    assert t1.pairing("R_x", "D") == F(2, 7 * 37)
    assert t1.pairing("L_xt", "L_xt") == F(-47, 21 * 29)
    t5 = load("wps-14-17-29-41-d99")
    assert t5.pairing("L_xt", "L_xt") == F(-44, 17 * 29)
    t2 = load("wps-13-14-23-33-d79")
    assert t2.pairing("R_t", "R_t") == F(95, 14 * 23)


@pytest.mark.parametrize("name", LEDGER_NAMES + ["sextic"])
def test_pairing_is_one_symmetric_lookup(name):
    led = parse_ledger(SEXTIC_LEDGER) if name == "sextic" else load(name)
    names = ["D", *led.curves]
    for a in names:
        for b in names:
            assert led.pairing(a, b) == led.pairing(b, a), (a, b)
    for (a, b), value in led.pairings.items():
        assert a <= b
        assert led.pairing(a, b) == led.pairing(b, a) == value
