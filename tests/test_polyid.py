from fractions import Fraction
from pathlib import Path

import pytest

from lctforge import data_path
from lctforge.polyid import parse_polyid, run_polyid
from lctforge.sparsepoly import SparsePoly, weighted_degree_profile
from lctforge.syntax import ParseError
from szoracle import agree_at_points


GOOD = """\
# binomial square, folded across lines
vars x y
poly big = x^2
  + 2*x*y
  + y^2
check big == (x + y)^2   # should hold
check big == x^2 + y^2
"""


def test_parse_and_run_synthetic():
    f = parse_polyid(GOOD)
    assert f.variables == ("x", "y")
    assert set(f.polys) == {"big"}
    results = run_polyid(f)
    assert len(results) == 2
    desc0, r0 = results[0]
    assert desc0 == "big == (x + y)^2"
    assert r0 is None
    desc1, r1 = results[1]
    # difference is 2*x*y, so the extremal exponent is (1, 1)
    assert r1 == (1, 1)


def test_rational_coefficients_and_unary_minus():
    f = parse_polyid(
        "vars t\n"
        "poly p = 1/2*t - -1/2*t\n"
        "check p == t\n"
    )
    assert run_polyid(f)[0][1] is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("poly f = 1\n", "line 1, column 5: vars line must come before poly"),
        ("check 1 == 1\n",
         "line 1, column 6: vars line must come before check"),
        # before the vars line, a head other than poly or check is unknown
        ("frob x\n", "line 1, column 1: unknown directive 'frob'"),
        ("vars x\nvars y\n", "vars line given twice"),
        ("vars x x\n", "duplicate variable name"),
        ("vars\n", "at least one variable"),
        ("vars x\npoly x = 1\n", "already bound"),
        ("vars x\npoly f = x\npoly f = x\n", "already bound"),
        ("vars x\npoly f = w + x\n", "unknown name 'w'"),
        ("vars x\npoly f = x + x 3\n", "trailing text"),
        ("vars x\ncheck x == x junk\n", "trailing text"),
        ("  poly f = 1\n", "nothing to continue"),
        ("vars x\npoly f = 1/0\n", "zero denominator"),
        ("vars x\nfrobnicate x\n", "unknown directive"),
        ("# nothing here\n\n", "empty file: no vars line"),
        ("vars x\npoly f = (x\n", "expected ')'"),
        ("vars x\npoly f = x^\n", "exponent"),
        # nesting: 100 open '(' or unary '-' parse, the 101st is refused
        pytest.param("vars x\npoly f = " + "(-" * 50 + "x" + ")" * 50,
                     None, id="nesting-100"),
        pytest.param("vars x\npoly f = " + "(" * 101 + "x" + ")" * 101,
                     "line 2, column 110: nesting deeper than 100 levels",
                     id="nesting-101"),
        pytest.param("vars x\ncheck x == " + "(" * 5000 + "x" + ")" * 5000,
                     "line 2, column 112: nesting deeper than 100 levels",
                     id="nesting-5000"),
    ],
)
def test_parse_errors(text, fragment):
    if fragment is None:
        parse_polyid(text)
        return
    with pytest.raises(ParseError) as exc:
        parse_polyid(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "line,op",
    [
        ("poly f = x^4294967296", "^"),
        ("poly f = (x*y)^40000", "^"),
        ("poly f = x^40000 * y^40000", "*"),
        ("check x^65535 == x^65534 * x * y", "* y"),
    ],
)
def test_degree_past_the_limit_is_positioned(line, op):
    with pytest.raises(ParseError) as exc:
        parse_polyid(f"vars x y\n{line}\n")
    assert exc.value.line == 2
    assert exc.value.column == line.index(op) + 1
    assert "exceeds the limit 65535" in str(exc.value)


@pytest.mark.parametrize(
    "line,op,message",
    [
        ("poly f = 3^262144", "^",
         "coefficients of up to 1625 bits exceed the limit 1024"),
        ("poly f = (1/3)^4194304", "^",
         "coefficients of up to 1624 bits exceed the limit 1024"),
        ("poly f = (x + y)^32768", "^",
         "coefficients of up to 1026 bits exceed the limit 1024"),
        ("poly f = (x + y + 1)^50 * (x - y + 2)^50", "* (",
         "1326 x 1326 term products exceed the limit 1048576"),
        # the edges of a one-term power: refused exactly where a chain
        # of products reaches a budget, with that product's bound
        ("poly f = 3^646", "^",
         "coefficients of up to 1026 bits exceed the limit 1024"),
        ("poly f = (2/3)^1024", "^",
         "coefficients of up to 1624 bits exceed the limit 1024"),
        ("poly f = (1/2)^1024", "^",
         "coefficients of up to 1026 bits exceed the limit 1024"),
        ("poly f = (3*x)^646", "^",
         "coefficients of up to 1026 bits exceed the limit 1024"),
        ("poly f = (7/5*x*y)^400", "^",
         "coefficients of up to 1125 bits exceed the limit 1024"),
        ("poly f = x^65536", "^",
         "degree 65536 exceeds the limit 65535 of packed exponents"),
    ],
)
def test_product_past_a_budget_is_positioned(line, op, message):
    with pytest.raises(ParseError) as exc:
        parse_polyid(f"vars x y\n{line}\ncheck f == f\n")
    assert (exc.value.line, exc.value.column) == (2, line.index(op) + 1)
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize(
    "expr,value",
    [
        ("3^645", {(0, 0): Fraction(3) ** 645}),
        ("(2/3)^513", {(0, 0): Fraction(2, 3) ** 513}),
        ("(7/5*x*y)^341", {(341, 341): Fraction(7, 5) ** 341}),
        ("x^65535", {(65535, 0): Fraction(1)}),
        ("(0*x)^5", {}),
    ],
)
def test_power_just_inside_the_budgets(expr, value):
    f = parse_polyid(f"vars x y\npoly f = {expr}\n")
    assert f.polys["f"].coefficients() == value


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_polyid("vars x\npoly f = x\npoly f = x\n")
    assert exc.value.line == 3


def load_bundled():
    path = data_path("polyid", "icosahedral-invariants.polyid")
    with open(path) as fh:
        return parse_polyid(fh.read())


def test_bundled_invariants_parse():
    f = load_bundled()
    assert f.variables == ("x", "y", "z")
    assert set(f.polys) == {"f2", "f6", "f10", "f15", "inner"}
    assert len(f.checks) == 2


def test_bundled_invariants_homogeneous():
    f = load_bundled()
    w = (1, 1, 1)
    assert weighted_degree_profile(f.polys["f2"], w) == {2}
    assert weighted_degree_profile(f.polys["f6"], w) == {6}
    assert weighted_degree_profile(f.polys["f10"], w) == {10}
    assert weighted_degree_profile(f.polys["f15"], w) == {15}
    assert weighted_degree_profile(f.polys["inner"], w) == {12}


def test_bundled_invariants_checks_hold():
    f = load_bundled()
    for description, result in run_polyid(f):
        assert result is None, description


def test_bundled_invariants_work(monkeypatch):
    """The products and term products the bundled file costs, counted
    as verdictbench's tracer counts them (a scalar operand is one term),
    and no subtraction for a check whose two sides are equal."""
    counts = []
    for attr in ("__mul__", "__rmul__"):
        def counting(a, b, mul=SparsePoly.__dict__[attr]):
            counts.append(len(a.terms) * (len(b.terms)
                                          if isinstance(b, SparsePoly) else 1))
            return mul(a, b)
        monkeypatch.setattr(SparsePoly, attr, counting)
    f = load_bundled()
    assert (len(counts), sum(counts)) == (101, 6219)

    def no_subtraction(a, b):
        raise AssertionError("equal sides subtracted")

    monkeypatch.setattr(SparsePoly, "__sub__", no_subtraction)
    assert [witness for _, witness in run_polyid(f)] == [None, None]
    assert len(counts) == 101


def test_bundled_invariants_keep_their_symmetries():
    """Every monomial x^a y^b z^c of the four invariants has
    b = c (mod 5), so the order-5 rotation (x, zeta*y, zeta^-1*z) fixes
    each; swapping y and z fixes f2, f6 and f10 and negates f15."""
    f = load_bundled()
    for name, sign, size in (("f2", 1, 2), ("f6", 1, 5), ("f10", 1, 12),
                             ("f15", -1, 20)):
        terms = f.polys[name].coefficients()
        assert len(terms) == size, name
        assert all((b - c) % 5 == 0 for _, b, c in terms), name
        swapped = {(a, c, b): sign * v for (a, b, c), v in terms.items()}
        assert swapped == terms, name


# the first slip the bundled file documents: +10 where -10 belongs
SLIPPED_F15 = ("(352*x^4 - 160*x^2*y*z + 10*y^2*z^2)",
               "(352*x^4 - 160*x^2*y*z - 10*y^2*z^2)")


@pytest.mark.parametrize("path, slip", [
    (data_path("polyid", "icosahedral-invariants.polyid"), None),
    (data_path("polyid", "icosahedral-invariants.polyid"), SLIPPED_F15),
    (Path(__file__).parent / "data" / "verdict-paths.polyid", None),
], ids=["icosahedral", "icosahedral-slipped", "verdict-paths"])
def test_witness_is_none_exactly_when_seeded_points_agree(path, slip):
    text = path.read_text()
    if slip is not None:
        assert slip[0] in text
        text = text.replace(*slip)
    flags = agree_at_points(text)
    results = run_polyid(parse_polyid(text))
    assert len(flags) == len(results) >= 2
    assert [witness is None for _, witness in results] == flags
