import ast
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lctforge import data_path, syntax
from lctforge.certs import parse_cert, run_certificate_file
from lctforge.lattice import (apply_involution, pukhlikov_bound,
                              superrigidity_orbit_test, untwist)
from lctforge.linprog import LinearProgram
from lctforge.localineq import (ThmIParams, adjunction_refute, corti_bound,
                                lct_monomial, mobile_bound_thmII,
                                theorem_I_refute)
from lctforge.polyid import parse_polyid
from lctforge.resolution import resolution_pairing, tower_coefficients
from lctforge.sparsepoly import SparsePoly, weighted_degree_profile
from lctforge.surfaces import WeightedSurface, amplitude, parse_ledger
from lctforge.syntax import (
    Cursor,
    LctforgeError,
    ParseError,
    logical_lines,
)

LONG = "9" * 5000


def test_error_hierarchy():
    assert issubclass(ParseError, LctforgeError)
    exc = ParseError(3, 7, "expected ')'")
    assert (exc.line, exc.column) == (3, 7)
    assert str(exc) == "line 3, column 7: expected ')'"


def _opens(node):
    """Whether node calls open, .open, .read_text or .read_bytes."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "open"
            or isinstance(f, ast.Attribute)
            and f.attr in ("open", "read_text", "read_bytes"))


def _calls_int(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int")


def _call_sites(wanted):
    """'module.function' (or 'module:line' outside any function) of
    each call in the package's source for which wanted(node) holds."""
    sites = {}
    for path in sorted(Path(syntax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for call in filter(wanted, ast.walk(node)):
                    sites.setdefault(call, f"{path.stem}.{node.name}")
        for call in filter(wanted, ast.walk(tree)):
            sites.setdefault(call, f"{path.stem}:{call.lineno}")
    return sorted(sites.values())


def test_only_read_input_opens_files():
    assert _call_sites(_opens) == ["syntax.read_input"]


def test_file_name_spells_what_path_spells():
    """Every name of one to five pieces, each a, ., .., / or b.c; the
    name it returns is its own spelling."""
    names, layer = [], [""]
    for _ in range(5):
        layer = [n + p for n in layer for p in ("a", ".", "..", "/", "b.c")]
        names = names + layer
    assert len(names) == 3905
    for name in names:
        spelled = syntax.file_name(name)
        assert spelled == str(Path(name)) == syntax.file_name(spelled), name
    assert syntax.file_name(Path("d//x.cert")) == "d/x.cert"
    with pytest.raises(LctforgeError, match="^empty file name$"):
        syntax.file_name("")


def test_a_plain_file_name_builds_no_path(monkeypatch):
    """A certificate and its file= names are opened as spelled, with no
    Path built, unless Path would spell them otherwise."""
    cert = str(data_path("certs", "wps-13-14-23-33-d79.cert"))
    monkeypatch.setattr(syntax, "Path", None)
    report = run_certificate_file(cert)
    assert report.overall and "check ledger" in report.render()
    with pytest.raises(TypeError):
        syntax.read_input(cert + "/")


def test_int_truncates_nothing_outside_syntax():
    """int() truncates a Fraction and parses text, so outside syntax it
    may only take what is an integer already: the Fraction that
    certs._int has checked, the digits of an argument's name in
    certs._numbered, and a bool in cli._audit."""
    sites = [s for s in _call_sites(_calls_int) if not s.startswith("syntax")]
    assert sites == ["certs._int", "certs._numbered", "cli._audit"]


def _converts_to_fraction(node):
    """Whether node is Fraction(x) for an x that is not an int literal
    (maybe negated)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction" and len(node.args) == 1):
        return False
    arg = node.args[0]
    if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub):
        arg = arg.operand
    return not (isinstance(arg, ast.Constant) and type(arg.value) is int)


def test_fraction_reads_nothing_outside_syntax():
    """Fraction(x) parses text and floats by a grammar of its own, so
    outside syntax, where syntax.rationals converts values, it may only
    take an int literal or an int the program computed itself: the
    amplitude in certs._chk_amplitude and the table's orbit size in
    certs._chk_orbit."""
    sites = [s for s in _call_sites(_converts_to_fraction)
             if not s.startswith("syntax")]
    assert sites == ["certs._chk_amplitude", "certs._chk_orbit"]


def _writes_numerator_or_denominator(node):
    """Whether node writes a .numerator or .denominator as text: an
    f-string field or a str(...) call that reads one."""
    if isinstance(node, ast.FormattedValue):
        node = node.value
    elif not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "str"):
        return False
    return any(isinstance(n, ast.Attribute)
               and n.attr in ("numerator", "denominator")
               for n in ast.walk(node))


def test_numbers_are_written_by_str():
    """str(x) and an f-string field {x} write a Fraction as p/q, or p
    when q is 1, so no code spells that rule out of its parts."""
    assert _call_sites(_writes_numerator_or_denominator) == []


@pytest.mark.parametrize("values, ints", [
    ((), ()), ([0, -3, 10**30], (0, -3, 10**30)),
    ((Fraction(4, 2), True), (2, 1)),
])
def test_integers_keeps_integer_values(values, ints):
    got = syntax.integers(values, "values")
    assert got == ints and all(type(v) is int for v in got)


@pytest.mark.parametrize("bad", [Fraction(3, 2), "2", 2.0, None])
def test_integers_refuses_everything_else(bad):
    with pytest.raises(ValueError) as exc:
        syntax.integers([1, bad], "weights")
    assert str(exc.value) == "weights must be integers"


# Each caller of the integer rule, with v as one of its integer
# arguments: a non-integer v is refused, not truncated, and text is
# refused, not parsed.
X = SparsePoly.variable(2, 0)
ENTRY_POINTS = {
    "amplitude weights": (lambda v: amplitude([v, 1, 2, 3], 6),
                          "weights must be integers"),
    "amplitude degree": (lambda v: amplitude([1, 1, 2, 3], v),
                         "weights and degree must be integers"),
    "lct_monomial": (lambda v: lct_monomial([v, 3], "diagonal"),
                     "exponents must be integers"),
    "surface weights": (lambda v: WeightedSurface([v, 1, 2, 3], 6),
                        "weights must be integers"),
    "surface degree": (lambda v: WeightedSurface([1, 1, 2, 3], v),
                       "weights and degree must be integers"),
    "poly exponents": (lambda v: SparsePoly(2, {(v, 0): 1}),
                       "exponents must be integers"),
    "degree profile": (lambda v: weighted_degree_profile(X, [v, 2]),
                       "weights must be integers"),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [Fraction(3, 2), "1"], ids=["fraction", "text"])
def test_integer_arguments_are_never_truncated(name, bad):
    call, message = ENTRY_POINTS[name]
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_an_integer_fraction_is_its_int(name):
    call = ENTRY_POINTS[name][0]
    got, want = call(Fraction(1)), call(1)
    assert got == want and repr(got) == repr(want)


def test_rationals_keeps_rational_values():
    half = Fraction(1, 2)
    got = syntax.rationals([half, 0, -3, 10**30, True], "values")
    assert got == (half, 0, -3, 10**30, 1)
    assert got[0] is half and all(type(v) is Fraction for v in got)
    assert syntax.rationals((), "values") == ()


@pytest.mark.parametrize("bad", [0.5, 2.0, "1/2", "1e3", Decimal("0.5"),
                                 None, 1j])
def test_rationals_refuses_everything_else(bad):
    with pytest.raises(ValueError) as exc:
        syntax.rationals([1, bad], "bounds")
    assert str(exc.value) == "bounds must be rationals"


# Each caller of the rational rule, with v as one of its rational
# arguments: text is refused, not parsed, and a float is refused, not
# read as a binary fraction.
SEXTIC = ThmIParams(2, Fraction(3, 2), 0, 0, 1, Fraction(1, 2))
RATIONAL_ENTRY_POINTS = {
    "ThmIParams": (lambda v: ThmIParams(v, 2, 0, 0, 1, 1), "parameters"),
    "theorem_I_refute": (
        lambda v: theorem_I_refute(SEXTIC, Fraction(1, 2), v, 0, 0),
        "a1, a2, m1 and m2"),
    "corti_bound": (lambda v: corti_bound(v, 0, 1), "a1, a2 and eps"),
    "mobile_bound_thmII": (lambda v: mobile_bound_thmII(0, v), "a1 and eps"),
    "adjunction_refute": (lambda v: adjunction_refute(v, 2),
                          "pairing and threshold"),
    "apply_involution": (lambda v: apply_involution(0, v), "h and e"),
    "untwist": (lambda v: untwist(v, 0), "mu and mult"),
    "pukhlikov_bound": (lambda v: pukhlikov_bound(v, 1, 0, "with_sigma0"),
                        "sigma0, sigma1, c"),
    "superrigidity_orbit_test": (lambda v: superrigidity_orbit_test(v, 6),
                                 "K^2"),
    "tower_coefficients": (lambda v: tower_coefficients(0, 0, [v], 1),
                           "a1, a2 and m"),
    "resolution_pairing": (lambda v: resolution_pairing(v, 1, [0], 1, [0],
                                                        1), "k, ksq and e"),
    "LP objective": (lambda v: LinearProgram(1, [v], [([1], "<=", 1)]),
                     "objective"),
    "LP row": (lambda v: LinearProgram(1, [1], [([v], "<=", 1)]),
               "coefficients"),
    "LP bound": (lambda v: LinearProgram(1, [1], [([1], "<=", v)]),
                 "bounds"),
    "SparsePoly": (lambda v: SparsePoly(2, {(1, 0): v}), "coefficients"),
    "SparsePoly.constant": (lambda v: SparsePoly.constant(2, v),
                            "constants"),
    "poly + v": (lambda v: X + v, "constants"),
    "v + poly": (lambda v: v + X, "constants"),
    "poly - v": (lambda v: X - v, "constants"),
    "v - poly": (lambda v: v - X, "constants"),
    "poly * v": (lambda v: X * v, "constants"),
    "v * poly": (lambda v: v * X, "constants"),
}


@pytest.mark.parametrize("name", RATIONAL_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [0.5, "1/2", "1e3"],
                         ids=["float", "text", "exponent-text"])
def test_rational_arguments_are_never_parsed(name, bad):
    call, what = RATIONAL_ENTRY_POINTS[name]
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{what} must be rationals"


@pytest.mark.parametrize("name", RATIONAL_ENTRY_POINTS)
def test_an_int_is_its_fraction(name):
    call = RATIONAL_ENTRY_POINTS[name][0]
    got, want = call(Fraction(1)), call(1)
    assert got == want and repr(got) == repr(want)


def test_logical_lines():
    text = "a = 1  # one\n\n   # only a comment\n\tb\r\n"
    assert list(logical_lines(text)) == [(1, "a = 1"), (4, "\tb")]


LEDGER_HEAD = "surface weights=1,1,2,3 degree=6\n"


@pytest.mark.parametrize("parse, head, line", [
    (parse_cert, 'cert "c"\n', "let v = 1"),
    (parse_ledger, LEDGER_HEAD, "curve L = line(x,y)"),
    (parse_polyid, "vars x\n", "check x == x"),
])
def test_only_spaces_and_tabs_are_blanks(parse, head, line):
    """A trailing U+00A0 is text, refused at the column where a mid-line
    one is; trailing spaces and tabs are stripped."""
    errors = []
    for tail in ("\u00a0", "\u00a0 + 2"):
        with pytest.raises(ParseError) as exc:
            parse(f"{head}{line}{tail}\n")
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"line 2, column {len(line) + 1}: ")
    parse(f"{head}{line} \t\n")


def test_continuation_line_strips_only_blanks():
    with pytest.raises(ParseError, match="^line 2, column 13: trailing"):
        parse_polyid("vars x\ncheck x ==\n  x\u00a0\n")
    assert len(parse_polyid("vars x\ncheck x ==\n \t x \t\n").checks) == 1


def test_cursor_readers():
    cur = Cursor("  name -12  -3/4 \"s t\" rest", 5)
    assert cur.ident() == "name"
    assert cur.integer() == -12
    assert cur.rational() == Fraction(-3, 4)
    assert cur.string() == "s t"
    assert not cur.take("x")
    cur.expect("rest")
    assert cur.at_end() and cur.peek() == ""


@pytest.mark.parametrize("reader", ["integer", "rational"])
def test_overlong_literal_is_positioned(reader):
    cur = Cursor("x = " + LONG, 2)
    cur.expect("x")
    cur.expect("=")
    with pytest.raises(ParseError) as exc:
        getattr(cur, reader)()
    assert (exc.value.line, exc.value.column) == (2, 5)
    assert "integer string conversion" in str(exc.value)


def test_zero_denominator_is_past_the_literal():
    with pytest.raises(ParseError) as exc:
        Cursor("3/0;", 1).rational()
    assert str(exc.value) == "line 1, column 4: zero denominator in '3/0'"


# ------------------------------------------------------- property test

CERTS = sorted(data_path("certs").glob("*.cert"))
LEDGERS = sorted(data_path("ledgers").glob("*.ledger"))
# the polyid file without its comment lines, so that edits land in
# its expressions
POLYID = "".join(
    line for line in data_path("polyid", "icosahedral-invariants.polyid")
    .read_text().splitlines(keepends=True) if not line.startswith("#"))
BASES = ([(parse_cert, p.read_text()) for p in CERTS]
         + [(parse_ledger, p.read_text()) for p in LEDGERS]
         + [(parse_polyid, POLYID)])

PIECES = st.one_of(
    st.sampled_from([
        LONG, "(" * 500, "-" * 300, "1/0", "-1", "0", "line(x,x)",
        "cut(x,0)", "weights=-1,", "degree=0", "let v = ", "check ",
        "expect ", "==", "#", '"', "\n", "\n ", " ", "^4194304",
        "*3^4194304", "*(x+y)^32768",
    ]),
    st.text(alphabet="0123456789xyztDL_=,.:+-*/^()<># \n\"", max_size=4),
)


@st.composite
def edited_inputs(draw):
    # half of the examples edit the polyid file, the one format whose
    # cost depends on the numbers in it
    parse, text = draw(st.one_of(st.sampled_from(BASES[:-1]),
                                 st.just(BASES[-1])))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 8))
        piece = draw(st.one_of(st.just(""), PIECES))
        text = text[:pos] + piece + text[pos + cut:]
    return parse, text


@settings(max_examples=800, deadline=2000, database=None,
          derandomize=True)
@given(edited_inputs())
def test_edited_inputs_raise_only_parse_error(case):
    """Random insertions, deletions and replacements in the bundled
    certificates, ledgers and polyid file: parsing either returns or
    raises ParseError, never anything else, and within the deadline
    (polyid evaluates as it parses, so the deadline holds only because
    sparsepoly bounds the degree, terms and coefficients of a
    product)."""
    parse, text = case
    try:
        parse(text)
    except ParseError:
        pass
