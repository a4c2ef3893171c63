from fractions import Fraction as F
import random
import re
import time

import pytest

from lctforge import data_path
from lctforge.certs import (
    Num,
    Var,
    Neg,
    BinOp,
    LetStmt,
    AssertStmt,
    CheckStmt,
    StepResult,
    parse_cert,
    expr_str,
    run_certificate,
    run_certificate_file,
)
from lctforge.cli import main
from lctforge.syntax import ParseError
from oracles import cert_str


ALL_FORMS = """\
cert "all statement forms"
# binding and arithmetic
let half = 1/2
let neg = -half
assert (1 + half) * 2 == 3
assert 2 - (3 - 4) > 0
check corti_bound(a1=0, a2=-1/2, eps=1/2) expect 24
check orbit(group="A5", space="P1") expect 12
check lct_monomial(m1=2, m2=3, form=diagonal) expect 5/6
"""


def test_parse_all_forms():
    cert = parse_cert(ALL_FORMS)
    assert cert.name == "all statement forms"
    assert isinstance(cert.steps[0], LetStmt)
    assert cert.steps[0].name == "half"
    assert cert.steps[1].expr == Neg(Var("half"))
    assert isinstance(cert.steps[2], AssertStmt)
    assert cert.steps[2].relation == "=="
    chk = cert.steps[4]
    assert isinstance(chk, CheckStmt)
    assert chk.name == "corti_bound"
    assert chk.args[1] == ("a2", Neg(Num(F(1, 2))))
    assert chk.expect == Num(F(24))


def test_quoted_argument_is_plain_text():
    chk = parse_cert('cert "q"\ncheck ledger(file="x.ledger")\n').steps[0]
    assert chk.args == (("file", "x.ledger"),)
    assert type(chk.args[0][1]) is str


def test_cert_str_round_trip():
    cert = parse_cert(ALL_FORMS)
    text = cert_str(cert)
    again = parse_cert(text)
    assert again == cert
    assert cert_str(again) == text


def test_all_forms_runs_clean():
    report = run_certificate(parse_cert(ALL_FORMS))
    assert report.overall
    assert [s.status for s in report.steps] == ["PASS"] * 7


@pytest.mark.parametrize(
    "source",
    [
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "1 - (2 - 3)",
        "2 * 3 * 4",
        "1 / 2 / 3",
        "2 / (3 / 4)",
        "-(1 + 2)",
        "-x * y",
    ],
)
def test_expr_str_round_trip(source):
    cert = parse_cert(f'cert "e"\nlet v = {source}\n')
    node = cert.steps[0].expr
    assert expr_str(node) == source
    again = parse_cert(f'cert "e"\nlet v = {expr_str(node)}\n')
    assert again.steps[0].expr == node


STATUS_ZOO = """\
cert "status zoo"
let half = 1/2
assert half == 1/2
assert half == 2/3
let bad = nope + 1
let crash = 1 / (half - half)
check bogus(x=1)
check corti_bound(a1=0, a2=0, eps=1) expect 5
check corti_bound(a1=0, a2=0, eps=1, junk=7)
check superrigid(ksq=5, min_orbit=6) expect 1
check corti_bound(a1=0)
"""


def test_run_statuses():
    report = run_certificate(parse_cert(STATUS_ZOO))
    s = report.steps
    assert [r.status for r in s] == [
        "PASS", "PASS", "FAIL", "ERROR", "ERROR",
        "ERROR", "FAIL", "ERROR", "ERROR", "ERROR",
    ]
    assert s[0].value == F(1, 2)
    assert s[1].value is None
    assert "[1/2 == 2/3 is false]" in s[2].description
    assert "unbound identifier 'nope'" in s[3].description
    assert "division by zero" in s[4].description
    assert "unknown checker 'bogus'" in s[5].description
    assert "known:" in s[5].description
    assert "computed 4, expected 5" in s[6].description
    assert s[6].value == 4
    assert "unexpected argument(s): junk" in s[7].description
    assert "returns no value" in s[8].description
    assert "missing argument 'a2'" in s[9].description
    assert not report.overall


def test_render_format():
    report = run_certificate(parse_cert(
        'cert "r"\nlet x = 3/4\nassert x < 1\nassert x > 1\n'
    ))
    lines = report.render().splitlines()
    assert lines[0] == "step 1 PASS let x = 3/4"
    assert lines[1] == "step 2 PASS assert x < 1"
    assert lines[2] == "step 3 FAIL assert x > 1 [3/4 > 1 is false]"
    assert lines[3] == "overall FAIL"


def test_to_json():
    report = run_certificate(parse_cert(
        'cert "j"\nlet x = 1/3\nassert x <= 1\n'
    ))
    d = report.to_json()
    assert d["cert"] == "j"
    assert d["overall"] == "PASS"
    assert d["steps"][0] == {
        "step": 1, "status": "PASS", "description": "let x",
        "value": "1/3",
    }
    assert d["steps"][1]["value"] is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file: no cert line"),
        ("let x = 1\n", "must open with"),
        ('cert "a"\ncert "b"\n', "duplicate cert line"),
        ('cert "a\n', "unterminated string"),
        ('cert "a" junk\n', "trailing text after certificate name"),
        ('cert "a"\nlet x = 1 junk\n', "trailing text"),
        ('cert "a"\nfoo 1\n', "unknown statement"),
        ('cert "a"\nassert 1 ~ 2\n', "expected one of"),
        ('cert "a"\nlet x = 1/0\n', "zero denominator"),
        ('cert "a"\ncheck f(a=1, a=2)\n', "duplicate argument"),
        ('cert "a"\ncheck f(a=1) expects 2\n',
         "expected 'expect' or end of line"),
        # nesting: 100 open '(' or unary '-' parse, the 101st is refused
        pytest.param('cert "a"\nlet x = ' + "-(" * 50 + "1" + ")" * 50,
                     None, id="nesting-100"),
        pytest.param('cert "a"\nlet x = ' + "(" * 101 + "1" + ")" * 101,
                     "line 2, column 109: nesting deeper than 100 levels",
                     id="nesting-101"),
        pytest.param('cert "a"\ncheck f(a=1 - ' + "-" * 5000 + "1)",
                     "line 2, column 115: nesting deeper than 100 levels",
                     id="nesting-5000"),
    ],
)
def test_parse_errors(text, fragment):
    if fragment is None:
        parse_cert(text)
        return
    with pytest.raises(ParseError) as exc:
        parse_cert(text)
    assert fragment in str(exc.value)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_cert('cert "a"\nlet x = 1\nlet y = 1/0\n')
    assert exc.value.line == 3


@pytest.mark.parametrize("step", [
    'check lp_max(n=1, obj="1/0", r1="1 <= 1")',
    'check lp_max(n=1, obj="1", r1="1/0 <= 1")',
    'check lp_max(n=1, obj="1", r1="1 <= 1/0")',
    'check du_val_bounds(n=2, max1=1, max2=1, extra1="1,1 <= 1/0")',
    'check amplitude(weights="1,1/0,2,3", d=6)',
])
def test_zero_denominator_in_a_list_names_the_literal(step):
    report = run_certificate(parse_cert(f'cert "z"\n{step}\n'))
    assert report.steps[0].status == "ERROR"
    assert report.steps[0].description == (
        f"{step}: zero denominator in rational '1/0'"
    )
    assert not report.overall


def test_zero_denominator_in_a_list_exits_2(tmp_path, capsys):
    cert = tmp_path / "z.cert"
    cert.write_text('cert "z"\ncheck lp_max(n=1, obj="1/0", r1="1 <= 1")\n')
    assert main(["verify", str(cert)]) == 2
    assert "zero denominator in rational '1/0'" in capsys.readouterr().out


def test_du_val_system_past_the_tableau_limit_is_a_step_error(tmp_path,
                                                             capsys):
    n = 200
    stated = ", ".join(f"max{i}=1" for i in range(1, n + 1))
    cap = ",".join(["1"] + ["0"] * (n - 2) + ["1"])
    cert = tmp_path / "a200.cert"
    cert.write_text(f'cert "a200"\ncheck du_val_bounds(n={n}, {stated}, '
                    f'extra1="{cap} <= 1")\n')
    assert main(["verify", str(cert)]) == 2
    out = capsys.readouterr().out
    assert "step 1 ERROR" in out
    assert out.splitlines()[1].endswith(
        ": LP over 200 variables exceeds the tableau limit of 8192 entries")


NOT_NUMBERS = ["1_0", "+1", "1/-2", "1 /2", "\u0661", "\uff11"]


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("step, what", [
    ('check lp_max(n=1, obj="{}", r1="1 <= 1")', "objective"),
    ('check amplitude(weights="1,{},2,3", d=6)', "weights"),
    ('check tower(a1=0, a2=0, m="{}", i=1)', "multiplicity list"),
    ('check lp_max(n=1, obj="1", r1="{} <= 1")', "coefficient list"),
])
def test_text_outside_the_number_rule_is_a_step_error(step, what, bad):
    step = step.format(bad)
    report = run_certificate(parse_cert(f'cert "n"\n{step}\n'))
    assert report.steps[0].status == "ERROR"
    assert report.steps[0].description == (
        f"{step}: bad {what}: malformed number {bad!r}")


@pytest.mark.parametrize("step, value", [
    ('check lp_max(n=2, obj=" -3/4 , 1", r1="1, 1 <= 1")', 1),
    ('check amplitude(weights=" 1,1, 2 ,3 ", d=6)', 1),
    ('check tower(a1=0, a2=1, m="-0/5", i=1)', 0),
])
def test_signed_number_between_blanks_is_read_in_a_list(step, value):
    report = run_certificate(parse_cert(f'cert "n"\n{step}\n'))
    assert report.steps[0].status == "PASS"
    assert report.steps[0].value == value


@pytest.mark.parametrize("step, message", [
    ('check amplitude(weights="1,3/2,2,3", d=6)', "weights must be integers"),
    ("check lct_monomial(m1=5/2, form=product)", "exponents must be integers"),
    ('check lct_monomial(m1="2", form=product)', "exponents must be integers"),
])
def test_non_integer_is_refused_once(step, message):
    report = run_certificate(parse_cert(f'cert "i"\n{step}\n'))
    assert report.steps[0].status == "ERROR"
    assert report.steps[0].description == f"{step}: {message}"


@pytest.mark.parametrize("step", [
    "check du_val_bounds(n=0)",
    'check pairing(n=0, ksq=1, k1=1, e1="1")',
])
def test_chain_of_no_curves_is_a_step_error(step):
    report = run_certificate(parse_cert(f'cert "c"\n{step}\n'))
    assert report.steps[0].status == "ERROR"
    assert report.steps[0].description == (
        f"{step}: chain length must be at least 1")


@pytest.mark.parametrize("step, message", [
    ("check superrigid(ksq=5, min_orbit=11/2)", "min_orbit must be integers"),
    ("check superrigid(ksq=1/2, min_orbit=0)", "min_orbit must be positive"),
    ("check superrigid(ksq=0, min_orbit=11/2)", "K^2 must be positive"),
    ("check pukhlikov(sigma0=1, sigma1=-1, c=0, form=with_sigma0)",
     "with_sigma0 form needs sigma0+sigma1 != 0"),
    ("check pukhlikov(sigma0=0, sigma1=0, c=0, form=with_sigma0)",
     "with_sigma0 form needs sigma0 != 0"),
])
def test_impossible_orbit_or_pukhlikov_input_exits_2(step, message, tmp_path,
                                                     capsys):
    # the first two used to PASS and FAIL, the fourth ERRORed with the
    # bare text "Fraction(1, 0)"
    cert = tmp_path / "s.cert"
    cert.write_text(f'cert "s"\n{step}\n')
    assert main(["verify", str(cert)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        f"step 1 ERROR {step}: {message}")


def test_negative_multiplicity_is_a_step_error(tmp_path, capsys):
    # this step used to PASS with exit 0
    step = ("check theorem_I_refute(A=2, B=3/2, M=0, N=0, alpha=1, "
            "beta=1/2, a1=1/2, a2=2/3, m1=-5, m2=-7)")
    cert = tmp_path / "m.cert"
    cert.write_text(f'cert "m"\n{step}\n')
    assert main(["verify", str(cert)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        f"step 1 ERROR {step}: m1 and m2 must be nonnegative")


def _sized(checker, n):
    if checker == "lp_max":
        ones = ",".join(["1"] * n)
        return f'lp_max(n={n}, obj="{ones}", r1="{ones} <= 1")'
    stated = ", ".join(f"max{i}=1" for i in range(1, n + 1))
    return f"du_val_bounds(n={n}, {stated})"


@pytest.mark.parametrize("checker, n", [
    ("lp_max", 700), ("du_val_bounds", 1000), ("du_val_bounds", 1500),
])
def test_oversized_lp_is_refused_before_its_rows_are_built(checker, n,
                                                           tmp_path, capsys):
    cert = tmp_path / "big.cert"
    cert.write_text(f'cert "big"\ncheck {_sized(checker, n)}\n')
    start = time.perf_counter()
    assert main(["verify", str(cert)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines()[1].endswith(
        f": LP over {n} variables exceeds the tableau limit of 8192 entries")


@pytest.mark.parametrize("checker", ["ledger", "poly_id"])
def test_empty_file_name_is_a_step_error(checker, tmp_path):
    cert = parse_cert(f'cert "e"\ncheck {checker}(file="")\n')
    report = run_certificate(cert, base_dir=tmp_path)
    assert report.steps[0].status == "ERROR"
    assert report.steps[0].description == (
        f'check {checker}(file=""): empty file name')


def test_relative_file_resolution(tmp_path):
    sub = tmp_path / "ids"
    sub.mkdir()
    (sub / "sq.polyid").write_text(
        "vars x\ncheck (x + 1)^2 == x^2 + 2*x + 1\n"
    )
    cert = tmp_path / "c.cert"
    cert.write_text('cert "rel"\ncheck poly_id(file="ids/sq.polyid")\n')
    report = run_certificate_file(cert)
    assert report.overall
    assert "1 identities" in report.steps[0].description


def test_missing_file_is_step_error(tmp_path):
    cert = parse_cert('cert "m"\ncheck ledger(file="missing.ledger")\n')
    report = run_certificate(cert, base_dir=tmp_path)
    assert report.steps[0].status == "ERROR"
    assert not report.overall


def _an_form_pairing(ksq, k1, e1, k2, e2):
    """k1*k2*ksq + e1^T M e2, M the A_n form: -2 on the diagonal and 1
    beside it, summed entry by entry."""
    n = len(e1)
    total = k1 * k2 * ksq
    for i in range(n):
        for j in range(n):
            m = -2 if i == j else 1 if abs(i - j) == 1 else 0
            total += e1[i] * m * e2[j]
    return total


@pytest.mark.parametrize("n, ksq, k1, e1, k2, e2, value", [
    (2, "1", "1", "1,0", "2", "0,1", 3),  # 1*2*1 + M[0][1]
    (1, "4", "1", "3", "-1", "1/2", -7),  # -4 - 2*3*(1/2)
    (3, "1/2", "-1/3", "1,2,3", "5/2", "-1,0,1/2", F(-29, 12)),
    (4, "2", "0", "1,1,1,1", "3", "2,-1,0,1", -3),
])
def test_pairing_of_two_classes(n, ksq, k1, e1, k2, e2, value):
    step = (f'check pairing(n={n}, ksq={ksq}, k1={k1}, e1="{e1}", '
            f'k2={k2}, e2="{e2}") expect {value}')
    report = run_certificate(parse_cert(f'cert "p"\n{step}\n'))
    assert report.steps[0].status == "PASS"
    assert value == _an_form_pairing(
        F(ksq), F(k1), [F(v) for v in e1.split(",")],
        F(k2), [F(v) for v in e2.split(",")])


def test_pairing_second_class_needs_k2():
    step = 'check pairing(n=2, ksq=1, k1=1, e1="1,0", e2="0,1")'
    report = run_certificate(parse_cert(f'cert "p"\n{step}\n'))
    assert report.steps[0].status == "ERROR"
    assert report.steps[0].description == f"{step}: missing argument 'k2'"


def test_bundled_certs_all_pass():
    paths = sorted(data_path("certs").glob("*.cert"))
    assert len(paths) == 12
    for p in paths:
        report = run_certificate_file(p)
        assert report.overall, f"{p.name}:\n{report.render()}"


# One row per case: the step, its status, the text after the step's own
# text, and its value.  Rows are read in numeric order (r2 before r10),
# each checked for being text before the next is read.
ROW_CASES = [
    ('check lp_max(n=2, obj="1,1", r1="1,1 = 1", r2="1,0 >= 1/2") expect 1',
     "PASS", "at (1/2, 1/2)", 1),
    ('check lp_max(n=2, obj="-1,-1", r1="1,1 >= 2")',
     "PASS", "at (0, 2)", -2),
    ('check du_val_bounds(n=2, max1=1/3, max2=2/3, extra1="0,1 = 2/3")',
     "FAIL", "computed maxima (4/3, 2/3)", None),
    ('check lp_max(n=1, obj="1", r10="bad", r2=1)',
     "ERROR", 'rows must be strings like "1,0 <= 3/4"', None),
    ('check lp_max(n=1, obj="1", r10=1, r2="bad")',
     "ERROR", "no relation in row 'bad'", None),
    ('check du_val_bounds(n=2, max1=1, max2=1, extra2=1, extra1="0,1 <= 1")',
     "ERROR", "extra rows must be strings", None),
    ('check lp_max(n=2, obj="1,1", r1="1,1 <= 1", r2="1,1")',
     "ERROR", "no relation in row '1,1'", None),
    # a row holds one relation: a second one is named
    ('check lp_max(n=2, obj="1,1", r1="1,1 >= 1 <= 2")',
     "ERROR", "second relation '<=' in row '1,1 >= 1 <= 2'", None),
    ('check lp_max(n=2, obj="1,1", r1="1,1 = 1 = 1")',
     "ERROR", "second relation '=' in row '1,1 = 1 = 1'", None),
    ('check lp_max(n=3, obj="1,1,1", r1="1,0,1 < 1")',
     "ERROR", "no relation in row '1,0,1 < 1'", None),
    # a relation misspelled around "=" is named, not read as a number
    ('check lp_max(n=2, obj="1,1", r1="1,1 == 1")', "ERROR",
     "unknown relation '==' in row '1,1 == 1' (want <=, >= or =)", None),
    ('check lp_max(n=2, obj="1,1", r1="1,1 =< 1")', "ERROR",
     "unknown relation '=<' in row '1,1 =< 1' (want <=, >= or =)", None),
    ('check du_val_bounds(n=2, max1=1, max2=1, extra1="0,1 => 1")', "ERROR",
     "unknown relation '=>' in row '0,1 => 1' (want <=, >= or =)", None),
    # a number led by 0 is no row or exponent index: the key is left over
    ("check lct_monomial(form=diagonal, m1=2, m01=3)",
     "ERROR", "unexpected argument(s): m01", None),
    ('check lp_max(n=1, obj="1", r0="1 <= 1")',
     "ERROR", "unexpected argument(s): r0", None),
    ('check du_val_bounds(n=2, max1=2/3, max2=2/3, extra1="1,1 <= 1", '
     'extra01="0,1 <= 1")', "ERROR", "unexpected argument(s): extra01", None),
]


@pytest.mark.parametrize("step, status, detail, value", ROW_CASES)
def test_lp_rows_are_read_by_one_rule(step, status, detail, value):
    report = run_certificate(parse_cert(f'cert "rows"\n{step}\n'))
    assert report.steps[0] == StepResult(
        1, status, f"{step}: {detail}", None if value is None else F(value))


_LITERAL = re.compile(r"[0-9]+(?:/[0-9]+)?")


def _arith_text(rng, depth):
    """Expression text over + - * /, unary -, parentheses and literals
    p and p/q, with blanks or none between tokens."""
    def blank():
        return rng.choice(["", "", " ", "  ", "\t"])
    kind = rng.randrange(6) if depth else 0
    if kind <= 1:
        p = rng.choice([0, 0, 1, 2, 3, rng.randrange(1000)])
        return f"{p}/{rng.randrange(1, 13)}" if rng.random() < 0.4 else f"{p}"
    if kind == 2:
        return "-" + blank() + _arith_text(rng, depth - 1)
    if kind == 3:
        return f"({blank()}{_arith_text(rng, depth - 1)}{blank()})"
    op, right = rng.choice("+-*/"), _arith_text(rng, depth - 1)
    # a glued p/0 is a literal with a zero denominator, a parse error
    after = " " if op == "/" and right[0] == "0" else blank()
    return _arith_text(rng, depth - 1) + blank() + op + after + right


def test_certificate_arithmetic_agrees_with_python():
    # Python reads the same text, each literal as the lexer reads it (a
    # glued p/q is one literal) made a Fraction: this pins precedence,
    # associativity and what each operator means
    rng = random.Random(20)
    zero_divisions = 0
    for _ in range(3000):
        text = _arith_text(rng, rng.randrange(1, 6))
        python = _LITERAL.sub(
            lambda m: "F({})".format(m[0].replace("/", ",")), text)
        step = run_certificate(parse_cert(f'cert "a"\nlet v = {text}\n'))
        step = step.steps[0]
        try:
            value = eval(python, {"F": F})
        except ZeroDivisionError:
            zero_divisions += 1
            assert step == StepResult(1, "ERROR", "let v: division by zero",
                                      None), text
        else:
            assert step == StepResult(1, "PASS", "let v", value), text
    assert zero_divisions > 20
