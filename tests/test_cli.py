import contextlib
from fractions import Fraction
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lctforge
from lctforge import cli, data_path
from lctforge.certs import RunReport
from lctforge.cli import build_parser, main
from lctforge.syntax import MAX_INPUT_BYTES
import test_syntax


T1_CERT = str(data_path("certs", "wps-11-21-29-37-d95.cert"))
T1_LEDGER = str(data_path("ledgers", "wps-11-21-29-37-d95.ledger"))
POLYID = str(data_path("polyid", "icosahedral-invariants.polyid"))
DATA_DIR = Path(__file__).resolve().parent / "data"


def test_verify_bundled_cert(capsys):
    assert main(["verify", T1_CERT]) == 0
    out = capsys.readouterr().out
    assert f'{T1_CERT}: cert "' in out
    assert "overall PASS" in out
    assert "FAIL" not in out


def test_verify_failing_cert(tmp_path, capsys):
    bad = tmp_path / "bad.cert"
    bad.write_text('cert "bad"\nassert 1 == 2\n')
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "overall FAIL" in out


def test_verify_missing_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "none.cert")]) == 2
    assert "none.cert" in capsys.readouterr().err


def test_verify_unparsable(tmp_path, capsys):
    bad = tmp_path / "junk.cert"
    bad.write_text("this is not a certificate\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_verify_reports_every_readable_file(json_mode, tmp_path, capsys):
    (tmp_path / "good.cert").write_text('cert "good"\nassert 1 < 2\n')
    (tmp_path / "junk.cert").write_text("this is not a certificate\n")
    (tmp_path / "bad.cert").write_text('cert "bad"\nassert 1 == 2\n')
    names = [str(tmp_path / n)
             for n in ("good.cert", "none.cert", "junk.cert", "bad.cert")]
    argv = ["verify"] + (["--json"] if json_mode else []) + names
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"{names[1]}: [Errno 2] No such file or directory: '{names[1]}'",
        f'{names[2]}: line 1, column 1: certificate must open with: '
        'cert "<name>"',
    ]
    if json_mode:
        payload = json.loads(captured.out)
        assert [(e["file"], e["overall"]) for e in payload] == [
            (names[0], "PASS"), (names[3], "FAIL")]
    else:
        assert captured.out == (
            f'{names[0]}: cert "good"\nstep 1 PASS assert 1 < 2\n'
            "overall PASS\n"
            f'{names[3]}: cert "bad"\n'
            "step 1 FAIL assert 1 == 2 [1 == 2 is false]\noverall FAIL\n"
        )


def _int_to_str_message():
    with pytest.raises(ValueError) as exc:
        str(10 ** 5000)
    return str(exc.value)


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_verify_value_too_long_to_print_is_step_error(json_mode, tmp_path,
                                                      capsys):
    cert = tmp_path / "big.cert"
    cert.write_text(
        f'cert "big"\nlet a = {"9" * 4000}\n'
        "assert a * a > 1\n"
        "assert a * a < 1\n"
        "let b = a * a\n"
        'check amplitude(weights="1,1,2,3", d=6) expect a * a\n'
        "let c = 1\n"
    )
    argv = ["verify"] + (["--json"] if json_mode else []) + [str(cert)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    why = _int_to_str_message()
    want = [
        ("PASS", "let a", "9" * 4000),
        ("PASS", "assert a * a > 1", None),
        ("ERROR", f"assert a * a < 1: {why}", None),
        ("ERROR", f"let b: {why}", None),
        ("ERROR", 'check amplitude(weights="1,1,2,3", d=6) expect a * a: '
                  + why, None),
        ("PASS", "let c", "1"),
    ]
    if json_mode:
        steps = json.loads(captured.out)[0]["steps"]
        assert [(s["status"], s["description"], s["value"])
                for s in steps] == want
    else:
        lines = captured.out.splitlines()
        assert lines[1:] == [
            f"step {i} {status} {desc}" + (f" = {value}" if value else "")
            for i, (status, desc, value) in enumerate(want, start=1)
        ] + ["overall FAIL"]


def test_verify_json(capsys):
    assert main(["verify", "--json", T1_CERT]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["overall"] == "PASS"
    assert payload[0]["file"] == T1_CERT
    assert payload[0]["steps"][0]["step"] == 1


def test_ledger_bundled(capsys):
    assert main(["ledger", T1_LEDGER]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("overall PASS")
    assert "FAIL" not in out


def test_ledger_bad_value(tmp_path, capsys):
    text = (
        "surface weights=1,1,2,3 degree=6\n"
        "curve L = line(x,y)\n"
        "pair D.L = 1/5\n"
    )
    f = tmp_path / "bad.ledger"
    f.write_text(text)
    assert main(["ledger", str(f)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_ledger_parse_error(tmp_path, capsys):
    f = tmp_path / "junk.ledger"
    f.write_text("curve L = line(x,y)\n")
    assert main(["ledger", str(f)]) == 2
    assert "surface line" in capsys.readouterr().err


def test_vertex_ab(capsys):
    assert main(["vertex-ab", "45/11", "52/21", "3/11", "2/7"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 675/197" in out
    assert "beta = 77/197" in out


def test_vertex_ab_json(capsys):
    assert main(["--json", "vertex-ab", "45/11", "52/21", "3/11", "2/7"]) \
        == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"alpha": "675/197", "beta": "77/197"}


JSON_FLAG_CASES = [
    ("verify", [T1_CERT]),
    ("ledger", [T1_LEDGER]),
    ("poly-id", [POLYID]),
    ("vertex-ab", ["45/11", "52/21", "3/11", "2/7"]),
    ("bounds", ["corti", "1/2", "1/3", "1/10"]),
    ("bounds", ["thm2", "1/2", "1/10"]),
    ("bounds", ["lct", "2,3"]),
]


@pytest.mark.parametrize("command, rest", JSON_FLAG_CASES)
def test_json_flag_before_or_after_the_command(command, rest, capsys):
    # the global flag and the subcommand's own flag mean the same thing
    outputs = []
    for argv in (["--json", command, *rest], [command, "--json", *rest]):
        status = main(argv)
        out = capsys.readouterr().out
        json.loads(out)
        outputs.append((status, out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


# ------------------------------------------------------ the --json writer

def _json_dumps(payload):
    """The oracle of the --json writer."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# characters json escapes, one it leaves as is, and ones past ASCII,
# past the BMP and a lone surrogate, beside any other character
_JSON_CHARS = st.characters() | st.sampled_from(
    ['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028",
     "\ud800", "\U0001d11e", "\U0010ffff"])
_JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-10**80, max_value=10**80)
    | st.text(_JSON_CHARS),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(_JSON_CHARS), inner,
                                     max_size=4)),
    max_leaves=40)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(_JSON_PAYLOADS)
@example([])
@example({"": [], "a": {}, "b": [[], {}, -10**50, True, False, None]})
def test_json_writer_writes_what_json_dumps_writes(payload):
    assert cli._json(payload) == _json_dumps(payload)


@pytest.mark.parametrize("command, rest", [
    ("verify", [str(DATA_DIR / "verdict-paths.cert")]),
    ("ledger", [str(DATA_DIR / "verdict-paths.ledger")]),
    ("poly-id", [str(DATA_DIR / "verdict-paths.polyid")]),
    ("vertex-ab", ["2", "2", "1", "0"]),
] + JSON_FLAG_CASES)
def test_every_json_document_is_what_json_dumps_writes(command, rest,
                                                       monkeypatch, capsys):
    payloads = []
    write = cli._json

    def spy(payload):
        payloads.append(payload)
        return write(payload)

    monkeypatch.setattr(cli, "_json", spy)
    main([command, "--json", *rest])
    assert len(payloads) == 1
    assert capsys.readouterr().out == _json_dumps(payloads[0])


@pytest.mark.parametrize("payload", [
    0.5, Fraction(1, 2), [1, 2.0], {"value": Fraction(1, 3)},
    {"a": [{"b": float("nan")}]}, {1: "a key that is not a str"},
])
def test_json_writer_refuses_every_other_value(payload):
    with pytest.raises(TypeError):
        cli._json(payload)


def test_vertex_ab_infeasible(capsys):
    assert main(["vertex-ab", "2", "2", "1", "0"]) == 1
    out = capsys.readouterr().out
    assert "infeasible: need M < 1" in out


def test_vertex_ab_junk(capsys):
    assert main(["vertex-ab", "2", "2", "x", "0"]) == 2
    assert capsys.readouterr().err


def test_poly_id_bundled(capsys):
    assert main(["poly-id", POLYID]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("overall PASS")


def test_poly_id_failing(tmp_path, capsys):
    f = tmp_path / "no.polyid"
    f.write_text("vars x\ncheck x == x + 1\n")
    assert main(["poly-id", str(f)]) == 1
    out = capsys.readouterr().out
    assert "differs at exponent" in out


def test_poly_id_degree_past_the_limit(tmp_path, capsys):
    f = tmp_path / "big.polyid"
    f.write_text("vars x\ncheck x^4294967296 == x\n")
    assert main(["poly-id", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{f}: line 2, column 8: degree 4294967296 exceeds the limit "
        "65535 of packed exponents\n"
    )


def test_verify_degree_past_the_limit_is_step_error(tmp_path, capsys):
    (tmp_path / "big.polyid").write_text("vars x\ncheck x^4294967296 == x\n")
    cert = tmp_path / "big.cert"
    cert.write_text('cert "big"\ncheck poly_id(file="big.polyid")\n')
    assert main(["verify", str(cert)]) == 2
    out = capsys.readouterr().out
    assert ('step 1 ERROR check poly_id(file="big.polyid"): line 2, '
            "column 8: degree 4294967296 exceeds the limit") in out
    assert "overall FAIL" in out


def test_product_past_a_budget_is_bad_input(tmp_path, capsys):
    (tmp_path / "big.polyid").write_text("vars x\npoly f = 3^262144\n"
                                         "check f == f\n")
    assert main(["poly-id", str(tmp_path / "big.polyid")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "big.polyid: line 2, column 11: coefficients of up to 1625 bits "
        "exceed the limit 1024\n")
    cert = tmp_path / "big.cert"
    cert.write_text('cert "big"\ncheck poly_id(file="big.polyid")\n')
    assert main(["verify", str(cert)]) == 2
    assert ('step 1 ERROR check poly_id(file="big.polyid"): line 2, '
            "column 11: coefficients of up to 1625 bits exceed the limit "
            "1024") in capsys.readouterr().out


def test_bounds_corti(capsys):
    assert main(["bounds", "corti", "0", "0", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_bounds_thm2_with_profile(capsys):
    assert main(["bounds", "thm2", "-2", "1/2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "32"
    assert lines[1] == (
        "equality profile NegativeIntegerCoefficient: multiplicity 4"
    )


def test_bounds_lct(capsys):
    assert main(["bounds", "lct", "2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["diagonal 5/6", "product 1/3"]


def test_bounds_lct_json(capsys):
    assert main(["bounds", "--json", "lct", "2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"diagonal": "5/6", "product": "1/3"}


def test_bounds_wrong_arity(capsys):
    assert main(["bounds", "corti", "0", "0"]) == 2
    assert "takes 3 value(s)" in capsys.readouterr().err


def test_bounds_bad_eps(capsys):
    assert main(["bounds", "corti", "0", "0", "0"]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv, literal", [
    (["vertex-ab", "1/0", "1", "1", "1"], "1/0"),
    (["bounds", "corti", "1/0", "1", "1"], "1/0"),
    (["bounds", "thm2", "1", "0/0"], "0/0"),
    (["bounds", "lct", "2,-3/0"], "-3/0"),
])
def test_zero_denominator_is_bad_input(argv, literal, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"zero denominator in rational {literal!r}\n"


NOT_NUMBERS = ["1_0", "+1", "1/-2", "1 /2", "\u0661", "\uff11"]


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("argv", [
    ["vertex-ab", "{}", "1", "0", "0"],
    ["bounds", "corti", "{}", "1", "1"],
    ["bounds", "lct", "2,{}"],
])
def test_text_outside_the_number_rule_is_bad_input(argv, bad, capsys):
    assert main([a.format(bad) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed number {bad!r}\n"


@pytest.mark.parametrize("argv, out", [
    (["bounds", "lct", "1, 1"], "diagonal 1\nproduct 1\n"),
    (["bounds", "corti", " -3/4 ", "0", "1/2"], "28\n"),
    (["bounds", "corti", "--", "-0/5", "0", "1/2"], "16\n"),
])
def test_signed_number_between_blanks_is_read(argv, out, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == out


# argv, exit status, stdout, stderr; test_contract replays these under
# the other installed Python versions
NEGATIVE_FRACTION_CASES = [
    (["bounds", "corti", "-1/2", "-1/3", "1"], 0, "22/3\n", ""),
    (["bounds", "thm2", "-1/2", "1"], 0, "2\n", ""),
    (["bounds", "thm2", "-1/2", "1", "--json"], 0,
     '{\n  "bound": "2",\n  "equality_profiles": []\n}\n', ""),
    (["vertex-ab", "2", "3/2", "0", "-1/2"], 2, "",
     "N must be nonnegative, got -1/2\n"),
]


@pytest.mark.parametrize("argv, code, out, err", NEGATIVE_FRACTION_CASES)
def test_negative_fraction_is_a_value_not_an_option(argv, code, out, err,
                                                    capsys):
    """-p/q is read as a positional value, as -p is, without '--'."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_bounds_lct_refuses_a_fraction_exponent(capsys):
    assert main(["bounds", "lct", "2,1/2"]) == 2
    assert capsys.readouterr().err == "exponents must be integers\n"


@pytest.mark.parametrize("command", ["verify", "ledger", "poly-id"])
def test_empty_file_name_is_named(command, capsys):
    assert main([command, ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "empty file name\n"


# Each name is opened and reported as str(Path(name)) spells it, the
# directory of a certificate anchors its file= names, and a command
# line name is echoed as given.  The tree: d/x.cert, d/x.ledger,
# d/x.polyid, ledgers/x.ledger, and d/c.cert, which reads the five
# files of PATH_CERT.
PATH_CERT = ('cert "p"\ncheck ledger(file="./x.ledger")\n'
             'check ledger(file="../ledgers//x.ledger")\n'
             'check ledger(file="./nope.ledger")\n'
             'check poly_id(file="../ledgers//nope.polyid")\n'
             'check ledger(file="nope/")\n')
PATH_CERT_REPORT = (
    'step 1 PASS check ledger(file="./x.ledger"): 1 checks\n'
    'step 2 PASS check ledger(file="../ledgers//x.ledger"): 1 checks\n'
    'step 3 ERROR check ledger(file="./nope.ledger"): [Errno 2] No such '
    "file or directory: 'd/nope.ledger'\n"
    'step 4 ERROR check poly_id(file="../ledgers//nope.polyid"): [Errno 2] '
    "No such file or directory: 'd/../ledgers/nope.polyid'\n"
    'step 5 ERROR check ledger(file="nope/"): [Errno 2] No such file or '
    "directory: 'd/nope'\noverall FAIL\n")
PATH_LEDGER = ("surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
               "pair D.L = 1/6\n")
PATH_OUT = {
    "verify": 'cert "p"\nstep 1 PASS assert 1 == 1\noverall PASS\n',
    "ledger": "PASS D.L matches the weight formula: 1/6 == 1/6\n"
              "overall PASS\n",
    "poly-id": "PASS x == x\noverall PASS\n",
}
PATH_FILE = {"verify": "x.cert", "ledger": "x.ledger", "poly-id": "x.polyid"}


def _path_tree(root):
    (root / "d").mkdir()
    (root / "ledgers").mkdir()
    (root / "d" / "x.cert").write_text('cert "p"\nassert 1 == 1\n')
    (root / "d" / "x.ledger").write_text(PATH_LEDGER)
    (root / "ledgers" / "x.ledger").write_text(PATH_LEDGER)
    (root / "d" / "x.polyid").write_text("vars x\ncheck x == x\n")
    (root / "d" / "c.cert").write_text(PATH_CERT)


@pytest.mark.parametrize("spelling", ["./d/NAME", "d//NAME", "d/./NAME",
                                      "d/NAME/", "d/NAME"])
@pytest.mark.parametrize("command", ["verify", "ledger", "poly-id"])
def test_file_names_open_what_path_spells(command, spelling, tmp_path,
                                          monkeypatch, capsys):
    _path_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    name = spelling.replace("NAME", PATH_FILE[command])
    assert main([command, name]) == 0
    out = PATH_OUT[command]
    if command == "verify":
        out = f"{name}: {out}"
    assert capsys.readouterr() == (out, "")
    missing = spelling.replace("NAME", "y")
    assert main([command, missing]) == 2
    assert capsys.readouterr() == (
        "", f"{missing}: [Errno 2] No such file or directory: 'd/y'\n")
    assert main([command, "./y"]) == 2
    assert capsys.readouterr() == (
        "", "./y: [Errno 2] No such file or directory: 'y'\n")
    assert main([command, ""]) == 2
    assert capsys.readouterr() == ("", "empty file name\n")


@pytest.mark.parametrize("name", ["d/c.cert", "./d/c.cert", "d//c.cert",
                                  "d/./c.cert", "d/c.cert/"])
def test_file_arguments_resolve_against_the_cert(name, tmp_path,
                                                  monkeypatch, capsys):
    _path_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", name]) == 2
    assert capsys.readouterr() == (
        f'{name}: cert "p"\n' + PATH_CERT_REPORT, "")


@pytest.mark.parametrize("argv", [
    ["vertex-ab", "--", "0", "--", "0", "0/0"],
    ["bounds", "corti", "--", "1", "--", "2", "3"],
])
def test_second_double_dash_is_bad_input(argv, capsys):
    """argparse would pass [] for a value, or drop the second '--'."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "'--' may be given only once\n"


LONG = "9" * 5000
TOO_LONG = ("Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5000 digits; use sys.set_int_max_str_digits() to "
            "increase the limit")


@pytest.mark.parametrize("command,name,text,message", [
    ("verify", "long.cert", f'cert "long"\nlet x = {LONG}\n',
     f"line 2, column 9: {TOO_LONG}"),
    ("poly-id", "long.polyid", f"vars x\npoly f = {LONG}*x\n",
     f"line 2, column 10: {TOO_LONG}"),
    ("ledger", "long.ledger",
     f"surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
     f"pair D.L = {LONG}/5\n",
     f"line 3, column 12: {TOO_LONG}"),
    ("verify", "deep.cert", 'cert "deep"\nlet x = ' + "(" * 300 + "1"
     + ")" * 300 + "\n",
     "line 2, column 109: nesting deeper than 100 levels"),
    ("poly-id", "deep.polyid", "vars x\npoly f = " + "(" * 300 + "x"
     + ")" * 300 + "\n",
     "line 2, column 110: nesting deeper than 100 levels"),
    ("ledger", "wide.ledger", "surface weights={},{},{},{} degree={}\n"
     "curve L = line(x,y)\npair D.L = 1\n".format(
         *(10 ** 2200 + k for k in (1, 3, 7, 9)), 3 * 10 ** 2200),
     _int_to_str_message()),
], ids=["verify-literal", "poly-id-literal", "ledger-literal",
        "verify-nesting", "poly-id-nesting", "ledger-value-to-print"])
def test_overlong_or_deep_input_is_bad_input(command, name, text, message,
                                             tmp_path, capsys):
    f = tmp_path / name
    f.write_text(text)
    assert main([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{f}: {message}\n"


@pytest.mark.parametrize("n", [1100, 100000])  # 2 KB and 200 KB chains
def test_long_operator_chains_are_verified(n, tmp_path, capsys):
    """A chain 1+1+...+1 of n terms in a let, an assert, a check argument
    and an expect is evaluated and printed, not a RecursionError."""
    chain = "+".join(["1"] * n)
    f = tmp_path / "chain.cert"
    f.write_text(f'cert "chain"\nlet v = {chain}\nassert {chain} == {n}\n'
                 f'check amplitude(weights="1,1,2,3", d={chain})\n'
                 f'check amplitude(weights="1,1,2,3", d=6) expect '
                 f'{chain} - {n - 1}\n')
    assert main(["verify", str(f)]) == 0
    text = " + ".join(["1"] * n)
    assert capsys.readouterr().out.splitlines() == [
        f'{f}: cert "chain"',
        f"step 1 PASS let v = {n}",
        f"step 2 PASS assert {text} == {n}",
        f'step 3 PASS check amplitude(weights="1,1,2,3", d={text}) '
        f"= {7 - n}",
        f'step 4 PASS check amplitude(weights="1,1,2,3", d=6) expect '
        f"{text} - {n - 1} = 1",
        "overall PASS",
    ]


SEXTIC = "surface weights=1,1,2,3 degree=6\n"


@pytest.mark.parametrize("text,message", [
    ("surface weights=-1,1,2,3 degree=6\n",
     "line 1, column 9: weights and degree must be positive"),
    (SEXTIC + "curve L = line(x,x)\n",
     "line 2, column 11: quasiline needs two distinct coordinates"),
    (SEXTIC + "curve R = cut(x,0)\n",
     "line 2, column 11: residual degree must be positive"),
    (SEXTIC + "curve L = line(x,y)\ncurve R = cut(x,5)\ndecomp x = L + R\n"
     "pair D.L = 1/6\npair D.R = 5/6\nself L = -1/12\nself R = 7/12\n",
     "missing ledger entries: pair L.R, pair R.L"),
    ("surface weights=1,1,1,1 degree=5\ncurve L = line(x,y)\n",
     "amplitude -1 is not positive: the surface is not Fano"),
    (SEXTIC + "curve L = line(x,y)\npair D.L = 1/6\n"
     "surface weights=11,21,29,37 degree=95\n",
     "line 4, column 8: surface line given twice"),
], ids=["negative-weight", "line-x-x", "cut-zero", "missing-entries",
        "non-fano", "two-surfaces"])
def test_ledger_refusals_are_bad_input(text, message, tmp_path, capsys):
    f = tmp_path / "bad.ledger"
    f.write_text(text)
    assert main(["ledger", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{f}: {message}\n"


def _read_text_message(path):
    with pytest.raises(ValueError) as exc:
        path.read_text()
    return str(exc.value)


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_verify_reports_around_a_file_that_is_not_utf8(json_mode, tmp_path,
                                                       capsys):
    (tmp_path / "good.cert").write_text('cert "good"\nassert 1 < 2\n')
    binary = tmp_path / "bin.cert"
    binary.write_bytes(b'cert "x"\n\xff\n')
    (tmp_path / "bad.cert").write_text('cert "bad"\nassert 1 == 2\n')
    names = [str(tmp_path / n) for n in ("good.cert", "bin.cert", "bad.cert")]
    argv = ["verify"] + (["--json"] if json_mode else []) + names
    assert main(argv) == 2
    captured = capsys.readouterr()
    why = _read_text_message(binary)
    assert "can't decode byte 0xff in position 9" in why
    assert captured.err == f"{binary}: {why}\n"
    if json_mode:
        payload = json.loads(captured.out)
        assert [(e["file"], e["overall"]) for e in payload] == [
            (names[0], "PASS"), (names[2], "FAIL")]
    else:
        assert captured.out.count("overall") == 2
        assert f'{names[2]}: cert "bad"' in captured.out


@pytest.mark.parametrize("command,data", [
    ("poly-id", b"vars x\n\xff\n"),
    ("ledger", SEXTIC.encode() + b"\xff\n"),
])
def test_file_that_is_not_utf8_is_bad_input(command, data, tmp_path, capsys):
    f = tmp_path / "bin.txt"
    f.write_bytes(data)
    assert main([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "can't decode byte 0xff" in captured.err
    assert captured.err == f"{f}: {_read_text_message(f)}\n"


def test_vertex_ab_value_too_long_to_print_is_bad_input(capsys):
    a = f"{10 ** 1500 + 7}/{10 ** 1499 + 3}"
    b = f"{10 ** 1500 + 11}/{10 ** 1499 + 13}"
    assert main(["vertex-ab", a, b, "0", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _int_to_str_message() + "\n"


BUNDLED = sorted(str(p) for p in data_path("certs").glob("*.cert"))


@pytest.mark.parametrize("json_mode,unused", [(False, "to_json"),
                                              (True, "render")],
                         ids=["text", "json"])
def test_verify_renders_only_the_form_asked_for(json_mode, unused,
                                                monkeypatch, capsys):
    def refuse(self):
        raise AssertionError(f"RunReport.{unused} was called")

    monkeypatch.setattr(RunReport, unused, refuse)
    argv = ["verify"] + (["--json"] if json_mode else []) + BUNDLED
    assert len(BUNDLED) == 12
    assert main(argv) == 0
    out = capsys.readouterr().out
    if json_mode:
        assert [e["overall"] for e in json.loads(out)] == ["PASS"] * 12
    else:
        assert out.count("overall PASS") == 12


# ------------------------------------------------------ one process

SRC = str(Path(lctforge.__file__).resolve().parents[1])


def _fresh(args, *, flags=("-m", "lctforge.cli"), **env):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80", **env)
    return subprocess.run([sys.executable, *flags, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_import_loads_no_code_generating_modules():
    code = ("import sys, lctforge.cli; print(' '.join(sorted({'dataclasses',"
            " 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules))))")
    proc = _fresh([], flags=("-c", code))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """main in one process, through a success, an argparse error and two
    more commands, gives what a fresh process gives for each."""
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    for argv in (["verify", "--json", T1_CERT], ["vertex-ab", "1"],
                 ["bounds", "lct", "2,3"], ["verify", T1_CERT]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _fresh(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
    assert code == 0 and out.endswith("overall PASS\n")


# ------------------------------------------------------- one way in

TOO_LONG = f"file is longer than the limit of {MAX_INPUT_BYTES} bytes"


@pytest.mark.parametrize("command", ["ledger", "poly-id", "verify"])
def test_endless_file_is_refused_at_the_limit(command, capsys):
    start = time.perf_counter()
    assert main([command, "/dev/zero"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"/dev/zero: {TOO_LONG}\n"


@pytest.mark.parametrize("checker", ["ledger", "poly_id"])
def test_endless_file_of_a_check_is_a_step_error(checker, tmp_path, capsys):
    cert = tmp_path / "zero.cert"
    cert.write_text(f'cert "zero"\ncheck {checker}(file="/dev/zero")\n')
    start = time.perf_counter()
    assert main(["verify", str(cert)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == (
        f'{cert}: cert "zero"\n'
        f'step 1 ERROR check {checker}(file="/dev/zero"): {TOO_LONG}\n'
        "overall FAIL\n")


@pytest.mark.parametrize("command, text", [
    ("verify", 'cert "padded"\nassert 1 < 2\n'),
    ("ledger", SEXTIC),
    ("poly-id", "vars x\ncheck x == x\n"),
])
def test_file_of_exactly_the_limit_is_read(command, text, tmp_path, capsys):
    f = tmp_path / "padded.txt"
    for extra, code in ((0, 0), (1, 2)):
        pad = "#" * (MAX_INPUT_BYTES - len(text) - 1 + extra)
        f.write_bytes((text + pad + "\n").encode())
        assert f.stat().st_size == MAX_INPUT_BYTES + extra
        assert main([command, str(f)]) == code
    captured = capsys.readouterr()
    assert captured.out.endswith("overall PASS\n")
    assert captured.err == f"{f}: {TOO_LONG}\n"


def test_utf8_file_is_read_whatever_the_locale(tmp_path):
    """A cert with a non-ASCII name, under a C locale that neither
    Python nor its locale coercion turns into UTF-8: read as UTF-8, and
    reported in UTF-8 since the locale cannot encode it."""
    cert = tmp_path / "name.cert"
    cert.write_bytes('cert "Fano à la Pukhlikov"\nassert 1 < 2\n'.encode())
    proc = _fresh(["verify", str(cert)],
                  LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (f'{cert}: cert "Fano à la Pukhlikov"\n'
                           "step 1 PASS assert 1 < 2\noverall PASS\n")


# ------------------------------------------------------- property test

# ~1,500-digit numerators near 10 or 1/10: values computed from a few
# of them pass the 4,300 digits that an int may have as text
HUGE = st.builds(lambda k, d, e: f"{10 ** 1500 + k}/{10 ** e + d}",
                 st.integers(-20, 20), st.integers(1, 20),
                 st.sampled_from([1499, 1501]))
VALUES = st.sampled_from([
    st.fractions(-2, 12, max_denominator=12).map(str),
    st.fractions(0, 1, max_denominator=12).map(str),  # M, N of a vertex
    HUGE,
]).flatmap(lambda s: s)
BAD = st.one_of(st.integers(-5, 5).map(lambda p: f"{p}/0"),
                st.sampled_from(["", "x", "junk", "1/", "/2", "1.5", "2,,3"]),
                st.just("--"))
# four in five tokens parse, so that most examples get as far as
# computing and printing a result
TOKENS = st.sampled_from([VALUES] * 4 + [BAD]).flatmap(lambda s: s)
EXPONENTS = st.lists(
    st.one_of(st.integers(-2, 12).map(str), st.just("x"),
              st.integers(1, 9).map(lambda k: str(10 ** 1500 + k))),
    max_size=4,
).map(",".join)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["vertex-ab", "vertex-ab", "corti",
                                    "thm2", "lct"]))
    argv = ["vertex-ab"] if command == "vertex-ab" else ["bounds", command]
    if draw(st.booleans()):
        argv.insert(1, "--json")
    if draw(st.sampled_from([True, True, True, False])):
        argv.append("--")  # a '--' before the values is accepted
    count = {"vertex-ab": 4, "corti": 3, "thm2": 2, "lct": 1}[command]
    if command != "vertex-ab":  # argparse itself counts vertex-ab's
        count = draw(st.sampled_from([count] * 3 + [count - 1, count + 1]))
    values = EXPONENTS if command == "lct" else TOKENS
    return argv + draw(st.lists(values, min_size=count, max_size=count))


@settings(max_examples=300, deadline=2000, database=None, derandomize=True)
@given(command_lines())
def test_command_line_exits_0_1_or_2(argv):
    """vertex-ab and bounds on random arguments: only argparse's
    SystemExit escapes main, the status is 0, 1 or 2, and a 2 comes with
    one stderr line and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit:
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


# Every bundled certificate, ledger and polyid file, by the command that
# reads it and its path under the data directory
DATA_FILES = [(command, p.relative_to(data_path()))
              for command, pattern in (("verify", "certs/*.cert"),
                                       ("ledger", "ledgers/*.ledger"),
                                       ("poly-id", "polyid/*.polyid"))
              for p in sorted(data_path().glob(pattern))]
# a piece of an expression many times over: a long operator chain or
# deep nesting
REPEATED = st.builds(lambda piece, k: piece * k,
                     st.sampled_from(["+1", "*1", "-1", "-("]),
                     st.integers(1, 3000))


def _code_ends(text):
    """The offset just past the code of each line that has code."""
    ends, start = [], 0
    for line in text.splitlines(keepends=True):
        code = line.partition("#")[0].rstrip()
        if code:
            ends.append(start + len(code))
        start += len(line)
    return ends or [len(text)]


@st.composite
def edited_files(draw):
    command, path = draw(st.sampled_from(DATA_FILES))
    text = data_path(path).read_text()
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # the edits of test_syntax
            pos = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 8))
            piece = draw(st.one_of(st.just(""), test_syntax.PIECES))
        else:  # at the end of a line's code, where an expression may end
            pos = draw(st.sampled_from(_code_ends(text)))
            cut, piece = 0, draw(REPEATED)
        text = text[:pos] + piece + text[pos + cut:]
    return command, path, text


@pytest.fixture(scope="module")
def data_copy(tmp_path_factory):
    """A copy of the data directory, so that an edited certificate's
    file= arguments still name the bundled ledgers and polyid file."""
    root = tmp_path_factory.mktemp("copy") / "data"
    shutil.copytree(data_path(), root)
    return root


@settings(max_examples=300, deadline=5000, database=None, derandomize=True)
@given(edited_files())
def test_edited_files_exit_0_1_or_2(data_copy, case):
    """verify, ledger and poly-id on a bundled file after random
    insertions, deletions and replacements: main returns 0, 1 or 2
    within the deadline, and raises nothing."""
    command, path, text = case
    edited = data_copy / path.parent / f"edited{path.suffix}"
    edited.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([command, str(edited)]) in (0, 1, 2)
