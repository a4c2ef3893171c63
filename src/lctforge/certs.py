"""The certificate language: parse, pretty-print, run.

A certificate is a small text file that re-derives the numeric facts
of one proof step by step:

    cert "quintic surface, six-point orbit"
    # comments run to end of line
    let bound = 10/12
    assert bound < 1
    check orbit(group="A5", space="P2") expect 6

Three statement forms:

    let IDENT = expr
    assert expr REL expr         REL in  ==  <=  <  >=  >
    check NAME(key=value, ...) [expect expr]

Expressions are exact rationals: p/q literals, identifiers bound by
earlier lets, + - * /, parentheses, unary minus (the grammar is in
``syntax``).  Check arguments may
also be quoted strings (file names, comma-separated vectors) or bare
words (mode switches like form=diagonal); a bare word that happens to
match a let binding is read as that binding.

Running a certificate never stops early: every step is evaluated and
reported, one line per step, so a broken certificate shows all of its
breakage at once.  A step FAILs when its claim is false (the step
raised ``CheckFailed``) and is an ERROR when its input is bad (see
``syntax``).  The report format is fixed:

    step <n> <PASS|FAIL|ERROR> <description> [= <value>]
    ...
    overall <PASS|FAIL>
"""

from fractions import Fraction
import operator
import os
import re
from types import SimpleNamespace

from .record import record
from .syntax import (BAD_INPUT, OPERATORS, CheckFailed, Cursor, Grammar,
                     LctforgeError, ParseError, file_name, logical_lines,
                     parse_rat, read_input)
from .localineq import (
    ThmIParams,
    check_theorem_I_hypotheses,
    implied_inequalities_lemma20,
    vertex_alpha_beta,
    theorem_I_refute,
    corti_bound,
    mobile_bound_thmII,
    adjunction_refute,
    lct_monomial,
)
from .linprog import (RELATIONS as LP_RELATIONS, LinearProgram, lp_optimize,
                      Infeasible, Unbounded)
from .resolution import (
    du_val_coefficient_bounds,
    TowerInput,
    tower_coefficients,
    ResClass,
    resolution_pairing,
)
from .lattice import (
    PicClass,
    apply_involution,
    untwist,
    pukhlikov_bound,
    min_orbit_size,
    superrigidity_orbit_test,
)
from .surfaces import amplitude, parse_ledger, ledger_consistency
from .polyid import parse_polyid, run_polyid


# ------------------------------------------------------------------ AST


# value: the Fraction of a literal, never negative; the parser builds
# it from the lexer's number, so nothing is checked here
Num = record("Num", "value")


Var = record("Var", "name")


Neg = record("Neg", "operand")


BinOp = record("BinOp", "op left right")


LetStmt = record("LetStmt", "name expr")


AssertStmt = record("AssertStmt", "lhs relation rhs")


# args: (key, Num|Var|Neg|BinOp|str) pairs in source order, a str being
# quoted text; expect: an expression or None
CheckStmt = record("CheckStmt", "name args expect")


Certificate = record("Certificate", "name steps")


# ---------------------------------------------------------------- parser


_GRAMMAR = Grammar("+-*/", SimpleNamespace(
    num=Num, var=Var, neg=Neg, binop=BinOp,
), "number, identifier or '('")


def _parse_check(cur):
    name = cur.ident("checker name")
    cur.expect("(")
    args = {}
    while True:
        key = cur.ident("argument name")
        if key in args:
            cur.fail(f"duplicate argument {key!r}", cur.end())
        cur.expect("=")
        args[key] = cur.string() if cur.peek() == '"' else _GRAMMAR.expr(cur)
        if cur.take(","):
            continue
        cur.expect(")")
        break
    expect = None
    if not cur.at_end():
        save = cur.end()
        word = cur.ident("'expect' or end of line")
        if word != "expect":
            cur.fail("expected 'expect' or end of line", save)
        expect = _GRAMMAR.expr(cur)
    return CheckStmt(name, tuple(args.items()), expect)


def parse_cert(text):
    """Parse certificate text into a Certificate; raises ParseError."""
    name = None
    steps = []
    expr = _GRAMMAR.expr
    for lineno, line in logical_lines(text):
        cur = Cursor(line, lineno)
        head = cur.ident("statement")
        if name is None:
            if head != "cert":
                cur.fail("certificate must open with: cert \"<name>\"", 0)
            name = cur.string()
            if not cur.at_end():
                cur.fail("trailing text after certificate name")
            continue
        if head == "cert":
            cur.fail("duplicate cert line", 0)
        elif head == "let":
            ident = cur.ident("name to bind")
            cur.expect("=")
            steps.append(LetStmt(ident, expr(cur)))
        elif head == "assert":
            lhs = expr(cur)
            rel = cur.toks[cur.i]
            if rel not in RELATIONS:
                cur.fail("expected one of " + " ".join(RELATIONS))
            cur.i += 1
            steps.append(AssertStmt(lhs, rel, expr(cur)))
        elif head == "check":
            steps.append(_parse_check(cur))
        else:
            cur.fail(
                f"unknown statement {head!r} (want let, assert or check)", 0
            )
        if not cur.at_end():
            cur.fail("trailing text")
    if name is None:
        raise ParseError(1, 1, "empty file: no cert line")
    return Certificate(name, tuple(steps))


# ---------------------------------------------------- pretty printing


def _prec(node):
    return _GRAMMAR.binary[node.op] if isinstance(node, BinOp) else 3


def expr_str(node):
    """Canonical text for an expression; parses back to the same tree."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = expr_str(node.operand)
        if isinstance(node.operand, BinOp):
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, BinOp):
        # a chain 1+1+...+1 is as deep as it is long, so its left
        # operands are walked in a loop; only right operands and unary
        # minus recurse, and syntax.MAX_NESTING bounds their depth
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        text = expr_str(node)
        for b in reversed(spine):
            if _prec(b.left) < _prec(b):
                text = f"({text})"
            right = expr_str(b.right)
            if _prec(b.right) <= _prec(b):
                right = f"({right})"
            text += f" {b.op} {right}"  # grows in place, so linear time
        return text
    raise ValueError(f"not an expression node: {node!r}")


def _stmt_str(stmt):
    if isinstance(stmt, LetStmt):
        return f"let {stmt.name} = {expr_str(stmt.expr)}"
    if isinstance(stmt, AssertStmt):
        return (
            f"assert {expr_str(stmt.lhs)} {stmt.relation} "
            f"{expr_str(stmt.rhs)}"
        )
    if isinstance(stmt, CheckStmt):
        parts = []
        for key, value in stmt.args:
            if isinstance(value, str):
                parts.append(f'{key}="{value}"')
            else:
                parts.append(f"{key}={expr_str(value)}")
        text = f"check {stmt.name}({', '.join(parts)})"
        if stmt.expect is not None:
            text += f" expect {expr_str(stmt.expect)}"
        return text
    raise ValueError(f"not a statement: {stmt!r}")


# ------------------------------------------------------------ evaluation


def eval_expr(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise LctforgeError(f"unbound identifier {node.name!r}")
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_expr(node.operand, env)
    if isinstance(node, BinOp):
        spine = []
        while isinstance(node, BinOp):  # as in expr_str
            spine.append(node)
            node = node.left
        value = eval_expr(node, env)
        for b in reversed(spine):
            right = eval_expr(b.right, env)
            if b.op == "/" and right == 0:
                raise LctforgeError("division by zero")
            value = OPERATORS[b.op](value, right)
        return value
    raise LctforgeError(f"cannot evaluate {node!r}")


_REL_TESTS = {"==": operator.eq, "<=": operator.le, "<": operator.lt,
              ">=": operator.ge, ">": operator.gt}
RELATIONS = tuple(_REL_TESTS)


# status is PASS, FAIL or ERROR; value is a Fraction or None
StepResult = record("StepResult", "index status description value")


class RunReport(record("RunReport", "cert_name steps")):
    __slots__ = ()

    @property
    def overall(self):
        return all(s.status == "PASS" for s in self.steps)

    def render(self):
        lines = []
        for s in self.steps:
            text = f"step {s.index} {s.status} {s.description}"
            if s.value is not None:
                text += f" = {s.value}"
            lines.append(text)
        lines.append("overall " + ("PASS" if self.overall else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {
            "cert": self.cert_name,
            "overall": "PASS" if self.overall else "FAIL",
            "steps": [
                {
                    "step": s.index,
                    "status": s.status,
                    "description": s.description,
                    "value": None if s.value is None else str(s.value),
                }
                for s in self.steps
            ],
        }


# -------------------------------------------------------------- checkers
#
# A checker pops its arguments from ``args`` and returns (value,
# detail), either of which may be None.  A false claim raises
# CheckFailed with the reason; bad input raises LctforgeError or
# another exception in syntax.BAD_INPUT.


def _need(args, key):
    if key not in args:
        raise LctforgeError(f"missing argument {key!r}")
    return args.pop(key)


def _rat(args, key):
    v = _need(args, key)
    if not isinstance(v, Fraction):
        raise LctforgeError(f"argument {key!r} must be a rational")
    return v


def _text(args, key):
    v = _need(args, key)
    if not isinstance(v, str):
        raise LctforgeError(f"argument {key!r} must be text")
    return v


def _int(args, key):
    v = _rat(args, key)
    if v.denominator != 1:
        raise LctforgeError(f"argument {key!r} must be an integer")
    return int(v)


def _csv_rats(text, what):
    try:
        return [parse_rat(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise LctforgeError(f"bad {what}: {exc}") from None


def _numbered(args, prefix):
    """Pop the values of prefix1, prefix2, ... in numeric order; a
    suffix led by 0, as in prefix01, is not a number here."""
    n = len(prefix)
    keys = sorted((int(key[n:]), key) for key in args
                  if key.startswith(prefix) and key[n:].isdigit()
                  and key[n] != "0")
    return [args.pop(key) for _, key in keys]


def _rows(args, prefix, n, message):
    """Pop the rows prefix1, prefix2, ... in numeric order, each text
    'c1,...,cn REL p/q', as constraint triples; a row that is not text
    is the error message.  REL is the one run of the characters < > =
    in the row that holds an '=', and it must be one of LP_RELATIONS."""
    rows = []
    for text in _numbered(args, prefix):
        if not isinstance(text, str):
            raise LctforgeError(message)
        rels = [r for r in re.findall("[<>=]+", text) if "=" in r]
        if not rels:
            raise LctforgeError(f"no relation in row {text!r}")
        if len(rels) > 1:
            raise LctforgeError(
                f"second relation {rels[1]!r} in row {text!r}")
        rel = rels[0]
        if rel not in LP_RELATIONS:  # such as '==' or '=<'
            raise LctforgeError(f"unknown relation {rel!r} in row "
                                f"{text!r} (want <=, >= or =)")
        left, _, right = text.partition(rel)
        coeffs = _csv_rats(left, "coefficient list")
        if len(coeffs) != n:
            raise LctforgeError(
                f"row has {len(coeffs)} coefficients, expected {n}")
        rows.append((coeffs, rel, parse_rat(right)))
    return rows


def _stated(what, names, got, stated):
    """FAIL unless the computed values got are the stated ones; the
    reason is '<what> name=value, ...' of the computed values."""
    if got != stated:
        raise CheckFailed(what + " " + ", ".join(
            f"{name}={v}" for name, v in zip(names, got)))
    return None, None


def _params(args):
    return ThmIParams(*(_rat(args, key) for key in ThmIParams._fields))


def _report_outcome(report):
    if not report.overall:
        raise CheckFailed("failing: " + report.failing)
    return None, f"{len(report.checks)} checks"


def _chk_theorem_I_hyp(args, ctx):
    return _report_outcome(check_theorem_I_hypotheses(_params(args)))


def _chk_lemma_2_0(args, ctx):
    return _report_outcome(implied_inequalities_lemma20(_params(args)))


def _chk_vertex_ab(args, ctx):
    p = _params(args)
    return _stated("vertex is", ("alpha", "beta"),
                   vertex_alpha_beta(p.A, p.B, p.M, p.N), (p.alpha, p.beta))


def _chk_theorem_I_refute(args, ctx):
    a1, a2, m1, m2 = (_rat(args, key) for key in ("a1", "a2", "m1", "m2"))
    theorem_I_refute(_params(args), a1, a2, m1, m2)
    return None, None


def _chk_corti_bound(args, ctx):
    return corti_bound(_rat(args, "a1"), _rat(args, "a2"),
                       _rat(args, "eps")), None


def _chk_thm2_bound(args, ctx):
    bound, profiles = mobile_bound_thmII(_rat(args, "a1"),
                                         _rat(args, "eps"))
    detail = None
    if profiles:
        detail = "; ".join(
            f"equality profile {p.kind} needs multiplicity "
            f"{p.required_multiplicity}"
            for p in profiles
        )
    return bound, detail


def _chk_lct_monomial(args, ctx):
    form = _text(args, "form")
    exps = _numbered(args, "m")
    if not exps:
        raise LctforgeError("need exponents m1=, m2=, ...")
    return lct_monomial(exps, form), None


def _chk_adjunction_refute(args, ctx):
    adjunction_refute(_rat(args, "pairing"), _rat(args, "threshold"))
    return None, None


def _chk_lp_max(args, ctx):
    n = _int(args, "n")
    objective = _csv_rats(_text(args, "obj"), "objective")
    rows = _rows(args, "r", n, 'rows must be strings like "1,0 <= 3/4"')
    result = lp_optimize(LinearProgram(n, objective, rows))
    if isinstance(result, Infeasible):
        raise CheckFailed("infeasible")
    if isinstance(result, Unbounded):
        raise CheckFailed("unbounded")
    witness = ", ".join(map(str, result.witness))
    return result.value, f"at ({witness})"


def _chk_du_val_bounds(args, ctx):
    n = _int(args, "n")
    extra = _rows(args, "extra", n, "extra rows must be strings")
    stated = [_rat(args, f"max{i}") for i in range(1, n + 1)]
    maxima = du_val_coefficient_bounds(n, extra)
    text = ", ".join(map(str, maxima))
    if maxima != stated:
        raise CheckFailed(f"computed maxima ({text})")
    return None, f"maxima ({text})"


def _chk_tower(args, ctx):
    a1, a2 = _rat(args, "a1"), _rat(args, "a2")
    m = _csv_rats(_text(args, "m"), "multiplicity list")
    i = _int(args, "i")
    coeffs = tower_coefficients(TowerInput(a1, a2, tuple(m)), i)
    value, inside = coeffs[i - 1]
    return value, "inside [0, 1]" if inside else "outside [0, 1]"


def _chk_pairing(args, ctx):
    n = _int(args, "n")
    ksq, k1 = _rat(args, "ksq"), _rat(args, "k1")
    e1 = _csv_rats(_text(args, "e1"), "e1")
    if "k2" in args or "e2" in args:
        k2 = _rat(args, "k2")
        e2 = _csv_rats(_text(args, "e2"), "e2")
    else:
        k2, e2 = k1, list(e1)
    c1 = ResClass(k1, ksq, tuple(e1))
    c2 = ResClass(k2, ksq, tuple(e2))
    return resolution_pairing(c1, c2, n), None


def _chk_involution(args, ctx):
    h, e = _rat(args, "h"), _rat(args, "e")
    stated = (_rat(args, "expect_h"), _rat(args, "expect_e"))
    image = apply_involution(PicClass(h, (e,) * 6))
    return _stated("image is", ("h", "e"), (image.h, image.e[0]), stated)


def _chk_untwist(args, ctx):
    mu, mult = _rat(args, "mu"), _rat(args, "mult")
    stated = (_rat(args, "mu_prime"), _rat(args, "mult_prime"))
    return _stated("untwist gives", ("mu'", "mult'"), untwist(mu, mult),
                   stated)


def _chk_pukhlikov(args, ctx):
    return pukhlikov_bound(
        _rat(args, "sigma0"), _rat(args, "sigma1"),
        _rat(args, "c"), _text(args, "form"),
    ), None


def _file_text(args, ctx):
    """The text of the file named by file=; read_input refuses ""."""
    name = _text(args, "file")
    return read_input(name and os.path.join(ctx["dir"], name))


def _chk_ledger(args, ctx):
    report = ledger_consistency(parse_ledger(_file_text(args, ctx)))
    return _report_outcome(report)


def _chk_poly_id(args, ctx):
    results = run_polyid(parse_polyid(_file_text(args, ctx)))
    for desc, witness in results:
        if witness is not None:
            raise CheckFailed(f"{desc} differs at exponent {witness}")
    return None, f"{len(results)} identities"


def _chk_amplitude(args, ctx):
    weights = _csv_rats(_text(args, "weights"), "weights")
    return Fraction(amplitude(weights, _int(args, "d"))), None


def _chk_orbit(args, ctx):
    datum = min_orbit_size(_text(args, "group"), _text(args, "space"))
    sizes = ", ".join(str(s) for s in sorted(datum.known_orbit_sizes))
    return Fraction(datum.min_orbit), f"known orbits {{{sizes}}}"


def _chk_superrigid(args, ctx):
    if not superrigidity_orbit_test(_rat(args, "ksq"),
                                    _rat(args, "min_orbit")):
        raise CheckFailed("an orbit smaller than K^2 exists")
    return None, None


# "check NAME(...)" runs the function _chk_NAME above
CHECKERS = {name[5:]: f for name, f in globals().items()
            if name.startswith("_chk_")}


# ------------------------------------------------------------------ run


def _arg_value(node, env):
    """A check argument: quoted text stays text, a bare unbound name is
    a mode word, anything else evaluates to a rational."""
    if isinstance(node, str):
        return node
    if isinstance(node, Var) and node.name not in env:
        return node.name
    return eval_expr(node, env)


def _refuse_leftovers(name, args, expect, value):
    """The two input errors that outrank a checker's FAIL: arguments it
    did not take, and an expect on a checker that returns no value."""
    if args:
        extra = ", ".join(sorted(args))
        raise LctforgeError(f"unexpected argument(s): {extra}")
    if expect is not None and value is None:
        raise LctforgeError(f"checker {name!r} returns no value to "
                            "compare against expect")


def _run_check(stmt, env, ctx):
    """Evaluate a check's arguments and expect, run its checker; returns
    (expect, value, detail)."""
    if stmt.name not in CHECKERS:
        known = ", ".join(sorted(CHECKERS))
        raise LctforgeError(
            f"unknown checker {stmt.name!r} (known: {known})"
        )
    args = {k: _arg_value(v, env) for k, v in stmt.args}
    expect = None if stmt.expect is None else eval_expr(stmt.expect, env)
    try:
        value, detail = CHECKERS[stmt.name](args, ctx)
    except CheckFailed:
        _refuse_leftovers(stmt.name, args, expect, None)
        raise
    _refuse_leftovers(stmt.name, args, expect, value)
    return expect, value, detail


def run_certificate(cert, base_dir=None):
    """Execute every step; returns a RunReport.

    Each step is PASS, FAIL on CheckFailed, or ERROR on syntax.BAD_INPUT,
    with the exception's message after the step's text.
    base_dir anchors relative file="..." arguments; it defaults to the
    current directory.
    """
    ctx = {"dir": "" if base_dir is None else os.fspath(base_dir)}
    env = {}
    steps = []
    for index, stmt in enumerate(cert.steps, start=1):
        desc = (f"let {stmt.name}" if isinstance(stmt, LetStmt)
                else _stmt_str(stmt))
        value = detail = None
        try:
            if isinstance(stmt, LetStmt):
                value = eval_expr(stmt.expr, env)
            elif isinstance(stmt, AssertStmt):
                lhs = eval_expr(stmt.lhs, env)
                rhs = eval_expr(stmt.rhs, env)
                if not _REL_TESTS[stmt.relation](lhs, rhs):
                    # a failed assert shows its values, not a reason
                    desc += f" [{lhs} {stmt.relation} {rhs} is false]"
                    raise CheckFailed()
            else:
                expect, value, detail = _run_check(stmt, env, ctx)
                if expect is not None and value != expect:
                    note = f"computed {value}, expected {expect}"
                    raise CheckFailed(f"{detail}; {note}" if detail
                                      else note)
            if value is not None:
                str(value)  # ValueError past 4,300 digits: an ERROR
        except CheckFailed as exc:
            status, detail = "FAIL", str(exc)
        except BAD_INPUT as exc:
            status, value, detail = "ERROR", None, str(exc)
        else:
            status = "PASS"
            if isinstance(stmt, LetStmt):
                env[stmt.name] = value
        if detail:
            desc = f"{desc}: {detail}"
        steps.append(StepResult(index, status, desc, value))
    return RunReport(cert.name, tuple(steps))


def run_certificate_file(path):
    """Parse and run a certificate file; relative file arguments inside
    it resolve against the certificate's own directory."""
    name = file_name(path)
    cert = parse_cert(read_input(name))
    return run_certificate(cert, base_dir=os.path.dirname(name))
