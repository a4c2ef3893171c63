"""Polynomial identity files: declare variables, build named
polynomials, check identities exactly.

Line-oriented format, `#` comments:

    vars x y z
    poly f2 = x^2 + y*z
    check f2^2 == x^4 + 2*x^2*y*z + y^2*z^2

Expressions use + - * ^ and parentheses, with explicit `*` and
nonnegative integer exponents after `^` (the grammar is in ``syntax``);
a power or product of degree past ``sparsepoly.MAX_DEGREE`` is a parse
error at its `^` or `*`.  Coefficients are integers or p/q rationals.
Names refer to variables or previously defined polys.  Each expression
is evaluated as it is parsed.
A line that starts with a space or tab continues the previous directive,
so long polynomials can be folded across lines.
"""

import operator
from types import SimpleNamespace

from .record import record
from .sparsepoly import SparsePoly, poly_equal
from .syntax import (BLANKS, OPERATORS, Cursor, Grammar, ParseError,
                     logical_lines)


# lhs and rhs are SparsePolys
PolyIdCheck = record("PolyIdCheck", "description lhs rhs")


# polys maps each name to its SparsePoly
PolyIdFile = record("PolyIdFile", "variables polys checks")


def _evaluator(env, arity):
    """The grammar's builder: evaluates as it parses, over the names in
    env (the variables and the polys bound so far).  A degree past
    sparsepoly.MAX_DEGREE raises ValueError from `*` or `^`."""

    def var(name):
        if name not in env:
            raise ValueError(f"unknown name {name!r}")
        return env[name]

    return SimpleNamespace(
        num=lambda value: SparsePoly.constant(arity, value), var=var,
        neg=operator.neg, binop=lambda op, x, y: OPERATORS[op](x, y),
    )


def _logical_lines(text):
    """Fold indented continuation lines into the directive they
    follow."""
    out = []
    for lineno, line in logical_lines(text):
        if line[0] in " \t":
            if not out:
                raise ParseError(
                    lineno, 1, "continuation line with nothing to continue"
                )
            start, body = out[-1]
            out[-1] = (start, body + " " + line.lstrip(BLANKS))
        else:
            out.append((lineno, line))
    return out


def parse_polyid(text):
    """Parse and evaluate a polynomial identity file."""
    variables = None
    env = {}
    polys = {}
    checks = []
    for lineno, line in _logical_lines(text):
        cur = Cursor(line, lineno)
        head = cur.ident("directive")
        if head == "vars":
            if variables is not None:
                cur.fail("vars line given twice", cur.end())
            names = []
            while not cur.at_end():
                names.append(cur.ident("variable name"))
            if not names:
                cur.fail("vars line needs at least one variable")
            if len(set(names)) != len(names):
                cur.fail("duplicate variable name")
            variables = tuple(names)
            for k, name in enumerate(names):
                env[name] = SparsePoly.variable(len(names), k)
            expr = Grammar("+-*^", _evaluator(env, len(names)),
                           "name or number").expr
        elif variables is None and head in ("poly", "check"):
            cur.fail(f"vars line must come before {head}", cur.end())
        elif head == "poly":
            name = cur.ident("polynomial name")
            if name in env:
                cur.fail(f"name {name!r} already bound", cur.end())
            cur.expect("=")
            env[name] = polys[name] = expr(cur)
        elif head == "check":
            start = cur.i
            lhs = expr(cur)
            lhs_text = cur.source(start)
            cur.expect("==")
            start = cur.i
            rhs = expr(cur)
            checks.append(PolyIdCheck(f"{lhs_text} == {cur.source(start)}",
                                      lhs, rhs))
        else:
            cur.fail(f"unknown directive {head!r}", 0)
        if not cur.at_end():
            cur.fail("trailing text")
    if variables is None:
        raise ParseError(1, 1, "empty file: no vars line")
    return PolyIdFile(variables, polys, tuple(checks))


def run_polyid(f):
    """Evaluate every check; returns a list of (description, witness)
    with the ``poly_equal`` result as witness: None when the identity
    holds, else the exponent tuple where the two sides differ."""
    return [
        (c.description, poly_equal(c.lhs, c.rhs)) for c in f.checks
    ]
