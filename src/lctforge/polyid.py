"""Polynomial identity files: declare variables, build named
polynomials, check identities exactly.

Line-oriented format, `#` comments:

    vars x y z
    poly f2 = x^2 + y*z
    check f2^2 == x^4 + 2*x^2*y*z + y^2*z^2

Expressions use + - * ^ and parentheses, with explicit `*` and
nonnegative integer exponents after `^`; a power or product of degree
past ``sparsepoly.MAX_DEGREE`` is a parse error at its `^` or `*`.
Coefficients are integers or p/q rationals.  Names refer to variables
or previously defined polys.
A line that starts with whitespace continues the previous directive,
so long polynomials can be folded across lines.
"""

from dataclasses import dataclass
import re

from .rational import parse_rat
from .sparsepoly import SparsePoly, poly_equal


class PolyIdParseError(Exception):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class PolyIdCheck:
    description: str
    lhs: SparsePoly
    rhs: SparsePoly


@dataclass(frozen=True)
class PolyIdFile:
    variables: tuple
    polys: dict
    checks: tuple


class _ExprCursor:
    def __init__(self, text, lineno, env):
        self.text = text
        self.lineno = lineno
        self.env = env  # name -> SparsePoly
        self.pos = 0

    def fail(self, message):
        raise PolyIdParseError(self.lineno, self.pos + 1, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def take(self, s):
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s):
        if not self.take(s):
            self.fail(f"expected {s!r}")

    def match(self, pattern, what):
        self.skip_ws()
        m = re.compile(pattern).match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    # expr := term (('+'|'-') term)*
    # term := factor ('*' factor)*
    # factor := '-' factor | power
    # power := atom ['^' INT]
    # atom := NAME | NUMBER | '(' expr ')'
    def expr(self):
        value = self.term()
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.take("*"):
            at = self.pos - 1
            rhs = self.factor()
            value = self.apply(at, lambda: value * rhs)
        return value

    def factor(self):
        if self.take("-"):
            return -self.factor()
        return self.power()

    def power(self):
        value = self.atom()
        if self.take("^"):
            at = self.pos - 1
            k = self.match(r"[0-9]+", "nonnegative integer exponent")
            value = self.apply(at, lambda: value ** int(k))
        return value

    def apply(self, at, op):
        """Run op(); a ValueError from it (a degree past the packed
        exponent limit, an exponent too long to read) becomes a parse
        error at the operator in column at + 1."""
        try:
            return op()
        except ValueError as exc:
            self.pos = at
            self.fail(str(exc))

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.expect("(")
            value = self.expr()
            self.expect(")")
            return value
        if ch.isdigit():
            lit = self.match(r"[0-9]+(?:/[0-9]+)?", "number")
            try:
                value = parse_rat(lit)
            except ZeroDivisionError:
                self.fail(f"zero denominator in literal {lit!r}")
            arity = next(iter(self.env.values())).arity
            return SparsePoly.constant(arity, value)
        start = self.pos
        name = self.match(r"[A-Za-z_][A-Za-z0-9_]*", "name or number")
        if name not in self.env:
            self.pos = start
            self.fail(f"unknown name {name!r}")
        return self.env[name]


def _logical_lines(text):
    """Strip comments and blank lines, folding indented continuation
    lines into the directive they follow."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if line[0] in " \t":
            if not out:
                raise PolyIdParseError(
                    lineno, 1, "continuation line with nothing to continue"
                )
            start, body = out[-1]
            out[-1] = (start, body + " " + line.strip())
        else:
            out.append((lineno, line.rstrip()))
    return out


def parse_polyid(text):
    """Parse and evaluate a polynomial identity file."""
    variables = None
    env = {}
    polys = {}
    checks = []
    for lineno, line in _logical_lines(text):
        cur = _ExprCursor(line, lineno, env)
        head = cur.match(r"[A-Za-z_][A-Za-z0-9_]*", "directive")
        if head == "vars":
            if variables is not None:
                cur.fail("vars line given twice")
            names = []
            while not cur.at_end():
                names.append(cur.match(r"[A-Za-z_][A-Za-z0-9_]*",
                                       "variable name"))
            if not names:
                cur.fail("vars line needs at least one variable")
            if len(set(names)) != len(names):
                cur.fail("duplicate variable name")
            variables = tuple(names)
            for k, name in enumerate(names):
                env[name] = SparsePoly.variable(len(names), k)
        elif head == "poly":
            if variables is None:
                cur.fail("vars line must come before poly")
            name = cur.match(r"[A-Za-z_][A-Za-z0-9_]*", "polynomial name")
            if name in env:
                cur.fail(f"name {name!r} already bound")
            cur.expect("=")
            value = cur.expr()
            if not cur.at_end():
                cur.fail("trailing text")
            env[name] = value
            polys[name] = value
        elif head == "check":
            if variables is None:
                cur.fail("vars line must come before check")
            lhs_start = cur.pos
            lhs = cur.expr()
            lhs_text = cur.text[lhs_start:cur.pos].strip()
            cur.expect("==")
            rhs_start = cur.pos
            rhs = cur.expr()
            rhs_text = cur.text[rhs_start:cur.pos].strip()
            if not cur.at_end():
                cur.fail("trailing text")
            checks.append(
                PolyIdCheck(f"{lhs_text} == {rhs_text}", lhs, rhs)
            )
        else:
            cur.pos = 0
            cur.fail(f"unknown directive {head!r}")
    if variables is None:
        raise PolyIdParseError(1, 1, "empty file: no vars line")
    return PolyIdFile(variables, polys, tuple(checks))


def run_polyid(f):
    """Evaluate every check; returns a list of (description, result)
    with result Equal() or Unequal(witness)."""
    return [
        (c.description, poly_equal(c.lhs, c.rhs)) for c in f.checks
    ]
