"""The one front end of the three text formats: errors, lines, tokens
and the expression grammar.

Certificates, polynomial identity files and intersection ledgers are
line-oriented: ``#`` starts a comment, blank lines are skipped, and a
``Cursor`` reads one line left to right.  Every malformed input ends
as a ``ParseError`` with a 1-based line and column.

Certificates and polyid files share one expression grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ['^' DIGITS]
    atom   := NUMBER | NAME | '(' expr ')'

NUMBER is ``p`` or ``p/q`` with no sign.  Certificates use the
operators ``"+-*/"``, polyid files ``"+-*^"`` (``1/2`` is still one
literal there).  Open ``(`` and unary ``-`` nest at most
``MAX_NESTING`` deep.  Values are made by a builder with

    num(value)         a Fraction literal, never negative
    var(name)          a name
    neg(x)             unary minus
    binop(op, x, y)    x op y; for '^', y is a nonnegative int

A builder refuses a name or an operand by raising ``ValueError``,
which becomes a ``ParseError`` at the column of the name or the
operator.  Certificates build a tree
(``certs.Num`` ...); polyid evaluates ``SparsePoly``s as it parses.

Two kinds of outcome say that something did not check out, and they
are kept apart on purpose.  Bad input is any exception in
``BAD_INPUT``: an ``LctforgeError`` (with ``ParseError``), or a
``ValueError`` (such as a file that is not UTF-8 or a value past 4,300
digits), ``ZeroDivisionError`` or ``OSError`` from the standard
library.  It makes a certificate step ERROR, or exit status 2.
``CheckFailed`` is a well-formed claim that is false, with the reason
as its message: a step FAIL, or exit status 1.  It is not bad input.
The command line exits with the worst status it saw.
"""

import re

from .rational import parse_rat

MAX_NESTING = 100

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
INTEGER = re.compile(r"-?[0-9]+")
RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
NUMBER = re.compile(r"[0-9]+(?:/[0-9]+)?")
DIGITS = re.compile(r"[0-9]+")


class LctforgeError(Exception):
    """Input that lctforge refuses; the command line exits 2 on it."""


class CheckFailed(Exception):
    """A well-formed claim is false; the message says why."""


BAD_INPUT = (LctforgeError, ValueError, ZeroDivisionError, OSError)


class ParseError(LctforgeError):
    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def logical_lines(text):
    """(line number, text) of each line that is not blank once its
    comment is stripped, with trailing whitespace removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


class Cursor:
    """A read position in one line.  Every reader skips spaces and tabs
    first, and a failed read raises ParseError where it stopped."""

    __slots__ = ("text", "line", "pos")

    def __init__(self, text, line):
        self.text = text
        self.line = line
        self.pos = 0

    def fail(self, message, pos=None):
        column = (self.pos if pos is None else pos) + 1
        raise ParseError(self.line, column, message)

    def skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        self.pos = pos

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        """The next character, or "" at the end of the line."""
        self.skip_ws()
        return self.text[self.pos:self.pos + 1]

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
        """Read one match of a compiled pattern; returns its text."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def ident(self, what="name"):
        return self.match(NAME, what)

    def integer(self, what="integer"):
        return self._literal(INTEGER, what, int, None)

    def rational(self, what="rational", pattern=RATIONAL, zero="in"):
        """A Fraction; a zero denominator is an error just past the
        literal, 'zero denominator <zero> <literal>'."""
        return self._literal(pattern, what, parse_rat, zero)

    def _literal(self, pattern, what, convert, zero):
        lit = self.match(pattern, what)
        try:
            return convert(lit)
        except ZeroDivisionError:
            self.fail(f"zero denominator {zero} {lit!r}")
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            self.fail(str(exc), self.pos - len(lit))

    def string(self):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            self.fail("expected string in double quotes")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            self.fail("unterminated string")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        return value


class Grammar:
    """The expression grammar over one operator set and one builder;
    ``what`` names the expected atom in the error for a missing one."""

    def __init__(self, ops, builder, what):
        self.mul_ops = frozenset("*/") & frozenset(ops)
        self.power = "^" in ops
        self.build = builder
        self.what = what

    def expr(self, cur, depth=0):
        value = self.term(cur, depth)
        while (op := cur.peek()) == "+" or op == "-":
            at = cur.pos
            cur.pos += 1
            value = self._binop(cur, op, value, self.term(cur, depth), at)
        return value

    def term(self, cur, depth):
        value = self.factor(cur, depth)
        while (op := cur.peek()) in self.mul_ops:
            at = cur.pos
            cur.pos += 1
            value = self._binop(cur, op, value, self.factor(cur, depth), at)
        return value

    def factor(self, cur, depth):
        ch = cur.peek()
        if ch == "-" or ch == "(":
            if depth == MAX_NESTING:
                cur.fail(f"nesting deeper than {MAX_NESTING} levels")
            cur.pos += 1
            if ch == "-":
                return self.build.neg(self.factor(cur, depth + 1))
            value = self.expr(cur, depth + 1)
            cur.expect(")")
        elif ch.isdigit():
            value = self.build.num(
                cur.rational("number", NUMBER, "in literal"))
        else:
            at = cur.pos
            name = cur.ident(self.what)
            try:
                value = self.build.var(name)
            except ValueError as exc:
                cur.fail(str(exc), at)
        if self.power and cur.peek() == "^":
            at = cur.pos
            cur.pos += 1
            k = cur.match(DIGITS, "nonnegative integer exponent")
            try:  # int(k) refuses over 4,300 digits
                value = self.build.binop("^", value, int(k))
            except ValueError as exc:
                cur.fail(str(exc), at)
        return value

    def _binop(self, cur, op, x, y, at):
        try:
            return self.build.binop(op, x, y)
        except ValueError as exc:
            cur.fail(str(exc), at)
