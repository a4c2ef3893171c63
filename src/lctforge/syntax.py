"""The one front end of the three text formats and of argument text:
the one file reader, errors, lines, tokens, numbers and the
expression grammar; and the two rules by which a value enters the
domain, ``rationals`` (an int or a Fraction, as a Fraction) and
``integers`` (an int or a whole Fraction, as an int).  Neither reads
text or a float: a number in text is read by the lexer alone.

Every file is read by ``read_input`` alone: as UTF-8 whatever the
locale, and never more than ``MAX_INPUT_BYTES`` of it, so a file such
as ``/dev/zero`` is refused, not read until memory runs out.

Certificates, polynomial identity files and intersection ledgers are
line-oriented: lines break where ``str.splitlines`` breaks them, ``#``
starts a comment and blank lines are skipped.  One lexer turns each
logical line into a token list, and a ``Cursor`` reads that list left
to right by index.  A token is a name, an unsigned number ``p`` or
``p/q`` of ASCII digits, a string in double quotes, one of ``==``
``<=`` ``>=``, or any other single character.  The blanks are space
and tab alone: they separate tokens and are stripped from line ends,
so U+00A0 is text.  A reader that wants part of a token, such as the
coordinate ``x`` of ``xy`` or the integer ``1`` of ``1/2``, cuts it
and lexes the rest again.  Every malformed input ends as a
``ParseError`` with a 1-based line and column.  Argument text obeys
the same rules: ``parse_rat`` reads one number token, maybe after a
``-``, between blanks.  A number is written back by ``str``, which
prints a Fraction as ``p/q``, or ``p`` when q is 1.

Certificates and polyid files share one expression grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ['^' DIGITS]
    atom   := NUMBER | NAME | '(' expr ')'

NUMBER is ``p`` or ``p/q`` with no sign.  Certificates use the
operators ``"+-*/"``, polyid files ``"+-*^"`` (``1/2`` is still one
literal there).  ``OPERATORS`` says what each binary operator means.  Open ``(`` and unary ``-`` nest at most
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

from fractions import Fraction
import operator
import os
from pathlib import Path
import re

MAX_NESTING = 100
# Longest file read_input accepts, in bytes (no bundled file passes 4 KB)
MAX_INPUT_BYTES = 1 << 20

BLANKS = " \t"
_NUMBER = "[0-9]+(?:/[0-9]+)?"  # never signed
# One token per match, after the blanks before it; a blank is never a
# token.  A lone '"' is an unterminated string.
_TOKEN = re.compile(rf"""[{BLANKS}]*(
    [(),.:+*^/-]                # operator
  | [A-Za-z_][A-Za-z0-9_]*      # name
  | {_NUMBER}                   # number
  | [=<>]=?                     # relation or '='
  | "[^"]*"                     # string
  | [^{BLANKS}]                 # any other character
)""", re.X)
# A number of argument text: one number token, maybe after '-'
_RATIONAL = re.compile(rf"[{BLANKS}]*(-?{_NUMBER})[{BLANKS}]*")
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
# What x op y means, for each binary operator of the grammar
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "^": operator.pow}


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


def file_name(path):
    """str(Path(path)), the name lctforge opens and reports; an empty
    name is an LctforgeError.  Only a name that Path may respell is
    built as a Path: on POSIX one that holds "//" or "/./", starts with
    "./", or ends with "/" or "/."; every other name, and so every
    name file_name returns, is already spelled as Path spells it."""
    if not path:  # Path("") would open "."
        raise LctforgeError("empty file name")
    path = os.fspath(path)
    if (os.sep != "/" or "//" in path or "/./" in path
            or path.startswith("./") or path.endswith(("/", "/."))):
        return str(Path(path))
    return path


def read_input(path):
    """The text of the file file_name(path), decoded as UTF-8; a file
    longer than MAX_INPUT_BYTES is an LctforgeError."""
    with open(file_name(path), "rb") as f:
        # 64 KiB at a time: f.read(limit) allocates the whole limit
        data = f.read(1 << 16)
        while len(data) <= MAX_INPUT_BYTES and (more := f.read(1 << 16)):
            data += more
    if len(data) > MAX_INPUT_BYTES:
        raise LctforgeError(
            f"file is longer than the limit of {MAX_INPUT_BYTES} bytes")
    return data.decode("utf-8")


def logical_lines(text):
    """(line number, text) of each line that is not blank once its
    comment is stripped, with trailing blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip(BLANKS)
        if line:
            yield lineno, line


class Cursor:
    """The tokens of one line and a read index into them.  ``toks``
    ends with "" for the end of the line.  A failed read raises
    ParseError at the token it stopped at, or at a given column."""

    __slots__ = ("text", "line", "toks", "i", "_cols")

    def __init__(self, text, line):
        self.text = text
        self.line = line
        self.toks = toks = _TOKEN.findall(text)
        toks.append("")
        self.i = 0
        self._cols = None

    def col(self, i):
        """The 0-based column where token i starts."""
        if self._cols is None:
            # only spaces and tabs lie between tokens, so each token is
            # the first match of its text after the one before it
            text, cols, pos = self.text, [], 0
            for tok in self.toks:
                pos = text.find(tok, pos)
                cols.append(pos)
                pos += len(tok)
            cols[-1] = len(text)
            self._cols = cols
        return self._cols[i]

    def end(self):
        """The column just past the last token read."""
        return self.col(self.i - 1) + len(self.toks[self.i - 1])

    def fail(self, message, col=None):
        column = self.col(self.i) if col is None else col
        raise ParseError(self.line, column + 1, message)

    def split(self, i, n):
        """Cut token i after its first n characters and lex the rest as
        tokens of their own."""
        tok = self.toks[i]
        self.toks[i:i + 1] = [tok[:n], *_TOKEN.findall(tok[n:])]
        self._cols = None

    def at_end(self):
        return not self.toks[self.i]

    def peek(self):
        """The first character of the next token; "" at the end."""
        return self.toks[self.i][:1]

    def glued(self, i):
        """Whether token i starts right where token i - 1 ends."""
        tok, text = self.toks[i], self.text
        if " " + tok not in text and "\t" + tok not in text:
            # no blank comes before any copy of it; skipping the columns
            # saves about 3 us a call, 13% of parse_ledger on ledgers
            # with negative pairings (in-process A/B, Python 3.11)
            return True
        return self.col(i) == self.col(i - 1) + len(self.toks[i - 1])

    def take(self, s):
        """Read the text s (no blanks in it) if the line goes on with
        it: whole tokens with nothing between them, and the front of a
        token that runs past its end."""
        toks, i = self.toks, self.i
        if toks[i] == s:
            self.i = i + 1
            return True
        while (tok := toks[i]) and s.startswith(tok):
            s = s[len(tok):]
            i += 1
            if not s:
                self.i = i
                return True
            if not self.glued(i):
                return False
        if not tok.startswith(s):
            return False
        self.split(i, len(s))
        self.i = i + 1
        return True

    def expect(self, s):
        if not self.take(s):
            self.fail(f"expected {s!r}")

    def ident(self, what="name"):
        tok = self.toks[self.i]
        if tok[:1] not in _NAME_START:
            self.fail(f"expected {what}")
        self.i += 1
        return tok

    def integer(self):
        return self.number("integer", int)

    def rational(self):
        """A Fraction; a zero denominator is an error just past the
        literal, 'zero denominator in <literal>'."""
        return self.number("rational", _fraction)

    def number(self, what, convert, zero="in"):
        """convert of -?p, or of -?p/q unless convert is int; the sign
        must touch the digits.  A literal past
        sys.get_int_max_str_digits() is an error at its start."""
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok[:1] in _DIGITS:
            sign = ""
        elif tok == "-" and toks[i + 1][:1] in _DIGITS and self.glued(i + 1):
            sign = "-"
            i += 1
            tok = toks[i]
        else:
            self.fail(f"expected {what}")
        if convert is int and "/" in tok:
            self.split(i, tok.index("/"))
            tok = toks[i]
        self.i = i + 1
        try:
            return convert(sign + tok)
        except ZeroDivisionError:
            self.fail(f"zero denominator {zero} {sign + tok!r}", self.end())
        except ValueError as exc:
            self.fail(str(exc), self.end() - len(sign + tok))

    def string(self):
        tok = self.toks[self.i]
        if tok[:1] != '"':
            self.fail("expected string in double quotes")
        if len(tok) == 1:
            self.fail("unterminated string")
        self.i += 1
        return tok[1:-1]

    def source(self, start):
        """The text from token start to the last token read."""
        return self.text[self.col(start):self.end()]


def _fraction(lit):
    """'p' or 'p/q', p maybe signed, as a Fraction."""
    num, _, den = lit.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def parse_rat(text):
    """The Fraction that a Cursor reads from text holding one number
    and nothing else; other text is a ValueError that quotes it."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed number {text.strip(BLANKS)!r}")
    try:
        return _fraction(m[1])
    except ZeroDivisionError:
        raise ZeroDivisionError(
            f"zero denominator in rational {m[1]!r}") from None


def integers(values, name):
    """values as ints, never truncated: an int or a Fraction with
    denominator 1 passes, anything else is '<name> must be integers'."""
    values = tuple(values)
    if any(getattr(v, "denominator", None) != 1 for v in values):
        raise ValueError(f"{name} must be integers")
    return tuple(v.numerator for v in values)


def rationals(values, name):
    """values as Fractions: a Fraction passes, an int becomes one, and
    anything else, text and floats too, is '<name> must be rationals'."""
    out = []
    for v in values:
        if type(v) is not Fraction:
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"{name} must be rationals")
            v = Fraction(v)
        out.append(v)
    return tuple(out)


class Grammar:
    """The expression grammar over one operator set and one builder;
    ``what`` names the expected atom in the error for a missing one.
    Binary operators are read by precedence climbing (Pratt, "Top down
    operator precedence", POPL 1973)."""

    def __init__(self, ops, builder, what):
        self.binary = {op: prec for op, prec in
                       (("+", 1), ("-", 1), ("*", 2), ("/", 2)) if op in ops}
        self.power = "^" in ops
        self.build = builder
        self.what = what

    def expr(self, cur, depth=0, least=1):
        """Operands joined by operators of precedence least or more."""
        value = self.factor(cur, depth)
        toks, binary = cur.toks, self.binary
        while (prec := binary.get(toks[cur.i], 0)) >= least:
            at = cur.i
            cur.i += 1
            right = self.expr(cur, depth, prec + 1)
            try:
                value = self.build.binop(toks[at], value, right)
            except ValueError as exc:
                cur.fail(str(exc), cur.col(at))
        return value

    def factor(self, cur, depth):
        toks, i = cur.toks, cur.i
        tok = toks[i]
        if tok == "-" or tok == "(":
            if depth == MAX_NESTING:
                cur.fail(f"nesting deeper than {MAX_NESTING} levels")
            cur.i = i + 1
            if tok == "-":
                return self.build.neg(self.factor(cur, depth + 1))
            value = self.expr(cur, depth + 1)
            cur.expect(")")
        elif tok[:1] in _DIGITS:
            value = self.build.num(cur.number("number", _fraction,
                                              "in literal"))
        elif tok[:1] in _NAME_START:
            try:
                value = self.build.var(tok)
            except ValueError as exc:
                cur.fail(str(exc))
            cur.i = i + 1
        else:
            cur.fail("expected number" if tok[:1].isdigit()
                     else f"expected {self.what}")
        if self.power and toks[cur.i] == "^":
            at = cur.i
            cur.i += 1
            k = toks[cur.i]
            if k[:1] not in _DIGITS:
                cur.fail("expected nonnegative integer exponent")
            if "/" in k:
                cur.split(cur.i, k.index("/"))
            cur.i += 1
            try:  # int() refuses over 4,300 digits
                value = self.build.binop("^", value, int(toks[cur.i - 1]))
            except ValueError as exc:
                cur.fail(str(exc), cur.col(at))
        return value
