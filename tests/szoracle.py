"""Schwartz-Zippel oracle for polynomial identity files.

Independent of sparsepoly and polyid on purpose; it imports nothing
from lctforge and reads the file's source text itself.  Both sides of
each ``check`` are evaluated with plain Fraction arithmetic at a few
seeded integer points.  Two different polynomials of degree at most d
agree at a point drawn uniformly from S^n with probability at most
d/|S| (Schwartz 1980, Zippel 1979), so with |S| = 2*10^6 + 1 a false
identity of degree 60 shows at one of eight points all but surely,
and a true one agrees at every point.
"""

import random
import re
from fractions import Fraction

TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|\S")


def evaluate(text, env):
    """Value of one expression (+ - * ^, unary minus, parentheses,
    p/q literals) with each name looked up in env."""
    tokens = TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ""

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term():
        value = factor()
        while peek() == "*":
            take()
            value *= factor()
        return value

    def factor():
        tok = take()
        if tok == "-":
            return -factor()
        if tok == "(":
            value = expr()
            assert take() == ")"
        elif tok[0].isdigit():
            value = Fraction(tok)
        else:
            value = env[tok]
        if peek() == "^":
            take()
            value **= int(take())
        return value

    value = expr()
    assert pos == len(tokens), text
    return value


def directives(text):
    """The file's directives with comments stripped and indented
    continuation lines folded in."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] in " \t":
            out[-1] += " " + line.strip()
        else:
            out.append(line)
    return out


def agree_at_points(text, points=8, seed=1):
    """One flag per check, in file order: True when both sides agree
    at every one of the seeded integer points."""
    rng = random.Random(seed)
    envs = []
    flags = []
    for line in directives(text):
        head, _, body = line.partition(" ")
        if head == "vars":
            envs = [{name: Fraction(rng.randint(-10**6, 10**6))
                     for name in body.split()} for _ in range(points)]
        elif head == "poly":
            name, _, rhs = body.partition("=")
            for env in envs:
                env[name.strip()] = evaluate(rhs, env)
        elif head == "check":
            lhs, _, rhs = body.partition("==")
            flags.append(all(evaluate(lhs, env) == evaluate(rhs, env)
                             for env in envs))
    return flags
