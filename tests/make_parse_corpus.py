"""Build the parser outcome corpus, ``tests/data/parse-corpus.json``.

    PYTHONPATH=src python tests/make_parse_corpus.py

The corpus pins what ``parse_cert``, ``parse_ledger`` and
``parse_polyid`` make of many small edits of the bundled inputs, plus a
few hand-written lines: the canonical text of the tree, the ledger's
fields, or the polyid checks and witnesses, and for bad input the exact
``ParseError`` text.  ``tests/test_parse_corpus.py`` replays it.  It was
written once, by the parsers that read each line with a character
cursor; a later parser must reproduce it, not rewrite it.

Edits.  Each logical line of each bundled file is cut into runs of
one character class (a name or number, spaces, one punctuation
character, the inside of a string).  At the start of each run, at its
second character, and at the end of the line, one character is
deleted, one is inserted and one is replaced, the new characters taken
in turn from ``ALPHABET``.  A certificate or ledger line of a shape
already seen (the same text once names, numbers and string contents
are blanked) gets only one of the three edits at each point, in turn.

Context.  An edited certificate line is parsed after a fixed ``cert``
line (a certificate parses each statement on its own); an edited
ledger line after the unedited lines above it; an edited polyid line
inside the whole file, since later checks depend on it.

Outcomes.  ``error <ParseError text>``, or ``ok`` and: for a
certificate, ``cert_str`` of the tree without the fixed ``cert`` line;
for a ledger, the fields the edited line added to those of the lines
above it; for a polyid file, the variables, the poly names and the
``run_polyid`` results.
"""

import json
import re
import sys
from pathlib import Path

from lctforge import data_path
from lctforge.certs import parse_cert
from lctforge.polyid import parse_polyid, run_polyid
from lctforge.surfaces import parse_ledger
from lctforge.syntax import ParseError, logical_lines
from oracles import cert_str

CORPUS = Path(__file__).resolve().parent / "data" / "parse-corpus.json"

ALPHABET = ("0", "7", "x", "y", "t", "D", "L", "_", "q", "=", ",", ".",
            ":", "+", "-", "*", "/", "^", "(", ")", "<", ">", '"', " ",
            "\t", "#", ";", "²", " ", "e")

CERT_HEAD = 'cert "c"\n'

HAND = [
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve M = line(xy,z)\n"),
    ("ledger", "surface weights =1,1,2,3 degree=6\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
               "pair L.L = - 1/2\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
               "self L = -1/2\nself L = 3/0\n"),
    ("ledger", "surface weights=1/2,1,2,3 degree=6\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve L = cut(x,2/3)\n"),
    ("ledger", "surface weights==1,1,2,3 degree=6\n"),
    ("ledger", "surface weights=-1,1,2,3 degree=6\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6 junk\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
               "decomp x = L + L\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
               "point O_x index=1 type=1,2 on=L:1,\n"),
    ("ledger", "surface weights=1,1,2,3 degree=6\ncurve L = line(x,y)\n"
               "point O_x index=1 type=1,2 on=L:1 L:2\n"),
    ("cert", CERT_HEAD + "check f(a=1)  junk\n"),
    ("cert", CERT_HEAD + "check f(a=1) expect\n"),
    ("cert", CERT_HEAD + "check f(a=1) expect 2 3\n"),
    ("cert", CERT_HEAD + "check f(a=1, a=2)\n"),
    ("cert", CERT_HEAD + 'check f(a="x,y", b=-c, d=e)\n'),
    ("cert", CERT_HEAD + "check f(a==1)\n"),
    ("cert", CERT_HEAD + "let v = 2/3/4\n"),
    ("cert", CERT_HEAD + "let v = 1 / 2\n"),
    ("cert", CERT_HEAD + "let v = 1/ 2 + 1 /2\n"),
    ("cert", CERT_HEAD + "let v = 3/0\n"),
    ("cert", CERT_HEAD + "assert 1 <== 2\n"),
    ("cert", CERT_HEAD + "assert 1 =< 2\n"),
    ("cert", CERT_HEAD + "assert 1 < = 2\n"),
    ("cert", 'cert "abc\n'),
    ("cert", CERT_HEAD + 'check f(s="abc)\n'),
    ("cert", CERT_HEAD + "let v = ²\n"),
    ("cert", CERT_HEAD + "let v = 1" + "0" * 4300 + "\n"),
    ("cert", CERT_HEAD + "let v = " + "(-" * 50 + "1" + ")" * 50 + "\n"),
    ("cert", CERT_HEAD + "let v = " + "(" * 100 + "1" + ")" * 100 + "\n"),
    ("cert", CERT_HEAD + "let v = " + "(" * 101 + "1" + ")" * 101 + "\n"),
    ("cert", CERT_HEAD + "let v = " + "-" * 101 + "1\n"),
    ("polyid", "vars x\npoly f = x^-1\n"),
    ("polyid", "  vars x\n"),
    ("polyid", "vars x x\n"),
    ("polyid", "vars x\npoly f = x\n  + 1\n\t* 2\ncheck f ==   x+2\n"),
    ("polyid", "vars x\npoly f = x^2/3\n"),
    ("polyid", "vars x\npoly f = 2/3*x^2 - 1/2\ncheck f == f + 0*x\n"),
    ("polyid", "vars x\ncheck x == " + "(" * 100 + "x" + ")" * 100 + "\n"),
    ("polyid", "vars x\ncheck x == " + "(" * 101 + "x" + ")" * 101 + "\n"),
    ("polyid", "vars x y\npoly f = 3^262144\n"),
    ("polyid", "vars x y\npoly f = (x + y)^32768\n"),
    ("polyid", "vars x y\npoly f = (x + y + 1)^50 * (x - y + 2)^50\n"),
]


def _ledger_fields(text):
    """The ledger's entries in the views the corpus was written with:
    the one pairings table split into C.C', D.C and C^2, and the
    points numbered in file order."""
    if not any(logical_lines(text)):
        return {}
    led = parse_ledger(text)
    pairs, anticanonical, selfs = {}, {}, {}
    for (a, b), v in led.pairings.items():
        if a == "D" or b == "D":
            anticanonical[b if a == "D" else a] = v
        elif a == b:
            selfs[a] = v
        else:
            pairs[a, b] = v
    return {"surface": {0: led.surface}, "curves": led.curves,
            "decompositions": led.decompositions, "pairings": pairs,
            "anticanonical": anticanonical, "self_intersections": selfs,
            "singular_points": dict(enumerate(led.singular_points.values()))}


def outcome(kind, text, context=""):
    """The parse outcome of one input, as one string; ``context`` is the
    unedited part of a ledger above the edited line."""
    try:
        if kind == "cert":
            return "ok " + cert_str(parse_cert(text)).removeprefix(CERT_HEAD)
        if kind == "ledger":
            before = _ledger_fields(context)
            added = {}
            for key, entries in _ledger_fields(text).items():
                new = {k: v for k, v in entries.items()
                       if k not in before.get(key, {})
                       or before[key][k] != v}
                if new:
                    added[key] = new
            return "ok " + repr(added)
        f = parse_polyid(text)
        return "ok " + repr((f.variables, list(f.polys), run_polyid(f)))
    except ParseError as exc:
        return "error " + str(exc)


def _classes(line):
    """One class per character: a word, blanks, the inside of a
    string, or the character itself."""
    out = []
    inside = False
    for ch in line:
        if ch == '"':
            inside = not inside
            out.append('"')
        elif inside:
            out.append("s")
        elif ch.isalnum() or ch == "_":
            out.append("w")
        elif ch in " \t":
            out.append(" ")
        else:
            out.append(ch)
    return out


def edit_points(line):
    cls = _classes(line)
    points = []
    for i in range(len(line) + 1):
        if (i == 0 or i == len(line) or cls[i] != cls[i - 1]
                or (i >= 2 and cls[i] == cls[i - 1] != cls[i - 2])):
            points.append(i)
    return points


def _shape(line):
    line = re.sub(r'"[^"]*"', '""', line)
    return re.sub(r"[A-Za-z0-9_]+", "w", line)


def _next_char(counter, avoid=None):
    ch = ALPHABET[counter[0] % len(ALPHABET)]
    counter[0] += 1
    return _next_char(counter) if ch == avoid else ch


def edits(line, counter, every=True):
    """(op, column, character, edited line) of the edits of a line:
    all three at each point, or (every=False) one, in turn.
    ``counter`` is a one-element list that cycles through ALPHABET."""
    for n, i in enumerate(edit_points(line)):
        ops = "dir" if every else "dir"[n % 3]
        if i == len(line):
            ops = "i" if "i" in ops or every else ""
        for op in ops:
            if op == "d":
                yield "d", i, "", line[:i] + line[i + 1:]
            elif op == "i":
                ch = _next_char(counter)
                yield "i", i, ch, line[:i] + ch + line[i:]
            else:
                ch = _next_char(counter, line[i])
                yield "r", i, ch, line[:i] + ch + line[i + 1:]


def case_text(kind, source, lineno, edited):
    """(input, context) of one edit of line ``lineno`` of ``source``;
    the context is the unedited ledger above the line, else empty."""
    lines = source.splitlines()
    if kind == "cert":
        head = "" if lineno == 1 else CERT_HEAD
        return head + edited + "\n", ""
    before = "".join(line + "\n" for line in lines[:lineno - 1])
    if kind == "ledger":
        return before + edited + "\n", before
    return before + edited + "\n" + "".join(
        line + "\n" for line in lines[lineno:]), ""


def base_files():
    """(kind, name, text) of every bundled input, certificates first."""
    for kind, folder, pattern in (("cert", "certs", "*.cert"),
                                  ("ledger", "ledgers", "*.ledger"),
                                  ("polyid", "polyid", "*.polyid")):
        for path in sorted(data_path(folder).glob(pattern)):
            yield kind, path.name, path.read_text()


def cases(files):
    """(kind, file index, line number, op, column, character, input,
    context) of every edit case, over ``files`` as stored in the
    corpus."""
    counter = [0]
    shapes = set()
    for index, (kind, _, text) in enumerate(files):
        for lineno, line in logical_lines(text):
            every = kind == "polyid" or (kind, _shape(line)) not in shapes
            shapes.add((kind, _shape(line)))
            for op, col, ch, edited in edits(line, counter, every):
                yield (kind, index, lineno, op, col, ch,
                       *case_text(kind, text, lineno, edited))


def main():
    files = list(base_files())
    corpus = {
        "files": [list(f) for f in files],
        "hand": [[kind, text, outcome(kind, text)] for kind, text in HAND],
        "cases": [[index, lineno, op, col, ch, outcome(kind, text, context)]
                  for kind, index, lineno, op, col, ch, text, context
                  in cases(files)],
    }
    with open(CORPUS, "w") as fh:
        fh.write("{\n")
        for key in ("files", "hand", "cases"):
            fh.write(f' "{key}": [\n')
            rows = corpus[key]
            for k, row in enumerate(rows):
                sep = "," if k + 1 < len(rows) else ""
                fh.write("  " + json.dumps(row) + sep + "\n")
            fh.write(" ]" + ("," if key != "cases" else "") + "\n")
        fh.write("}\n")
    print(f"{len(corpus['cases'])} edit cases, {len(HAND)} hand-written",
          file=sys.stderr)


if __name__ == "__main__":
    main()
