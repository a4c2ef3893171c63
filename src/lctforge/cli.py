"""The lctforge command line tool.

    lctforge verify CERT [CERT ...]     run certificate files
    lctforge ledger FILE                audit an intersection ledger
    lctforge vertex-ab A B M N          solve for the vertex (alpha, beta)
    lctforge poly-id FILE               check polynomial identities
    lctforge bounds corti A1 A2 EPS     classical multiplicity bound
    lctforge bounds thm2 A1 EPS         mobile self-intersection bound
    lctforge bounds lct M1,M2,...       monomial thresholds, both forms

All numbers are read and written as exact fractions p/q of ASCII
digits, maybe after '-' (``syntax.parse_rat``; `1_0`, `+1` or `1/-2`
is refused).  `--json` (global or per subcommand) switches output to
JSON.  Exit status, the worst one wins: 0 everything passed, 1 a
claim FAILed, 2 bad input (a step ERROR, or a file or argument
refused; see ``syntax``).  Each subcommand returns its status and its
output, rendered in the form asked for; ``main`` prints the output,
or turns ``syntax.BAD_INPUT`` into exit 2 with one stderr line and
nothing on stdout.
"""

import argparse
import functools
from json.encoder import encode_basestring_ascii
import re
import sys

from .localineq import (
    vertex_alpha_beta,
    corti_bound,
    mobile_bound_thmII,
    lct_monomial,
)
from .surfaces import parse_ledger, ledger_consistency
from .polyid import parse_polyid, run_polyid
from .certs import run_certificate_file
from .syntax import (BAD_INPUT, CheckFailed, LctforgeError, parse_rat,
                     read_input)


_STEP_STATUS = {"PASS": 0, "FAIL": 1, "ERROR": 2}
# argparse reads an argument that starts with '-' as an option unless
# it matches its parser's negative-number pattern, which is -p or a
# decimal; this one adds -p/q, so that a negative fraction is a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _json(payload):
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) and a
    newline, written in one pass, since json (CPython 3.10-3.13) never
    uses its C encoder with an indent.  A payload is made of dicts with
    str keys, lists, and values of exactly the types in _SCALARS; any
    other value, a float or a Fraction too, is a TypeError."""
    return _doc(payload, "\n") + "\n"


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _doc(value, newline):
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if not isinstance(value, (dict, list)):
        raise TypeError(f"{type(value).__name__} is not written as JSON")
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, list):
        return "[" + ",".join([inner + _doc(item, inner)
                               for item in value]) + newline + "]"
    return "{" + ",".join([
        f"{inner}{encode_basestring_ascii(key)}: {_doc(item, inner)}"
        for key, item in sorted(value.items())]) + newline + "}"


def _output(args, payload, text):
    """The --json document of payload, or the lines text(payload)."""
    if args.json:
        return _json(payload)
    return "".join(f"{line}\n" for line in text(payload))


def _cmd_verify(args):
    reports = []
    status = 0
    for name in args.files:
        try:
            report = run_certificate_file(name)
        except BAD_INPUT as exc:
            print(f"{name}: {exc}" if name else exc, file=sys.stderr)
            status = 2
            continue
        reports.append((name, report))
        status = max([status] + [_STEP_STATUS[s.status]
                                 for s in report.steps])
    if args.json:
        return status, _json([{**report.to_json(), "file": name}
                              for name, report in reports])
    return status, "".join(f'{name}: cert "{report.cert_name}"\n'
                           + report.render() for name, report in reports)


def _audit(args, checks, describe):
    """Status and output of a file of checks: one PASS/FAIL line per
    check, describe(check) after the verdict, then the overall one."""
    overall = "PASS" if all(c["holds"] for c in checks) else "FAIL"
    payload = {"file": args.file, "overall": overall, "checks": checks}
    return int(overall == "FAIL"), _output(args, payload, lambda p: [
        f"{'PASS' if c['holds'] else 'FAIL'} {describe(c)}"
        for c in p["checks"]
    ] + [f"overall {p['overall']}"])


def _cmd_ledger(args):
    report = ledger_consistency(parse_ledger(read_input(args.file)))
    checks = [dict(c._asdict(), lhs=str(c.lhs), rhs=str(c.rhs))
              for c in report.checks]
    return _audit(args, checks, lambda c:
                  f"{c['name']}: {c['lhs']} {c['relation']} {c['rhs']}")


def _cmd_poly_id(args):
    results = run_polyid(parse_polyid(read_input(args.file)))
    checks = [
        {
            "identity": desc,
            "holds": witness is None,
            "witness": None if witness is None else list(witness),
        }
        for desc, witness in results
    ]
    return _audit(args, checks, lambda c: c["identity"] if c["holds"] else
                  f"{c['identity']} (differs at exponent "
                  f"{tuple(c['witness'])})")


def _cmd_vertex_ab(args):
    a, b, m, n = (parse_rat(v) for v in (args.A, args.B, args.M, args.N))
    try:
        alpha, beta = vertex_alpha_beta(a, b, m, n)
    except CheckFailed as exc:
        return 1, _output(args, {"infeasible": str(exc)},
                          lambda p: [f"infeasible: {p['infeasible']}"])
    payload = {"alpha": str(alpha), "beta": str(beta)}
    return 0, _output(args, payload,
                      lambda p: [f"{k} = {v}" for k, v in p.items()])


_BOUNDS_ARITY = {"corti": 3, "thm2": 2, "lct": 1}


def _cmd_bounds(args):
    want = _BOUNDS_ARITY[args.kind]
    if len(args.values) != want:
        raise LctforgeError(f"bounds {args.kind} takes {want} value(s), "
                            f"got {len(args.values)}")
    if args.kind == "lct":
        exps = [parse_rat(v) for v in args.values[0].split(",")]
        payload = {form: str(lct_monomial(exps, form))
                   for form in ("diagonal", "product")}
        return 0, _output(args, payload,
                          lambda p: [f"{k} {v}" for k, v in p.items()])
    values = [parse_rat(v) for v in args.values]
    if args.kind == "corti":
        return 0, _output(args, {"bound": str(corti_bound(*values))},
                          lambda p: [p["bound"]])
    bound, profiles = mobile_bound_thmII(*values)
    payload = {
        "bound": str(bound),
        "equality_profiles": [
            {"kind": p.kind,
             "multiplicity": str(p.required_multiplicity)}
            for p in profiles
        ],
    }
    return 0, _output(args, payload, lambda p: [p["bound"]] + [
        f"equality profile {e['kind']}: multiplicity {e['multiplicity']}"
        for e in p["equality_profiles"]
    ])


@functools.cache
def build_parser():
    """The one parser of the process, built on first use; parsing does
    not change it, so every call of ``main`` shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit JSON instead of text",
    )
    parser = argparse.ArgumentParser(
        prog="lctforge", parents=[common],
        description="exact re-derivation of log canonical threshold "
                    "bounds on orbifold del Pezzo surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run certificate files")
    p.add_argument("files", nargs="+", metavar="CERT")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ledger", parents=[common],
                       help="audit an intersection ledger")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser("vertex-ab", parents=[common],
                       help="solve for the vertex (alpha, beta)")
    for name in ("A", "B", "M", "N"):
        p.add_argument(name, metavar=name)
    p.set_defaults(func=_cmd_vertex_ab)
    p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("poly-id", parents=[common],
                       help="check a polynomial identity file")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(func=_cmd_poly_id)

    p = sub.add_parser("bounds", parents=[common],
                       help="classical multiplicity and threshold bounds")
    p.add_argument("kind", choices=("corti", "thm2", "lct"))
    p.add_argument("values", nargs="+", metavar="VALUE",
                   help="corti: A1 A2 EPS; thm2: A1 EPS; "
                        "lct: M1,M2,...")
    p.set_defaults(func=_cmd_bounds)
    p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv.count("--") > 1:
        # argparse would drop a second "--", or pass [] for a value
        print("'--' may be given only once", file=sys.stderr)
        return 2
    # the one default of --json, which every parser leaves unset
    args = build_parser().parse_args(argv, argparse.Namespace(json=False))
    try:
        status, output = args.func(args)
    except BAD_INPUT as exc:
        where = f"{args.file}: " if getattr(args, "file", "") else ""
        print(f"{where}{exc}", file=sys.stderr)
        return 2
    try:
        print(output, end="")
    except UnicodeEncodeError:  # a locale that cannot show UTF-8 input
        sys.stdout.flush()
        sys.stdout.buffer.write(output.encode())
    return status


if __name__ == "__main__":
    sys.exit(main())
