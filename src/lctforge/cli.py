"""The lctforge command line tool.

    lctforge verify CERT [CERT ...]     run certificate files
    lctforge ledger FILE                audit an intersection ledger
    lctforge vertex-ab A B M N          solve for the vertex (alpha, beta)
    lctforge poly-id FILE               check polynomial identities
    lctforge bounds corti A1 A2 EPS     classical multiplicity bound
    lctforge bounds thm2 A1 EPS         mobile self-intersection bound
    lctforge bounds lct M1,M2,...       monomial thresholds, both forms

All numbers are read and written as exact fractions p/q.  Exit status:
0 everything passed, 1 a verification failed, 2 bad input.  `--json`
(global or per subcommand) switches output to JSON.
"""

import argparse
import json
import sys

from .rational import parse_rat, rat_str
from .localineq import (
    vertex_alpha_beta,
    corti_bound,
    mobile_bound_thmII,
    lct_monomial,
)
from .surfaces import parse_ledger, ledger_consistency
from .polyid import parse_polyid, run_polyid
from .certs import parse_cert, run_certificate
from .syntax import CheckFailed, LctforgeError
from pathlib import Path


_ZERO_DENOMINATOR = "zero denominator in a rational argument"


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_verify(args):
    reports = []
    worst = 0
    for name in args.files:
        path = Path(name)
        try:
            cert = parse_cert(path.read_text())
        except (OSError, LctforgeError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            worst = 2
            continue
        report = run_certificate(cert, base_dir=path.parent)
        reports.append((name, report))
        if not report.overall:
            worst = max(worst, 1)
    if getattr(args, "json", False):
        payload = []
        for name, report in reports:
            entry = report.to_json()
            entry["file"] = name
            payload.append(entry)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, report in reports:
            print(f'{name}: cert "{report.cert_name}"')
            print(report.render(), end="")
    return worst


def _cmd_ledger(args):
    try:
        text = Path(args.file).read_text()
        report = ledger_consistency(parse_ledger(text))
    except (OSError, LctforgeError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    payload = {
        "file": args.file,
        "overall": "PASS" if report.overall else "FAIL",
        "checks": [
            {
                "name": c.name,
                "lhs": rat_str(c.lhs),
                "relation": c.relation,
                "rhs": rat_str(c.rhs),
                "holds": c.holds,
            }
            for c in report.checks
        ],
    }
    lines = [
        f"{'PASS' if c.holds else 'FAIL'} {c.name}: "
        f"{rat_str(c.lhs)} {c.relation} {rat_str(c.rhs)}"
        for c in report.checks
    ]
    lines.append("overall " + ("PASS" if report.overall else "FAIL"))
    _emit(args, payload, lines)
    return 0 if report.overall else 1


def _cmd_vertex_ab(args):
    try:
        a, b, m, n = (parse_rat(v) for v in (args.A, args.B, args.M, args.N))
        alpha, beta = vertex_alpha_beta(a, b, m, n)
    except CheckFailed as exc:
        _emit(args, {"infeasible": str(exc)}, [f"infeasible: {exc}"])
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ZeroDivisionError:
        print(_ZERO_DENOMINATOR, file=sys.stderr)
        return 2
    _emit(
        args,
        {"alpha": rat_str(alpha), "beta": rat_str(beta)},
        [f"alpha = {rat_str(alpha)}", f"beta = {rat_str(beta)}"],
    )
    return 0


def _cmd_poly_id(args):
    try:
        results = run_polyid(parse_polyid(Path(args.file).read_text()))
    except (OSError, LctforgeError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 2
    overall = all(witness is None for _, witness in results)
    payload = {
        "file": args.file,
        "overall": "PASS" if overall else "FAIL",
        "checks": [
            {
                "identity": desc,
                "holds": witness is None,
                "witness": None if witness is None else list(witness),
            }
            for desc, witness in results
        ],
    }
    lines = []
    for desc, witness in results:
        if witness is None:
            lines.append(f"PASS {desc}")
        else:
            lines.append(f"FAIL {desc} (differs at exponent {witness})")
    lines.append("overall " + ("PASS" if overall else "FAIL"))
    _emit(args, payload, lines)
    return 0 if overall else 1


_BOUNDS_ARITY = {"corti": 3, "thm2": 2, "lct": 1}


def _cmd_bounds(args):
    want = _BOUNDS_ARITY[args.kind]
    if len(args.values) != want:
        print(
            f"bounds {args.kind} takes {want} value(s), "
            f"got {len(args.values)}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.kind == "corti":
            value = corti_bound(parse_rat(args.values[0]),
                                parse_rat(args.values[1]),
                                parse_rat(args.values[2]))
            _emit(args, {"bound": rat_str(value)}, [rat_str(value)])
        elif args.kind == "thm2":
            bound, profiles = mobile_bound_thmII(parse_rat(args.values[0]),
                                                 parse_rat(args.values[1]))
            lines = [rat_str(bound)]
            lines.extend(
                f"equality profile {p.kind}: multiplicity "
                f"{rat_str(p.required_multiplicity)}"
                for p in profiles
            )
            _emit(args, {
                "bound": rat_str(bound),
                "equality_profiles": [
                    {"kind": p.kind,
                     "multiplicity": rat_str(p.required_multiplicity)}
                    for p in profiles
                ],
            }, lines)
        else:
            exps = [int(v) for v in args.values[0].split(",")]
            diag = lct_monomial(exps, "diagonal")
            prod = lct_monomial(exps, "product")
            _emit(args, {
                "diagonal": rat_str(diag),
                "product": rat_str(prod),
            }, [f"diagonal {rat_str(diag)}", f"product {rat_str(prod)}"])
    except (ValueError, IndexError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ZeroDivisionError:
        print(_ZERO_DENOMINATOR, file=sys.stderr)
        return 2
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit JSON instead of text",
    )
    parser = argparse.ArgumentParser(
        prog="lctforge",
        description="exact re-derivation of log canonical threshold "
                    "bounds on orbifold del Pezzo surfaces",
    )
    parser.add_argument("--json", action="store_true", default=False,
                        help="emit JSON instead of text")
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
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
