"""Time lctforge's ledger audit in process, one bundled ledger at a time.

    python tests/ledgerbench.py [SRC] [--rounds N]

SRC is the source directory to import lctforge from (default: the
``src`` beside this directory), so that one copy of this file times two
checkouts.  For each of the five bundled ledgers, three operations:

- ``parse``: ``surfaces.parse_ledger`` of the ledger's text, read once;
- ``audit``: ``surfaces.ledger_consistency`` of the ledger, parsed once;
- ``step``: ``certs.run_certificate_file`` of a one-step certificate,
  ``check ledger(file="../ledgers/NAME.ledger")``, written with a copy
  of the ledger into a temporary tree laid out as the bundled data and
  the benchmark's inputs are (``certs/`` beside ``ledgers/``), so that
  reading both files and resolving the name are timed too.

Each operation runs once untimed, then N rounds (default 3) of a fixed
number of calls each, with nothing wrapped.  One line per ledger and
operation: the names, the number of checks the audit makes, and the
mean microseconds per call of each round.  To compare two commits, run
this alternately on each side's ``src``.  pytest does not collect this
file.
"""

import argparse
from pathlib import Path
import shutil
import sys
import tempfile
import time

CALLS = 200


def operations(lctforge, root):
    """(ledger, operation, checks, run) for each bundled ledger and each
    operation; the step's files are written under root."""
    from lctforge.certs import run_certificate_file
    from lctforge.surfaces import ledger_consistency, parse_ledger

    (root / "certs").mkdir()
    shutil.copytree(lctforge.data_path("ledgers"), root / "ledgers")
    out = []
    for path in sorted((root / "ledgers").glob("*.ledger")):
        text = path.read_text()
        ledger = parse_ledger(text)
        checks = len(ledger_consistency(ledger).checks)
        cert = str(root / "certs" / f"{path.stem}.cert")
        Path(cert).write_text(f'cert "{path.stem}"\n'
                              f'check ledger(file="../ledgers/{path.name}")\n')
        out += [
            (path.stem, "parse", checks, lambda t=text: parse_ledger(t)),
            (path.stem, "audit", checks,
             lambda led=ledger: ledger_consistency(led)),
            (path.stem, "step", checks,
             lambda c=cert: run_certificate_file(c)),
        ]
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).parents[1] / "src")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import lctforge

    with tempfile.TemporaryDirectory() as tmp:
        for name, op, checks, run in operations(lctforge, Path(tmp)):
            report = run()
            if op == "step" and not report.overall:
                raise SystemExit(report.render())
            times = []
            for _ in range(args.rounds):
                start = time.perf_counter()
                for _ in range(CALLS):
                    run()
                times.append(
                    f"{(time.perf_counter() - start) / CALLS * 1e6:.1f}")
            print(f"{name}\t{op}\t{checks} checks\t{' '.join(times)} us",
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
