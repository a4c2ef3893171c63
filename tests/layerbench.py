"""Time one layer of lctforge in process, on one source tree or two.

    python tests/layerbench.py LAYER SRC [SRC] [--rounds N]

LAYER is ``lp``, ``ineq``, ``poly`` or ``ledger``.  Each SRC is a
directory holding an ``lctforge`` package, such as a checkout's
``src``; ``load`` imports each as its own ``lctforge`` into this one
interpreter, and both sides' operations are built from the same input
data.  Each operation runs once untimed, which counts its work, and
then in N blocks (default 10) of its fixed number of calls.

With one SRC, one line per operation: its name, its counts and the
mean microseconds per call of each block.  With two, the first is the
parent and the second the change.  Their blocks alternate ABBA
(parent, change, change, parent, ...), so that a drift in the
machine's speed falls on both alike, and each line gives both sides'
counts, each side's median and quartiles of the microseconds per call
over its blocks, the ratio of the medians (change over parent), and
in how many of the N pairs of blocks the change was faster.  A change
is resolved only when the medians differ by more than the distance
between the parent's quartiles.  pytest does not collect this file.

The layers, and the work each counts:

- ``lp``, pivots (calls of ``linprog._pivot``), with
  ``MAX_TABLEAU_ENTRIES`` raised on each side: one ``<=`` row over 500
  variables, max sum (j + 1) x_j subject to sum x_j <= 1, where
  Bland's rule enters every column in turn; Klee-Minty n = 13 and 14
  (``tests/test_linprog.py`` pins n = 1 to 10); the 32 programs of
  ``du_val_coefficient_bounds`` on A32 with the cap a_1 + a_32 <= 1;
  the shapes of the ``duval-chains`` workload (A3 to A6 with the cap
  a_1 + a_n <= 1, then A6 with a_1 + a_6 <= -1, infeasible at its
  first program); and 8 variables by 20 rows a.x <= b, a of integers
  in [-10^d, 10^d], b and the objective in [1, 10^d - 1], drawn by
  random.Random(5) for d of 1, 10, 30, 100 and 300 digits.
- ``ineq``, nothing: ``check_theorem_I_hypotheses(p)``,
  ``vertex_alpha_beta(A, B, M, N)``, ``theorem_I_refute(p, a1, a2, m1,
  m2)`` with a1 = 1/(2*alpha) and a2 = 1/(2*beta), so that the gate
  holds with equality, and m1, m2 at their thresholds M + A*a1 - a2
  and N + B*a2 - a1 (or 0), and ``implied_inequalities_lemma20(p)``;
  each cycles through the five tuples of ``verdictbench/oracle.py``
  ``TUPLES`` and through those tuples with each value moved by +-1/q,
  q a d-digit integer drawn by random.Random(d) for d of 10, 30, 100
  and 300 (M or N moved only up from 0), redrawn until the moved tuple
  passes the hypotheses.  lctforge decides these inequalities on ints
  scaled by a call's least common denominator, which multiplies the
  six unrelated denominators together where Fraction arithmetic works
  pairwise, so it is slower than Fractions past about 80-90 digits,
  and the refutation, which scales ten values, past about 50.
- ``poly``, products and their term products (calls of
  ``SparsePoly.__mul__`` and ``__rmul__``, n x m for operands of n and
  m terms, as verdictbench's tracer counts them): a parse and run of
  the bundled ``icosahedral-invariants.polyid``; ``f15*f15``, one
  object on both sides; ``(f15*f15)*(f15*f15)``, two equal operands of
  83 terms that are not one object; ``7*x^3*y`` times ``(x+y+z)^30``,
  one term against 496; and ``x^10``, a one-term power.
- ``ledger``, the checks each ledger's audit makes: for each bundled
  ledger, ``parse_ledger`` of its text, ``ledger_consistency`` of it
  parsed, and ``run_certificate_file`` of a certificate of one step,
  ``check ledger(file="../ledgers/NAME.ledger")``, written with a copy
  of the ledgers into a temporary tree laid out as the bundled data
  (``certs/`` beside ``ledgers/``), so that reading both files and
  resolving the name are timed too.  The step must pass on each side.
"""

import argparse
from fractions import Fraction as F
import importlib
import importlib.util
import itertools
from pathlib import Path
import pkgutil
import random
import shutil
import statistics
import sys
import tempfile
import time

ROOT = Path(__file__).resolve().parents[1]


def load(src):
    """The ``lctforge`` package of the tree src with all its modules,
    imported apart from any other copy: the ``lctforge*`` entries of
    ``sys.modules`` and ``sys.path`` are put back as they were."""
    path = list(sys.path)
    saved = {k: m for k, m in sys.modules.items() if k.startswith("lctforge")}
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        package = importlib.import_module("lctforge")
        for module in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"lctforge.{module.name}")
        return package
    finally:
        for name in [k for k in sys.modules if k.startswith("lctforge")]:
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = path


def counted(owner, names, run, weigh=lambda *args: 0):
    """Run run() once with the attributes names of owner wrapped: the
    calls they receive and the sum of weigh(*args) over those calls."""
    originals = {name: getattr(owner, name) for name in names}
    calls = work = 0

    def wrap(fn):
        def wrapper(*args):
            nonlocal calls, work
            calls += 1
            work += weigh(*args)
            return fn(*args)
        return wrapper

    for name, fn in originals.items():
        setattr(owner, name, wrap(fn))
    try:
        run()
    finally:
        for name, fn in originals.items():
            setattr(owner, name, fn)
    return calls, work


def uncounted(run):
    run()
    return ""


def klee_minty(LinearProgram, n):
    """max sum 2^(n-j) x_j subject to, for each i,
    sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i (1-based), built with the
    LinearProgram class given: Bland's rule visits many of the cube's
    2^n vertices before (0, ..., 0, 5^n)."""
    obj = [2 ** (n - 1 - j) for j in range(n)]
    cons = [([2 ** (i - j + 1) if j < i else int(j == i) for j in range(n)],
             "<=", 5 ** (i + 1)) for i in range(n)]
    return LinearProgram(n, obj, cons)


def lp(sides, tmp):
    """Each side's (name, calls, run, count) table of the lp layer."""
    dense = []
    for digits, calls in ((1, 30), (10, 30), (30, 3), (100, 1), (300, 1)):
        rng, top = random.Random(5), 10 ** digits
        cons = [([rng.randint(-top, top) for _ in range(8)], "<=",
                 rng.randint(1, top - 1)) for _ in range(20)]
        obj = [rng.randint(1, top - 1) for _ in range(8)]
        dense.append((digits, calls, obj, cons))

    def table(lc):
        linprog, resolution = lc.linprog, lc.resolution
        LinearProgram, lp_optimize = (linprog.LinearProgram,
                                      linprog.lp_optimize)
        linprog.MAX_TABLEAU_ENTRIES = 1 << 30

        def chains():
            for n, c in ((3, 1), (4, 1), (5, 1), (6, 1), (6, -1)):
                try:
                    resolution.du_val_coefficient_bounds(
                        n, [([1] + [0] * (n - 2) + [1], "<=", c)])
                except resolution.CheckFailed:
                    assert c < 0

        def pivots(run):
            return f"{counted(linprog, ['_pivot'], run)[0]} pivots"

        one_row = LinearProgram(500, range(1, 501), [([1] * 500, "<=", 1)])
        cap = [([1] + [0] * 30 + [1], "<=", 1)]
        out = [("one row over 500 variables", 1,
                lambda: lp_optimize(one_row))]
        for n, calls in ((13, 3), (14, 2)):
            km = klee_minty(LinearProgram, n)
            out.append((f"Klee-Minty n = {n}", calls,
                        lambda km=km: lp_optimize(km)))
        out += [("du_val_bounds(n=32) with a cap, 32 programs", 1,
                 lambda: resolution.du_val_coefficient_bounds(32, cap)),
                ("du_val_bounds(n=3..6) with a cap, and n=6 infeasible", 30,
                 chains)]
        for digits, calls, obj, cons in dense:
            prog = LinearProgram(8, obj, cons)
            out.append((f"8 x 20 of {digits}-digit integers", calls,
                        lambda prog=prog: lp_optimize(prog)))
        return [op + (pivots,) for op in out]
    return [table(lc) for lc in sides]


def ineq(sides, tmp):
    """Each side's table of the ineq layer; the moved tuples are drawn
    once, with the first side's hypothesis check."""
    spec = importlib.util.spec_from_file_location(
        "oracle", ROOT / "verdictbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    holds = sides[0].localineq.check_theorem_I_hypotheses
    ThmIParams = sides[0].localineq.ThmIParams
    sets = [("bench tuples", 200, oracle.TUPLES)]
    for digits, calls in ((10, 100), (30, 50), (100, 10), (300, 5)):
        rng, moved = random.Random(digits), []
        for tup in oracle.TUPLES:
            while True:
                new = tuple(
                    v + F(1 if v == 0 or rng.random() < 0.5 else -1,
                          rng.randint(10 ** (digits - 1), 10 ** digits - 1))
                    for v in tup)
                if holds(ThmIParams(*new)).overall:
                    moved.append(new)
                    break
        sets.append((f"{digits}-digit tuples", calls, moved))

    def table(lc):
        def verdict(fn):
            """fn, with a CheckFailed verdict returned, not raised."""
            def call(*args):
                try:
                    return fn(*args)
                except lc.localineq.CheckFailed as exc:
                    return exc
            return call

        def refute_args(p):
            a1, a2 = 1 / (2 * p.alpha), 1 / (2 * p.beta)
            return (p, a1, a2, max(p.M + p.A * a1 - a2, F(0)),
                    max(p.N + p.B * a2 - a1, F(0)))

        li, out = lc.localineq, []
        for set_name, calls, tuples in sets:
            params = [li.ThmIParams(*t) for t in tuples]
            for name, fn, arglist in (
                    ("hypothesis check", li.check_theorem_I_hypotheses,
                     [(p,) for p in params]),
                    ("vertex solve", verdict(li.vertex_alpha_beta),
                     [tuple(p[:4]) for p in params]),
                    ("refute", verdict(li.theorem_I_refute),
                     [refute_args(p) for p in params]),
                    ("Lemma 2.0", li.implied_inequalities_lemma20,
                     [(p,) for p in params])):
                # a block's calls, a multiple of 5, cycle through the set
                out.append((f"{set_name}\t{name}", calls * len(params),
                            lambda fn=fn, it=itertools.cycle(arglist):
                            fn(*next(it)), uncounted))
        return out
    return [table(lc) for lc in sides]


def poly(sides, tmp):
    """Each side's table of the poly layer."""
    text = sides[0].data_path(
        "polyid", "icosahedral-invariants.polyid").read_text()

    def terms(a, b):
        return len(a.terms) * len(getattr(b, "terms", (0,)))

    def table(lc):
        polyid, SparsePoly = lc.polyid, lc.sparsepoly.SparsePoly

        def products(run):
            calls, work = counted(
                SparsePoly, ["__mul__", "__rmul__"], run, terms)
            return f"{calls} products, {work} term products"

        f15 = polyid.parse_polyid(text).polys["f15"]
        square, other = f15 * f15, f15 * f15
        x, y, z = (SparsePoly.variable(3, i) for i in range(3))
        mono, cube = 7 * x ** 3 * y, (x + y + z) ** 30
        return [
            ("parse and run icosahedral-invariants.polyid", 10,
             lambda: polyid.run_polyid(polyid.parse_polyid(text)), products),
            ("f15*f15", 500, lambda: f15 * f15, products),
            ("(f15*f15)*(f15*f15)", 20, lambda: square * other, products),
            ("7*x^3*y times (x+y+z)^30", 200, lambda: mono * cube, products),
            ("x^10", 20000, lambda: x ** 10, products),
        ]
    return [table(lc) for lc in sides]


def ledger(sides, tmp):
    """Each side's table of the ledger layer; the certificates are
    written once under tmp."""
    root = Path(tmp)
    (root / "certs").mkdir()
    shutil.copytree(sides[0].data_path("ledgers"), root / "ledgers")
    ledgers = []
    for path in sorted((root / "ledgers").glob("*.ledger")):
        cert = root / "certs" / f"{path.stem}.cert"
        cert.write_text(f'cert "{path.stem}"\n'
                        f'check ledger(file="../ledgers/{path.name}")\n')
        ledgers.append((path.stem, path.read_text(), str(cert)))

    def table(lc):
        parse = lc.surfaces.parse_ledger
        audit = lc.surfaces.ledger_consistency
        out = []
        for stem, text, cert in ledgers:
            checks = f"{len(audit(parse(text)).checks)} checks"

            def ran(run, checks=checks):
                run()
                return checks

            def passed(run, checks=checks):
                report = run()
                if not report.overall:
                    raise SystemExit(report.render())
                return checks

            out += [
                (f"{stem}\tparse", 50, lambda t=text: parse(t), ran),
                (f"{stem}\taudit", 50, lambda p=parse(text): audit(p), ran),
                (f"{stem}\tstep", 50,
                 lambda c=cert: lc.certs.run_certificate_file(c), passed),
            ]
        return out
    return [table(lc) for lc in sides]


LAYERS = {"lp": lp, "ineq": ineq, "poly": poly, "ledger": ledger}


def block(run, calls):
    """Microseconds per call of calls runs of run."""
    start = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - start) / calls * 1e6


def spread(times):
    """(median, lower quartile, upper quartile) of times."""
    if len(times) < 2:
        return times * 3
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("src", nargs="+",
                        help="one tree, or two: parent and change")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one SRC, or two: parent and change")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = [load(src) for src in args.src]
    with tempfile.TemporaryDirectory() as tmp:
        for ops in zip(*LAYERS[args.layer](sides, tmp)):
            name, calls = ops[0][:2]
            counts = [count(run) for _, _, run, count in ops]
            times = [[] for _ in ops]
            blocks = [(op[2], ts) for op, ts in zip(ops, times)]
            for r in range(args.rounds):
                # ABBA: each pair of blocks in the other order from the last
                for run, ts in blocks if r % 2 == 0 else blocks[::-1]:
                    ts.append(block(run, calls))
            if len(ops) == 1:
                cols = [name, *counts,
                        " ".join(f"{t:.1f}" for t in times[0]) + " us"]
            else:
                (pm, *pq), (cm, *cq) = map(spread, times)
                faster = sum(c < p for p, c in zip(*times))
                cols = [name, *counts,
                        f"parent {pm:.1f} us ({pq[0]:.1f}-{pq[1]:.1f})",
                        f"change {cm:.1f} us ({cq[0]:.1f}-{cq[1]:.1f})",
                        f"{cm / pm:.3f}x",
                        f"change faster in {faster} of {args.rounds}"]
            print("\t".join(c for c in cols if c), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
