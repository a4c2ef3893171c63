"""Time lctforge's exact simplex in process, one program at a time.

    python tests/lpbench.py [SRC] [--rounds N]

SRC is the source directory to import lctforge from (default: the
``src`` beside this directory), so that one copy of this file times two
checkouts.  Each program is built once, solved once untimed to count
its pivots (calls of ``linprog._pivot``), then solved N times (default
1) with nothing wrapped.  One line per program: its name, its pivots,
and the milliseconds of each timed solve.  To compare two commits, run
this alternately on each side's ``src``.  pytest does not collect this
file.

The programs:
- one ``<=`` row over 500 variables, max sum (j + 1) x_j subject to
  sum x_j <= 1: Bland's rule enters every column in turn, 500 pivots.
  ``MAX_TABLEAU_ENTRIES`` is raised for the run so that it fits;
- Klee-Minty n = 13 and 14 (``tests/test_linprog.py`` pins the pivots
  of n = 1 to 10 on the same programs);
- the 32 programs of ``du_val_coefficient_bounds`` on A32 with the
  cap a_1 + a_32 <= 1, 1,024 pivots in all;
- the shapes of the ``duval-chains`` benchmark workload, through
  ``du_val_coefficient_bounds``: A3, A4, A5 and A6 with the cap
  a_1 + a_n <= 1 (n programs each), then A6 with a_1 + a_6 <= -1,
  whose first program is infeasible and ends the call: 19 programs;
- 8 variables and 20 rows a.x <= b, a of integers in [-10^d, 10^d],
  b and the objective of integers in [1, 10^d - 1], drawn by
  random.Random(5) for each d of 1, 10, 30, 100 and 300 digits.  Their
  entries grow to thousands of digits, where one Fraction built from
  ints runs one gcd of the full size.
"""

import argparse
from pathlib import Path
import random
import sys
import time


def klee_minty(LinearProgram, n):
    """max sum 2^(n-j) x_j subject to, for each i,
    sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i (1-based), built with the
    LinearProgram class given: Bland's rule visits many of the cube's
    2^n vertices before (0, ..., 0, 5^n)."""
    obj = [2 ** (n - 1 - j) for j in range(n)]
    cons = [([2 ** (i - j + 1) if j < i else int(j == i) for j in range(n)],
             "<=", 5 ** (i + 1)) for i in range(n)]
    return LinearProgram(n, obj, cons)


def _dense(LinearProgram, digits):
    rng = random.Random(5)
    top = 10 ** digits
    cons = [([rng.randint(-top, top) for _ in range(8)], "<=",
             rng.randint(1, top - 1)) for _ in range(20)]
    return LinearProgram(8, [rng.randint(1, top - 1) for _ in range(8)],
                         cons)


def _duval_chains(resolution):
    """The duval-chains shapes; only the negative cap is infeasible."""
    for n, c in ((3, 1), (4, 1), (5, 1), (6, 1), (6, -1)):
        try:
            resolution.du_val_coefficient_bounds(
                n, [([1] + [0] * (n - 2) + [1], "<=", c)])
        except resolution.CheckFailed:
            assert c < 0


def programs(linprog, resolution):
    """(name, solve) pairs; each solve runs its program once."""
    LinearProgram, lp_optimize = linprog.LinearProgram, linprog.lp_optimize
    one_row = LinearProgram(500, range(1, 501), [([1] * 500, "<=", 1)])
    out = [("one row over 500 variables", lambda: lp_optimize(one_row))]
    for n in (13, 14):
        lp = klee_minty(LinearProgram, n)
        out.append((f"Klee-Minty n = {n}", lambda lp=lp: lp_optimize(lp)))
    cap = [([1] + [0] * 30 + [1], "<=", 1)]
    out.append(("du_val_bounds(n=32) with a cap, 32 programs",
                lambda: resolution.du_val_coefficient_bounds(32, cap)))
    out.append(("du_val_bounds(n=3..6) with a cap, and n=6 infeasible",
                lambda: _duval_chains(resolution)))
    for digits in (1, 10, 30, 100, 300):
        lp = _dense(LinearProgram, digits)
        out.append((f"8 x 20 of {digits}-digit integers",
                    lambda lp=lp: lp_optimize(lp)))
    return out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).parents[1] / "src")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from lctforge import linprog, resolution

    linprog.MAX_TABLEAU_ENTRIES = 1 << 30
    pivot, made = linprog._pivot, 0

    def counted(*pivot_args):
        nonlocal made
        made += 1
        pivot(*pivot_args)

    for name, solve in programs(linprog, resolution):
        made, linprog._pivot = 0, counted
        solve()
        linprog._pivot = pivot
        times = []
        for _ in range(args.rounds):
            start = time.perf_counter()
            solve()
            times.append(f"{(time.perf_counter() - start) * 1e3:.1f}")
        print(f"{name}\t{made} pivots\t{' '.join(times)} ms", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
