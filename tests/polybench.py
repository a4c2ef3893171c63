"""Time lctforge's sparse polynomials in process, one operation at a time.

    python tests/polybench.py [SRC] [--rounds N]

SRC is the source directory to import lctforge from (default: the
``src`` beside this directory), so that one copy of this file times two
checkouts.  Each operation's operands are built once.  The operation is
then run once untimed with ``SparsePoly.__mul__`` wrapped, to count its
products and their term products (n x m for operands of n and m terms,
as verdictbench's tracer counts them), and then, with nothing wrapped,
N rounds (default 3) of a fixed number of calls each.  One line per
operation: its name, its products and term products, and the mean
microseconds per call of each round.  To compare two commits, run this
alternately on each side's ``src``.  pytest does not collect this file.

The operations:
- parse and run the bundled ``icosahedral-invariants.polyid``, which
  defines Klein's f2, f6, f10 and f15 and checks the degree-30
  relation and one more identity;
- ``f15*f15``, one object on both sides: the square path, 20 terms;
- ``(f15*f15)*(f15*f15)``, two equal operands of 83 terms that are not
  one object: the general loop, 83 x 83 term products;
- ``7*x^3*y`` times ``(x+y+z)^30``: a one-term operand against 496
  terms, which the general loop forms one term product at a time;
- ``x^10``: a one-term power, formed in one step.
"""

import argparse
from pathlib import Path
import sys
import time


def operations(sparsepoly, polyid):
    """(name, calls per round, operation) triples; each operation runs
    once per call."""
    path = Path(polyid.__file__).parent / "data" / "polyid" / \
        "icosahedral-invariants.polyid"
    text = path.read_text()
    f15 = polyid.parse_polyid(text).polys["f15"]
    square, other = f15 * f15, f15 * f15
    x, y, z = (sparsepoly.SparsePoly.variable(3, i) for i in range(3))
    mono, cube = 7 * x ** 3 * y, (x + y + z) ** 30
    return [
        ("parse and run icosahedral-invariants.polyid", 20,
         lambda: polyid.run_polyid(polyid.parse_polyid(text))),
        ("f15*f15", 500, lambda: f15 * f15),
        ("(f15*f15)*(f15*f15)", 50, lambda: square * other),
        ("7*x^3*y times (x+y+z)^30", 500, lambda: mono * cube),
        ("x^10", 5000, lambda: x ** 10),
    ]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).parents[1] / "src")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from lctforge import polyid, sparsepoly

    poly = sparsepoly.SparsePoly
    mul, products, term_products = poly.__mul__, 0, 0

    def counted(a, b):
        nonlocal products, term_products
        products += 1
        term_products += len(a.terms) * len(getattr(b, "terms", (0,)))
        return mul(a, b)

    for name, calls, run in operations(sparsepoly, polyid):
        products = term_products = 0
        poly.__mul__ = poly.__rmul__ = counted
        run()
        poly.__mul__ = poly.__rmul__ = mul
        times = []
        for _ in range(args.rounds):
            start = time.perf_counter()
            for _ in range(calls):
                run()
            times.append(f"{(time.perf_counter() - start) / calls * 1e6:.1f}")
        print(f"{name}\t{products} products\t{term_products} term products"
              f"\t{' '.join(times)} us", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
