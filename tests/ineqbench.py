"""Time lctforge's local inequality layer in process.

    python tests/ineqbench.py [SRC] [--rounds N] [--calls K]

SRC is the source directory to import lctforge from (default: the
``src`` beside this directory), so that one copy of this file times two
checkouts.  For each input set and each of the four operations below,
every tuple of the set is run K times (default 200) per round, and the
line printed gives the mean microseconds per call of each of N rounds
(default 3).  To compare two commits, run this alternately on each
side's ``src``.  pytest does not collect this file.

The operations, each on (A, B, M, N, alpha, beta) that pass the
hypotheses:
- ``check_theorem_I_hypotheses(p)``, p built once;
- ``vertex_alpha_beta(A, B, M, N)``, which ends in one hypothesis check
  at the vertex;
- ``theorem_I_refute(p, a1, a2, m1, m2)`` with a1 = 1/(2*alpha),
  a2 = 1/(2*beta), so the gate alpha*a1 + beta*a2 <= 1 holds with
  equality, and m1, m2 at their thresholds M + A*a1 - a2 and
  N + B*a2 - a1 where those are nonnegative (else 0), so both
  multiplicity tests run;
- ``implied_inequalities_lemma20(p)``, which starts with one hypothesis
  check.

The input sets:
- the five (A, B, M, N, alpha, beta) tuples of verdictbench's
  ``smallstep`` workload (at most 6 digits in any term);
- for d of 10, 30, 100 and 300: each of those five tuples with each of
  its six values moved by +-1/q, q a d-digit integer drawn by
  random.Random(d) (M or N moved only up from 0), redrawn until the
  moved tuple still passes the hypotheses.  So the six denominators are
  unrelated d-digit integers.

lctforge decides these inequalities on ints scaled by the least common
denominator of a call's values.  That is faster than Fraction
arithmetic at small sizes, but it multiplies the six d-digit
denominators together where Fraction arithmetic works pairwise, so it
is slower past about 80-90 digits per denominator, and the refutation,
which scales ten values, past about 50 (2 vCPUs, Python 3.11.7: at 300
digits 1.5-2.8 times the Fraction form).
"""

import argparse
from fractions import Fraction as F
from pathlib import Path
import random
import sys
import time

# verdictbench's five pinned tuples (verdictbench/oracle.py TUPLES)
BENCH_TUPLES = [
    (F(2), F(3, 2), F(0), F(0), F(1), F(1, 2)),
    (F(45, 11), F(52, 21), F(3, 11), F(2, 7), F(675, 197), F(77, 197)),
    (F(43, 14), F(38, 23), F(4, 14), F(8, 13),
     F(700771, 301108), F(69069, 150554)),
    (F(38, 11), F(40, 17), F(4, 11), F(8, 17), F(1444, 453), F(187, 453)),
    (F(48, 41), F(55, 17), F(6, 13), F(3, 17),
     F(29952, 19505), F(5729, 19505)),
]


def moved_tuples(localineq, digits):
    """The five bench tuples, each value moved by +-1/q with q of the
    given number of digits, redrawn until the hypotheses hold."""
    rng = random.Random(digits)
    out = []
    for tup in BENCH_TUPLES:
        while True:
            moved = tuple(
                v + F(1 if v == 0 or rng.random() < 0.5 else -1,
                      rng.randint(10 ** (digits - 1), 10 ** digits - 1))
                for v in tup)
            p = localineq.ThmIParams(*moved)
            if localineq.check_theorem_I_hypotheses(p).overall:
                out.append(p)
                break
    return out


def refute_args(p):
    """(p, a1, a2, m1, m2) with the gate tight and m1, m2 at their
    thresholds (or 0)."""
    a1, a2 = 1 / (2 * p.alpha), 1 / (2 * p.beta)
    return (p, a1, a2, max(p.M + p.A * a1 - a2, F(0)),
            max(p.N + p.B * a2 - a1, F(0)))


def operations(localineq, params):
    """(name, call, argument tuples) for the four timed operations."""
    def _verdict(fn):
        """fn, with a CheckFailed verdict returned instead of raised."""
        def call(*args):
            try:
                return fn(*args)
            except localineq.CheckFailed as exc:
                return exc
        return call

    return [
        ("hypothesis check", localineq.check_theorem_I_hypotheses,
         [(p,) for p in params]),
        ("vertex solve", _verdict(localineq.vertex_alpha_beta),
         [tuple(p[:4]) for p in params]),
        ("refute", _verdict(localineq.theorem_I_refute),
         [refute_args(p) for p in params]),
        ("Lemma 2.0", localineq.implied_inequalities_lemma20,
         [(p,) for p in params]),
    ]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=Path(__file__).parents[1] / "src")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from lctforge import localineq

    sets = [("bench tuples", [localineq.ThmIParams(*t)
                              for t in BENCH_TUPLES])]
    sets += [(f"{d}-digit tuples", moved_tuples(localineq, d))
             for d in (10, 30, 100, 300)]
    for set_name, params in sets:
        for name, call, arglist in operations(localineq, params):
            times = []
            for _ in range(args.rounds):
                start = time.perf_counter()
                for _ in range(args.calls):
                    for call_args in arglist:
                        call(*call_args)
                per_call = ((time.perf_counter() - start)
                            / (args.calls * len(arglist)))
                times.append(f"{per_call * 1e6:.1f}")
            print(f"{set_name}\t{name}\t{' '.join(times)} us", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
