"""Suite-wide guard: a simplex that stops making progress fails its
test instead of pivoting without end.

Each call of ``linprog._simplex`` may make at most ``MAX_PIVOTS``
calls of ``linprog._pivot``; the count restarts when the next
``_simplex`` call begins, so the pivots that drive artificials out of
the basis after phase 1 count with phase 1.  The most that one call
makes anywhere in the suite is 177, on Klee–Minty n = 10.  The guard
sits at the root so that it covers ``verdictbench/tests`` as well.
"""

import pytest

from lctforge import linprog

MAX_PIVOTS = 1000


@pytest.fixture(autouse=True)
def bounded_pivoting(monkeypatch):
    pivot, simplex = linprog._pivot, linprog._simplex
    made = 0

    def counted_pivot(*args):
        nonlocal made
        made += 1
        if made > MAX_PIVOTS:
            pytest.fail(f"runaway pivoting: over {MAX_PIVOTS} pivots in "
                        "one simplex call")
        pivot(*args)

    def counted_simplex(*args):
        nonlocal made
        made = 0
        return simplex(*args)

    monkeypatch.setattr(linprog, "_pivot", counted_pivot)
    monkeypatch.setattr(linprog, "_simplex", counted_simplex)
