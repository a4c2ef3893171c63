import itertools
import random
from fractions import Fraction as F

import pytest

from lctforge import certs, data_path, linprog, resolution
from lctforge.certs import run_certificate_file
from lctforge.linprog import (
    MAX_TABLEAU_ENTRIES,
    LinearProgram,
    Optimal,
    Infeasible,
    Unbounded,
    lp_optimize,
)
from lctforge.syntax import LctforgeError
from layerbench import klee_minty
from vertexenum import (
    box,
    brute_lexmax,
    brute_max,
    feasible_vertices,
    satisfies,
    shifted,
)


def solve(n, obj, cons):
    return lp_optimize(LinearProgram(n, obj, cons))


def solve_shifted(n, obj, cons, r):
    """Solve a program over x >= -r through y = x + r >= 0 and give the
    result back in x."""
    res = solve(*shifted(n, obj, cons, r))
    if not isinstance(res, Optimal):
        return res
    return Optimal(res.value - r * sum(obj),
                   tuple(y - r for y in res.witness))


def split(n, obj, cons):
    """The program over free x_0..x_{n-1} as one over the nonnegative
    columns u_0..u_{n-1}, v_0..v_{n-1}, with x = u - v."""
    return (2 * n, [*obj, *(-c for c in obj)],
            [([*co, *(-c for c in co)], rel, b) for co, rel, b in cons])


def test_simple_box_max():
    res = solve(2, [1, 1],
                [([1, 0], "<=", 1), ([0, 1], "<=", 2),
                 ([1, 0], ">=", 0), ([0, 1], ">=", 0)])
    assert isinstance(res, Optimal)
    assert res.value == 3
    assert res.witness == (F(1), F(2))


def test_minimize_sense():
    # minimizing 3x is maximizing -3x: same witness, value negated
    res = solve(1, [-3], [([1], ">=", F(2, 7)), ([1], "<=", 5)])
    assert isinstance(res, Optimal)
    assert res.value == F(-6, 7)
    assert res.witness == (F(2, 7),)


def test_equality_row():
    res = solve(2, [1, 0],
                [([1, 1], "=", 1), ([1, 0], ">=", 0), ([0, 1], ">=", 0)])
    assert isinstance(res, Optimal)
    assert res.value == 1
    assert res.witness == (1, 0)


def test_infeasible():
    res = solve(1, [1], [([1], "<=", -1), ([1], ">=", 0)])
    assert isinstance(res, Infeasible)


def test_unbounded():
    res = solve(1, [1], [([1], ">=", 0)])
    assert isinstance(res, Unbounded)


def test_negative_bound_rows():
    # exercises the sign flip in the tableau setup
    res = solve(2, [-1, -1], [([-1, -1], "<=", -3), ([1, 0], "<=", 5)])
    assert res == Optimal(F(-3), (F(0), F(3)))
    # a box below zero, through the shift x = y - 5
    res = solve_shifted(2, [-1, -1],
                        [([1, 1], ">=", -3), ([1, 0], "<=", 0),
                         ([0, 1], "<=", 0), ([1, 0], ">=", -5),
                         ([0, 1], ">=", -5)], 5)
    assert res == Optimal(F(3), (F(-3), F(0)))


def test_free_variables_negative_optimum():
    """A free variable is written as two columns, x = u - v, and then
    the optimum can be negative.  As one column it is nonnegative, and
    the same rows are infeasible."""
    res = solve(*split(1, [1], [([1], "<=", -2), ([1], ">=", -4)]))
    assert res == Optimal(F(-2), (F(0), F(2)))
    res = solve(1, [1], [([1], "<=", -2), ([1], ">=", -4)])
    assert isinstance(res, Infeasible)


def test_tie_breaks_lexicographically():
    # the whole segment x+y = 1 is optimal; the refinement must pick
    # the lexicographically smallest point, every time
    cons = [([1, 1], "<=", 1), ([1, 0], ">=", 0), ([0, 1], ">=", 0)]
    for _ in range(3):
        res = solve(2, [1, 1], cons)
        assert res == Optimal(F(1), (F(0), F(1)))


def test_unbounded_optimal_face_keeps_vertex_value():
    # y is absent from every row, so the optimal face is unbounded in
    # y; the witness is its vertex, where y = 0
    res = solve(2, [1, 0], [([1, 0], "<=", 1)])
    assert res == Optimal(F(1), (F(1), F(0)))


def test_degenerate_vertex():
    # three rows through one point; Bland's rule has to terminate
    cons = [([1, 1], "<=", 2), ([1, 0], "<=", 1), ([0, 1], "<=", 1),
            ([1, 0], ">=", 0), ([0, 1], ">=", 0)]
    res = solve(2, [2, 1], cons)
    assert res == Optimal(F(3), (F(1), F(1)))


def test_validation():
    with pytest.raises(ValueError):
        LinearProgram(2, [1], [])
    with pytest.raises(ValueError):
        LinearProgram(1, [1], [([1], "!=", 0)])
    with pytest.raises(ValueError):
        LinearProgram(2, [1, 0], [([1], "<=", 0)])


def test_rows_are_stored_signed():
    """LinearProgram signs each row once, as it reads it: a >= row with
    a zero bound becomes <= with its nonzero coefficients negated, a
    row with a negative bound flips, and every other row is kept.
    Signed rows read again stay as they are."""
    zero = F(0)
    lp = LinearProgram(3, [1, 0, 0], [
        ([2, zero, -1], ">=", 0), ([1, -1, 0], "<=", -2),
        ([-1, 0, 1], "=", F(-1, 2)), ([0, 1, 1], ">=", -3),
        ([1, 1, 0], "<=", 4), ([1, 2, 0], ">=", 1), ([1, 0, 0], "=", 0),
        ([0, 0, 1], "<=", 0)])
    assert lp.constraints == (
        ((F(-2), F(0), F(1)), "<=", F(0)),
        ((F(-1), F(1), F(0)), ">=", F(2)),
        ((F(1), F(0), F(-1)), "=", F(1, 2)),
        ((F(0), F(-1), F(-1)), "<=", F(3)),
        ((F(1), F(1), F(0)), "<=", F(4)),
        ((F(1), F(2), F(0)), ">=", F(1)),
        ((F(1), F(0), F(0)), "=", F(0)),
        ((F(0), F(0), F(1)), "<=", F(0)))
    assert lp.constraints[0][0][1] is zero
    assert LinearProgram(*lp) == lp


def test_maximizing_shares_the_rows():
    lp = LinearProgram(2, [1, 0], [([1, 1], "<=", 1), ([1, -1], ">=", 0)])
    other = lp.maximizing([0, F(1)])
    assert other == LinearProgram(2, [0, 1], lp.constraints)
    assert other.constraints is lp.constraints
    assert all(type(v) is F for v in other.objective)
    assert lp_optimize(lp) == Optimal(F(1), (F(1), F(0)))
    assert lp_optimize(other) == Optimal(F(1, 2), (F(1, 2), F(1, 2)))


@pytest.mark.parametrize("objective, message", [
    ([1], "objective has 1 coefficients, expected 2"),
    ([1, 0, 0], "objective has 3 coefficients, expected 2"),
    ([1, "1/2"], "objective must be rationals"),
    ([1, 0.5], "objective must be rationals"),
])
def test_maximizing_refuses_as_the_constructor(objective, message):
    lp = LinearProgram(2, [1, 0], [([1, 1], "<=", 1)])
    for build in (lambda: LinearProgram(2, objective, lp.constraints),
                  lambda: lp.maximizing(objective)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def _capped(rows, n):
    """max x_0 + ... + x_{rows-1} over x_0..x_{n-1} with x_j <= 1 for
    j < rows: rows + 1 + n tableau rows (a lexicographic objective per
    variable) x n + rows + 1 columns."""
    unit = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    cons = [(unit[j], "<=", 1) for j in range(rows)]
    return LinearProgram(n, [F(int(j < rows)) for j in range(n)], cons)


def test_tableau_limit_both_sides():
    assert 90 * 90 <= MAX_TABLEAU_ENTRIES < 91 * 91
    res = lp_optimize(_capped(31, 58))
    assert res == Optimal(F(31), (F(1),) * 31 + (F(0),) * 27)
    with pytest.raises(LctforgeError, match=(
            "LP tableau of 91 rows x 91 columns exceeds the limit "
            f"of {MAX_TABLEAU_ENTRIES} entries")):
        lp_optimize(_capped(31, 59))
    with pytest.raises(LctforgeError, match="91 rows x 91 columns"):
        lp_optimize(_capped(32, 58))


def test_tableau_limit_by_variable_count():
    """(n + 1)^2 entries is the least tableau over n variables: n = 89
    with no row fits, with one row it reaches lp_optimize's exact count,
    and n = 90 is refused when the program is made, before any row is
    read."""
    assert 90 * 90 <= MAX_TABLEAU_ENTRIES < 91 * 91
    res = lp_optimize(LinearProgram(89, [F(-1)] * 89, []))
    assert res == Optimal(F(0), (F(0),) * 89)
    one_row = LinearProgram(89, [F(1)] * 89, [([F(1)] * 89, "<=", 1)])
    with pytest.raises(LctforgeError, match=(
            "^LP tableau of 91 rows x 91 columns exceeds the limit "
            f"of {MAX_TABLEAU_ENTRIES} entries$")):
        lp_optimize(one_row)

    def rows():
        raise AssertionError("a row was read")
        yield

    with pytest.raises(LctforgeError, match=(
            "^LP over 90 variables exceeds the tableau limit of "
            f"{MAX_TABLEAU_ENTRIES} entries$")):
        LinearProgram(90, [F(1)] * 90, rows())


def test_a32_du_val_system_fits_the_tableau_limit():
    # one of the 32 LPs of du_val_bounds(n=32) with a cap a1 + a32 <= 1:
    # the 32 chain rows and the cap
    n = 32
    cons = [([F(2 if i == j else -(abs(i - j) == 1)) for j in range(n)],
             ">=", 0) for i in range(n)]
    cons.append(([F(1)] + [F(0)] * (n - 2) + [F(1)], "<=", 1))
    objective = [F(int(j == n // 2)) for j in range(n)]
    res = lp_optimize(LinearProgram(n, objective, cons))
    assert (n + 2 + n) * (2 * n + 2) <= MAX_TABLEAU_ENTRIES
    assert res.value == F((n // 2 + 1) * (n - n // 2), n + 1)


def test_oracle_equivalence_small_sample():
    """Sixty random systems in the box |x_j| <= 4, n <= 3, solved
    through the shift x = y - 4: simplex value and witness must match
    the vertex-enumeration oracle, and Infeasible only when the oracle
    finds no feasible vertex.  (The acceptance suite runs the large
    version of this.)"""
    rng = random.Random(1105)
    for trial in range(60):
        n = rng.choice((1, 2, 3))
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(n)]
            if rng.random() < 0.15:
                rel = "="
            else:
                rel = rng.choice(("<=", ">="))
            cons.append((coeffs, rel, F(rng.randint(-6, 6),
                                        rng.randint(1, 2))))
        cons.extend(box(n, 4))
        obj = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        res = solve_shifted(n, obj, cons, 4)
        want = brute_max(n, obj, cons)
        if want is None:
            assert isinstance(res, Infeasible), f"trial {trial}"
        else:
            assert isinstance(res, Optimal), f"trial {trial}"
            assert res.value == want, f"trial {trial}"
            assert satisfies(res.witness, cons), f"trial {trial}"
            assert res.witness == brute_lexmax(n, obj, cons), \
                f"trial {trial}"


def _nonnegative_system(rng):
    """A random system over x_j >= -3: each variable is bounded below
    by a row c*x_j >= 0 (c > 0) or by -x_j <= 3, and above by a cap,
    and random rows follow, half of which have a zero right-hand
    side."""
    n = rng.choice((1, 2, 3))
    cons = []
    for j in range(n):
        unit = [F(0)] * n
        unit[j] = F(1)
        if rng.random() < 0.75:
            cons.append(([rng.randint(1, 3) * c for c in unit], ">=", 0))
        else:
            cons.append(([-c for c in unit], "<=", F(3)))
        if rng.random() < 0.5:
            cons.append((unit, "<=", F(rng.randint(0, 4))))
        else:
            cons.append(([F(1)] * n, "<=", F(rng.randint(0, 6))))
    for _ in range(rng.randint(0, 4)):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(n)]
        rel = rng.choice(("<=", ">=", ">=", "="))
        bound = F(0) if rng.random() < 0.5 else F(rng.randint(-4, 4))
        cons.append((coeffs, rel, bound))
    rng.shuffle(cons)
    obj = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return n, obj, cons


def test_oracle_nonnegative_family():
    """Three hundred random systems of the nonnegative family: value
    and witness must match the vertex-enumeration oracle, solved
    through the shift x = y - 3."""
    rng = random.Random(4477)
    for trial in range(300):
        n, obj, cons = _nonnegative_system(rng)
        res = solve_shifted(n, obj, cons, 3)
        want = brute_lexmax(n, obj, cons)
        if want is None:
            assert isinstance(res, Infeasible), f"trial {trial}"
        else:
            assert isinstance(res, Optimal), f"trial {trial}"
            assert res.witness == want, f"trial {trial}"
            assert res.value == sum(c * x for c, x in zip(obj, want))


def test_witness_does_not_depend_on_row_order():
    """The witness is canonical: on systems of the nonnegative family,
    every order of the rows (all of them up to four rows, else 24) and
    a duplicated row give the same result."""
    rng = random.Random(2718)
    for trial in range(40):
        n, obj, cons = _nonnegative_system(rng)
        want = solve(n, obj, cons)
        if len(cons) <= 4:
            orders = list(itertools.permutations(cons))
        else:
            orders = [rng.sample(cons, len(cons)) for _ in range(24)]
        orders.append(cons + [rng.choice(cons)])
        for rows in orders:
            assert solve(n, obj, list(rows)) == want, f"trial {trial}"
    # two free variables written as u - v columns, in two row orders
    rows = [([1, -3, -1, 3], ">=", 2), ([0, -1, 0, 1], ">=", 5),
            ([3, -3, -3, 3], "<=", -4), ([0, 2, 0, -2], "<=", 1)]
    for order in ((0, 1, 2, 3), (1, 2, 0, 3)):
        res = solve(4, [0] * 4, [rows[k] for k in order])
        assert res == Optimal(F(0), (F(0), F(0), F(19, 3), F(5)))
    # no rows at all: the orthant
    assert solve(1, [-1], []) == Optimal(F(0), (F(0),))
    assert solve(1, [1], []) == Unbounded()


def _sympy_lpmax(n, obj, cons):
    """sympy's exact simplex on max obj.x subject to cons, over free
    x_0..x_{n-1}: the value as a Fraction, or Infeasible() or
    Unbounded()."""
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import (
        InfeasibleLPError,
        UnboundedLPError,
        lpmax,
    )

    xs = sympy.symbols(f"x0:{n}")
    rel = {"<=": sympy.Le, ">=": sympy.Ge, "=": sympy.Eq}
    constr = [rel[r](sum(sympy.Rational(c) * x for c, x in zip(co, xs)),
                     sympy.Rational(b)) for co, r, b in cons]
    goal = sum(sympy.Rational(c) * x for c, x in zip(obj, xs))
    try:
        value, _ = lpmax(goal, constr)
    except InfeasibleLPError:
        return Infeasible()
    except UnboundedLPError:
        return Unbounded()
    return F(int(value.p), int(value.q))


def test_sympy_lpmax_agrees_on_values():
    """sympy's exact simplex as a second oracle for the optimal value
    and for Infeasible/Unbounded, on bounded systems of both families
    and on systems of free variables with no bounds at all.  sympy's
    variables are free, so each x is solved as two columns u - v."""
    pytest.importorskip("sympy")
    rng = random.Random(5501)
    for trial in range(36):
        if trial % 3 == 0:
            n, obj, cons = _nonnegative_system(rng)
        else:
            n = rng.choice((1, 2, 3))
            cons = [([F(rng.randint(-2, 2)) for _ in range(n)],
                     rng.choice(("<=", ">=", "=")), F(rng.randint(-3, 3)))
                    for _ in range(rng.randint(0, 3))]
            if trial % 3 == 1:
                cons.extend(box(n, 4))
            obj = [F(rng.randint(-2, 2)) for _ in range(n)]
        res = solve(*split(n, obj, cons))
        got = res.value if isinstance(res, Optimal) else res
        assert got == _sympy_lpmax(n, obj, cons), f"trial {trial}"


@pytest.fixture
def pivots(monkeypatch):
    """The pivots made while a test runs, one entry per call of
    linprog._pivot (the root conftest stops a runaway)."""
    calls = []
    pivot = linprog._pivot

    def counted(*args):
        calls.append(args[2:])
        pivot(*args)

    monkeypatch.setattr(linprog, "_pivot", counted)
    return calls


@pytest.mark.parametrize("n", range(3, 9))
def test_du_val_pivots_pinned(n, pivots):
    """The A_n chain system with the cap a_1 + a_n <= 1, as
    du_val_coefficient_bounds builds it: maximizing a_i takes n pivots
    and gives the tent a_j = min(j, i) * (n + 1 - max(j, i)) / (n + 1),
    n^2 pivots per system."""
    cons = [([F(2 if i == j else -(abs(i - j) == 1)) for j in range(n)],
             ">=", 0) for i in range(n)]
    cons.append(([F(1)] + [F(0)] * (n - 2) + [F(1)], "<=", 1))
    for i in range(1, n + 1):
        before = len(pivots)
        res = solve(n, [F(int(j == i)) for j in range(1, n + 1)], cons)
        tent = tuple(F(min(j, i) * (n + 1 - max(j, i)), n + 1)
                     for j in range(1, n + 1))
        assert res == Optimal(tent[i - 1], tent), i
        assert len(pivots) - before == n, i
    assert len(pivots) == n * n


@pytest.mark.parametrize("n, count", [
    (1, 1), (2, 3), (3, 5), (4, 9), (5, 15), (6, 25), (7, 41), (8, 67),
    (9, 109), (10, 177),
])
def test_klee_minty_pivots_pinned(n, count, pivots):
    res = lp_optimize(klee_minty(LinearProgram, n))
    assert res == Optimal(F(5 ** n), (F(0),) * (n - 1) + (F(5 ** n),))
    assert len(pivots) == count


def _rats(text):
    return tuple(F(x) for x in text.split())


# per bundled certificate, each lp_optimize call in order: its pivots,
# value and witness (the other ten certificates solve no LP)
BUNDLED_LPS = {
    "wps-1-1-2-3-d6-a3.cert": [
        (3, "3/4", "3/4 1/2 1/4"), (3, "1", "1/2 1 1/2"),
        (3, "3/4", "1/4 1/2 3/4"), (2, "0", "0 0 0"), (2, "0", "0 0 0"),
        (3, "1", "3/4 1/2 1/4"), (3, "1", "1/2 1 1/2"),
        (4, "1", "1/2 1 1/2"), (2, "0", "0 0 0"),
    ],
    "wps-1-1-2-3-d6-a4.cert": [
        (4, "4/5", "4/5 3/5 2/5 1/5"), (4, "6/5", "3/5 6/5 4/5 2/5"),
        (4, "6/5", "2/5 4/5 6/5 3/5"), (4, "4/5", "1/5 2/5 3/5 4/5"),
        (5, "24/25", "3/5 6/5 4/5 2/5"), (4, "1", "4/5 3/5 2/5 1/5"),
        (4, "1", "3/5 6/5 4/5 2/5"), (2, "0", "0 0 0 0"),
        (5, "1/2", "1/2 1 1 1/2 1/2"),
    ],
}


def test_bundled_certificate_pivots_pinned(pivots, monkeypatch):
    """Every LP the 12 bundled certificates solve, with the pivots it
    takes: 61 in all."""
    calls = []

    def logged(lp):
        before = len(pivots)
        res = lp_optimize(lp)
        calls.append((len(pivots) - before, res))
        return res

    monkeypatch.setattr(certs, "lp_optimize", logged)
    monkeypatch.setattr(resolution, "lp_optimize", logged)
    names = sorted(p.name for p in data_path("certs").iterdir())
    assert len(names) == 12
    for name in names:
        calls.clear()
        assert run_certificate_file(data_path("certs", name)).overall, name
        want = [(count, Optimal(F(value), _rats(witness)))
                for count, value, witness in BUNDLED_LPS.get(name, [])]
        assert calls == want, name
    assert len(pivots) == 61


def test_sympy_lpmax_agrees_on_bundled_programs(monkeypatch):
    """sympy's exact simplex recomputes the pinned value of each of the
    18 LPs in BUNDLED_LPS, with x >= 0 written as rows, and each pinned
    witness is a nonnegative point of its program that attains it."""
    pytest.importorskip("sympy")
    lps = []

    def logged(lp):
        lps.append(lp)
        return lp_optimize(lp)

    monkeypatch.setattr(certs, "lp_optimize", logged)
    monkeypatch.setattr(resolution, "lp_optimize", logged)
    pinned = []
    for name, calls in BUNDLED_LPS.items():
        assert run_certificate_file(data_path("certs", name)).overall, name
        pinned += [(F(value), _rats(witness)) for _, value, witness in calls]
    assert len(lps) == len(pinned) == 18
    for k, (lp, (value, witness)) in enumerate(zip(lps, pinned)):
        n = lp.n_vars
        nonnegative = [([int(i == j) for i in range(n)], ">=", 0)
                       for j in range(n)]
        assert _sympy_lpmax(n, lp.objective,
                            [*lp.constraints, *nonnegative]) == value, k
        assert min(witness) >= 0 and satisfies(witness, lp.constraints), k
        assert sum(c * x for c, x in zip(lp.objective, witness)) == value, k


def _degenerate_system(rng):
    """A program over x_j >= -2 with sum x <= s, n = 3 to 5, that the
    lexicographic pass has work on: rows through the origin with a
    zero right-hand side (x_i - x_j REL 0, or a zero-sum row), and an
    objective of small integers, often with zeros or a copy of a row,
    so that ties are common."""
    n = rng.choice((3, 4, 5))
    cons = [([F(-int(i == j)) for i in range(n)], "<=", F(2))
            for j in range(n)]
    cons.append(([F(1)] * n, "<=", F(rng.randint(-1, 3))))
    rows = []
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        coeffs = [F(0)] * n
        coeffs[i], coeffs[j] = F(1), F(-1)
        if rng.random() < 0.3:
            k, m = rng.sample(range(n), 2)
            coeffs[k] += 2
            coeffs[m] -= 2
        rows.append((coeffs, rng.choice(("<=", ">=", "=", "<=")), F(0)))
    cons.extend(rows)
    if rng.random() < 0.3:
        obj = list(rng.choice(rows)[0])
    else:
        obj = [F(rng.choice((0, 0, 1, 1, -1, 2))) for _ in range(n)]
    rng.shuffle(cons)
    return n, obj, cons


def test_lexicographic_pass_on_degenerate_programs():
    """A hundred programs of the degenerate family, solved through the
    shift x = y - 2, in which the rows x_j >= -2 become rows
    -y_j <= 0: the witness must be the vertex oracle's lexicographic
    minimum of the optimal face.  The family must hold optimal faces
    that are points and faces that are not, and witnesses with some
    x_j = -2, at its lower bound."""
    rng = random.Random(9157)
    unique = faces = at_bound = 0
    for trial in range(100):
        n, obj, cons = _degenerate_system(rng)
        res = solve_shifted(n, obj, cons, 2)
        want = brute_lexmax(n, obj, cons)
        if want is None:
            assert isinstance(res, Infeasible), f"trial {trial}"
            continue
        assert isinstance(res, Optimal), f"trial {trial}"
        assert res.witness == want, f"trial {trial}"
        assert res.value == sum(c * x for c, x in zip(obj, want))
        best = [p for p in feasible_vertices(n, cons)
                if sum(c * x for c, x in zip(obj, p)) == res.value]
        unique += len(best) == 1
        faces += len(best) > 1
        at_bound += F(-2) in want
    assert unique >= 20 and faces >= 20 and at_bound >= 20, \
        (unique, faces, at_bound)


def test_nonbasic_variable_keeps_its_column_fixed():
    """max x_1 + 2 x_2 over x_2 <= x_0, x_0 + x_1 + x_2 <= 6: the
    optimal face is the segment from (0, 6, 0) to (3, 0, 3).  x_0 is
    nonbasic at the optimum, so its step only fixes its column; left
    free, it would enter in the step for x_1 and give (3, 0, 3)."""
    cons = [([-1, 0, 1], "<=", 0), ([1, 1, 1], "<=", 6)]
    want = Optimal(F(6), (F(0), F(6), F(0)))
    assert solve(3, [0, 1, 2], cons) == want
    assert solve(3, [0, 1, 2], cons[::-1]) == want
    nonnegative = [([-int(i == j) for i in range(3)], "<=", 0)
                   for j in range(3)]
    assert brute_lexmax(3, [0, 1, 2], cons + nonnegative) == want.witness


def test_program_over_no_variables():
    """n = 0: the value is a Fraction, like every other LP value."""
    res = lp_optimize(LinearProgram(0, [], []))
    assert res == Optimal(F(0), ())
    assert type(res.value) is F


def _two_step_pivot(rows, basis, r, col):
    """The reference pivot: linprog._pivot with each entry updated by
    two Fraction operations, row[j] -= f * prow[j]."""
    prow = rows[r]
    piv = prow[col]
    if piv != 1:
        prow = rows[r] = [x / piv if x else x for x in prow]
    nonzero = [j for j, x in enumerate(prow) if x and j != col]
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            for j in nonzero:
                row[j] -= f * prow[j]
            row[col] = F(0)
    basis[r] = col


def _entry(rng, digits):
    """0 one time in four, else a signed fraction of up to digits
    digits over a denominator of up to digits digits."""
    if rng.random() < 0.25:
        return F(0)
    top = 10 ** digits
    return F(rng.randint(-top, top), rng.randint(1, top))


@pytest.mark.parametrize("digits", [1, 10, 40])
def test_fused_pivot_updates_as_the_reference(digits):
    """On random tableaux with zero rows and zero columns, and pivots
    of 1 and of other values, linprog._pivot gives the reference's
    entries one for one, each a Fraction, and the same basis."""
    rng = random.Random(2500 + digits)
    for trial in range(300):
        m, width = rng.randint(1, 6), rng.randint(2, 8)
        rows = [[_entry(rng, digits) for _ in range(width)]
                for _ in range(m + rng.randint(1, 2))]
        for i in rng.sample(range(len(rows)), rng.randint(0, 2)):
            rows[i] = [F(0)] * width
        for j in rng.sample(range(width), rng.randint(0, 2)):
            for row in rows:
                row[j] = F(0)
        r, col = rng.randrange(m), rng.randrange(width)
        if not rows[r][col]:
            rows[r][col] = F(1) if rng.random() < 0.5 else F(-3, 7)
        want, want_basis = [row.copy() for row in rows], list(range(m))
        basis = list(range(m))
        _two_step_pivot(want, want_basis, r, col)
        linprog._pivot(rows, basis, r, col)
        assert rows == want and basis == want_basis, f"trial {trial}"
        assert all(type(x) is F for row in rows for x in row), \
            f"trial {trial}"


def _random_program(rng):
    """A program over 1 to 5 variables with 1 to 6 rows of every
    relation, its entries of 1, 3, 10 or 30 digits."""
    n = rng.randint(1, 5)
    digits = rng.choice((1, 1, 3, 10, 30))
    cons = [([_entry(rng, digits) for _ in range(n)],
             rng.choice(("<=", "<=", ">=", "=")), _entry(rng, digits))
            for _ in range(rng.randint(1, 6))]
    return LinearProgram(n, [_entry(rng, digits) for _ in range(n)], cons)


def _fraction_rule(ties):
    """linprog._simplex deciding with Fraction comparisons: a column
    enters when z[j] > 0, and the ratio test compares the Fractions
    rows[i][-1] / a.  ties counts the ratios that equal the least one
    seen before them (ties[0]) and those of them that the least basis
    index hands the row (ties[1])."""
    def simplex(rows, basis, allowed):
        while True:
            z = rows[-1]
            col = next((j for j in allowed if z[j] > 0), None)
            if col is None:
                return True
            leave, best = -1, None
            for i, b in enumerate(basis):
                a = rows[i][col]
                if a > 0:
                    ratio = rows[i][-1] / a
                    if ratio == best:
                        ties[0] += 1
                        ties[1] += b < basis[leave]
                    if best is None or ratio < best or (
                        ratio == best and b < basis[leave]
                    ):
                        leave, best = i, ratio
            if leave < 0:
                return False
            linprog._pivot(rows, basis, leave, col)
    return simplex


def test_fused_pivot_solves_as_the_reference(monkeypatch):
    """4,000 seeded programs and 100 of the degenerate family (through
    the shift x = y - 2), each solved by linprog and by the reference:
    the Fraction rule with the two-operation pivot.  Both make the same
    (row, column) pivots in the same order and give the same status,
    value and witness.  The family must reach every status and ties
    in the ratio test, some of them broken for a later row by its
    least basis index."""
    made, ties = [], [0, 0]

    def logged(pivot):
        def run(rows, basis, r, col):
            made.append((r, col))
            pivot(rows, basis, r, col)
        return run

    sides = ((linprog._simplex, logged(linprog._pivot)),
             (_fraction_rule(ties), logged(_two_step_pivot)))
    rng = random.Random(1968)
    programs = [_random_program(rng) for _ in range(4000)]
    programs += [LinearProgram(*shifted(*_degenerate_system(rng), 2))
                 for _ in range(100)]
    statuses = {Optimal: 0, Infeasible: 0, Unbounded: 0}
    for trial, lp in enumerate(programs):
        results = []
        for simplex, pivot in sides:
            made.clear()
            monkeypatch.setattr(linprog, "_simplex", simplex)
            monkeypatch.setattr(linprog, "_pivot", pivot)
            results.append((lp_optimize(lp), made.copy()))
        assert results[0] == results[1], f"trial {trial}"
        statuses[type(results[0][0])] += 1
    assert min(statuses.values()) >= 200, statuses
    assert ties[0] >= 300 and ties[1] >= 100, ties
