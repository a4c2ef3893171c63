"""Brute-force LP oracle: enumerate candidate vertices exactly.

Independent of the simplex code on purpose — this is the cross-check.
Every vertex of a polytope {x : rows hold} is the solution of some
n-subset of rows made tight, so for tiny n we can afford to try all
subsets, keep the feasible solutions, and take the best objective
value.  Only sound for systems whose feasible set is bounded (give
every test system a bounding box) since then a nonempty region has a
vertex and the optimum is attained at one.
"""

from fractions import Fraction
from itertools import combinations


def solve_square(rows, rhs):
    """Gauss-Jordan over Fraction; None when the matrix is singular."""
    n = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def satisfies(point, constraints):
    for coeffs, rel, bound in constraints:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if rel == "<=" and lhs > bound:
            return False
        if rel == ">=" and lhs < bound:
            return False
        if rel == "=" and lhs != bound:
            return False
    return True


def feasible_vertices(n, constraints):
    seen = set()
    out = []
    for combo in combinations(range(len(constraints)), n):
        rows = [constraints[k][0] for k in combo]
        rhs = [constraints[k][2] for k in combo]
        point = solve_square(rows, rhs)
        if point is None:
            continue
        point = tuple(point)
        if point in seen:
            continue
        seen.add(point)
        if satisfies(point, constraints):
            out.append(point)
    return out


def brute_max(n, objective, constraints):
    """Best objective value over the feasible vertices; None if there
    are none (= infeasible, for boxed systems)."""
    best = None
    for point in feasible_vertices(n, constraints):
        value = sum(c * x for c, x in zip(objective, point))
        if best is None or value > best:
            best = value
    return best


def brute_lexmax(n, objective, constraints):
    """The lexicographically smallest vertex among those attaining the
    best objective value; None if there are none.  For a bounded system
    this is the lexicographically smallest optimizer, since the optimal
    face is then a polytope and its lexicographic minimum is a vertex."""
    points = feasible_vertices(n, constraints)
    if not points:
        return None

    def value(point):
        return sum(c * x for c, x in zip(objective, point))

    best = max(map(value, points))
    return min(p for p in points if value(p) == best)


def shifted(n, objective, rows, r):
    """The program (n, objective, rows) rewritten in y = x + r, as a
    triple of the same form: each row c.x REL b becomes c.y REL b + c.r,
    and the objective keeps its coefficients, so its value grows by
    objective.r.  The translation keeps the lexicographic order, so the
    lexicographic optimizer in y, minus r, is the one in x.  When every
    x_j >= -r already follows from the rows (a box of radius r does
    it), the program in y over nonnegative variables is the same
    program."""
    rows = [(coeffs, rel, bound + r * sum(coeffs))
            for coeffs, rel, bound in rows]
    return n, list(objective), rows


def box(n, radius):
    """Rows -radius <= x_i <= radius, as constraint triples."""
    rows = []
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        rows.append((list(row), "<=", Fraction(radius)))
        rows.append(([-c for c in row], "<=", Fraction(radius)))
    return rows
