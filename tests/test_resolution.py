import collections
import random
from fractions import Fraction as F

import pytest

from lctforge import linprog, resolution
from lctforge.resolution import (
    an_chain,
    du_val_coefficient_bounds,
    tower_coefficients,
    resolution_pairing,
)
from lctforge.syntax import CheckFailed
from vertexenum import brute_max


def entry(n, i, j):
    """E_i.E_j on A_n with 1-based indices, written out for the
    oracles: -2 on the diagonal, 1 next to it, 0 elsewhere."""
    assert 1 <= i <= n and 1 <= j <= n
    return -2 if i == j else 1 if abs(i - j) == 1 else 0


def test_chain_matrix():
    # a chain is its length, and every reader refuses one below 1
    assert an_chain(4) == 4
    for read in (lambda: an_chain(0), lambda: du_val_coefficient_bounds(0),
                 lambda: resolution_pairing(1, 1, (), 1, (), 0)):
        with pytest.raises(ValueError,
                           match="^chain length must be at least 1$"):
            read()


def chain_rows(n, extra):
    """The same constraint list du_val_coefficient_bounds builds,
    rebuilt independently for the oracle."""
    rows = []
    for j in range(n):
        row = [F(0)] * n
        row[j] = F(2)
        if j > 0:
            row[j - 1] = F(-1)
        if j + 1 < n:
            row[j + 1] = F(-1)
        rows.append((row, ">=", F(0)))
    for j in range(n):
        row = [F(0)] * n
        row[j] = F(1)
        rows.append((row, ">=", F(0)))
    rows.extend(extra)
    return rows


A3_CAP = [([1, 0, 1], "<=", F(1))]
A4_CAP = [([1, 0, 0, 1], "<=", F(1))]


def test_a3_bounds():
    assert du_val_coefficient_bounds(an_chain(3), A3_CAP) == \
        [F(3, 4), F(1), F(3, 4)]


def test_a4_bounds():
    assert du_val_coefficient_bounds(an_chain(4), A4_CAP) == \
        [F(4, 5), F(6, 5), F(6, 5), F(4, 5)]


def test_bounds_agree_with_vertex_enumeration():
    for n, extra in ((3, A3_CAP), (4, A4_CAP)):
        got = du_val_coefficient_bounds(an_chain(n), extra)
        rows = chain_rows(n, extra)
        for i in range(n):
            obj = [F(0)] * n
            obj[i] = F(1)
            assert got[i] == brute_max(n, obj, rows)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("c", [F(0), F(1, 2), F(1), F(7, 3)])
def test_bounds_closed_form(n, c):
    # with the cap a_1 + a_n <= c the maxima are c*i*(n+1-i)/(n+1)
    cap = [[1] + [0] * (n - 2) + [1]]
    got = du_val_coefficient_bounds(an_chain(n), [(cap[0], "<=", c)])
    assert got == [c * i * (n + 1 - i) / (n + 1) for i in range(1, n + 1)]


def test_a8_middle_bound():
    got = du_val_coefficient_bounds(
        an_chain(8), [([1, 0, 0, 0, 0, 0, 0, 1], "<=", F(1))])
    assert got[3] == got[4] == F(20, 9)


def test_bounds_unbounded_without_cap():
    # the ray a = (t, ..., t) satisfies every chain row
    with pytest.raises(ValueError) as exc:
        du_val_coefficient_bounds(an_chain(3))
    assert str(exc.value) == "a_1 is unbounded above; add a cap constraint"


def test_bounds_infeasible_extra():
    with pytest.raises(CheckFailed):
        du_val_coefficient_bounds(
            an_chain(2), [([1, 0], "<=", F(-1))])
    with pytest.raises(CheckFailed) as exc:
        du_val_coefficient_bounds(an_chain(3), [([1, 0, 1], "<=", F(-1))])
    assert str(exc.value) == "constraint system is infeasible"


def test_bounds_extra_row_length():
    with pytest.raises(ValueError):
        du_val_coefficient_bounds(an_chain(2), [([1], "<=", F(1))])


def test_bounds_convert_their_rows_once(monkeypatch):
    """The program of each objective holds the very Fractions of the
    first one: no row is converted again."""
    programs = []

    def record(lp):
        programs.append(lp)
        return real(lp)

    real = resolution.lp_optimize
    monkeypatch.setattr(resolution, "lp_optimize", record)
    got = du_val_coefficient_bounds(an_chain(4), [([1, 0, 0, 1], "<=", 2)])
    assert got == [F(8, 5), F(12, 5), F(12, 5), F(8, 5)]
    assert [lp.objective.index(1) for lp in programs] == [0, 1, 2, 3]
    first = programs[0].constraints
    for lp in programs[1:]:
        assert len(lp.constraints) == len(first) == 5
        for (coeffs, rel, bound), (coeffs0, rel0, bound0) in zip(
                lp.constraints, first):
            assert bound is bound0 and rel is rel0
            assert all(a is b for a, b in zip(coeffs, coeffs0))


def test_bounds_read_and_sign_each_row_once(monkeypatch):
    """One bound converts each row once and negates each chain row once,
    as LinearProgram stores it (2a_j - a_{j-1} - a_{j+1} >= 0 becomes
    <= 0); each of the n objectives reads only itself."""
    reads, negations = collections.Counter(), 0
    real_rationals, real_neg = linprog.rationals, F.__neg__

    def rationals(values, name):
        reads[name] += 1
        return real_rationals(values, name)

    def neg(self):
        nonlocal negations
        negations += 1
        return real_neg(self)

    monkeypatch.setattr(linprog, "rationals", rationals)
    monkeypatch.setattr(F, "__neg__", neg)
    got = du_val_coefficient_bounds(an_chain(4), [([1, 0, 0, 1], "<=", 2)])
    assert got == [F(8, 5), F(12, 5), F(12, 5), F(8, 5)]
    # the constructor's objective and one per a_i; five rows
    assert reads == {"objective": 5, "coefficients": 5, "bounds": 5}
    # 2 + 3 + 3 + 2 nonzero chain coefficients and the 4 zero bounds
    assert negations == 14


def test_tower_coefficients():
    out = tower_coefficients(F(1, 2), F(2, 3), (F(1, 3), F(1, 2)), 2)
    # a1 + i*a2 - i + m_1 + ... + m_i
    assert out[0] == (F(1, 2), True)
    assert out[1] == (F(2, 3), True)
    assert tower_coefficients(F(3), F(0), (F(0),), 1) == [(F(2), False)]
    # ints are read as their Fractions
    out = tower_coefficients(1, 0, [1, 1], 2)
    assert out == [(F(1), True), (F(1), True)]
    assert all(type(v) is F for v, _ in out)


def test_tower_validation():
    with pytest.raises(ValueError,
                       match="^multiplicities must be nonnegative$"):
        tower_coefficients(0, 0, (1, -1), 1)
    with pytest.raises(ValueError, match="^need 2 multiplicities, got 1$"):
        tower_coefficients(0, 0, (0,), 2)
    with pytest.raises(ValueError, match="^need at least one blow-up$"):
        tower_coefficients(0, 0, (0,), 0)


def test_resolution_pairing_a4_class():
    # strict transform of the bi-anticanonical curve at an A4 point of
    # the sextic: square is zero
    z = (2, (-1, -2, -2, -1))
    assert resolution_pairing(1, *z, *z, an_chain(4)) == 0
    # against the pullback itself: only the k*k*K^2 term survives
    pull = (1, (0, 0, 0, 0))
    assert resolution_pairing(1, *z, *pull, an_chain(4)) == 2
    assert resolution_pairing(1, *pull, *pull, an_chain(4)) == 1
    assert type(resolution_pairing(1, *pull, *pull, 4)) is F


def test_resolution_pairing_chain_form():
    # pure exceptional classes reproduce the chain matrix
    for i in range(3):
        for j in range(3):
            e1 = [0, 0, 0]
            e2 = [0, 0, 0]
            e1[i] = 1
            e2[j] = 1
            assert resolution_pairing(1, 0, e1, 0, e2, an_chain(3)) == \
                entry(3, i + 1, j + 1)


def test_resolution_pairing_matches_the_full_matrix_sum():
    rng = random.Random(20091)
    for _ in range(60):
        n = rng.randint(1, 9)
        chain = an_chain(n)

        def rand_class():
            return (F(rng.randint(-5, 5), rng.randint(1, 4)),
                    [F(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(n)])

        ksq = F(rng.randint(-9, 9), rng.randint(1, 3))
        (k1, e1), (k2, e2) = rand_class(), rand_class()
        full = k1 * k2 * ksq + sum(
            e1[i] * e2[j] * entry(n, i + 1, j + 1)
            for i in range(n) for j in range(n))
        assert resolution_pairing(ksq, k1, e1, k2, e2, chain) == full


def test_resolution_pairing_never_walks_the_matrix():
    # a walk over the n^2 entries would not finish at this length
    n = 20_000
    e = [1] * n
    # K^2 term 1, and e.e = -2n + 2(n - 1) = -2 on all-ones coefficients
    assert resolution_pairing(1, 1, e, 1, e, an_chain(n)) == -1


def test_resolution_pairing_validation():
    with pytest.raises(ValueError,
                       match=r"^class lengths 1, 2 do not match A_2$"):
        resolution_pairing(1, 1, (0,), 1, (0, 0), an_chain(2))
    with pytest.raises(ValueError, match="^k, ksq and e must be rationals$"):
        resolution_pairing(1, 1, [0, 0.5], 1, [0, 0], 2)
