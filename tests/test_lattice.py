import random
from fractions import Fraction as F

import pytest

from grouporacle import orbit_size_possible, subgroup_orders
from lctforge import lattice
from lctforge.lattice import (
    OrbitDatum,
    PicClass,
    apply_involution,
    untwist,
    pukhlikov_bound,
    min_orbit_size,
    superrigidity_orbit_test,
)
from lctforge.syntax import CheckFailed


def test_picclass_dot():
    a = PicClass(3, (1, 1, 1))
    b = PicClass(2, (0, 1, 2))
    assert a.dot(b) == 6 - 3
    assert a.dot(a) == 9 - 3
    k = PicClass(-3, (1,) * 6)
    assert k.dot(k) == 3


def test_picclass_rank_mismatch():
    with pytest.raises(ValueError):
        PicClass(1, (0, 0)).dot(PicClass(1, (0, 0, 0)))


def test_picclass_eq_hash():
    assert PicClass(1, (0,)) == PicClass(F(1), (F(0),))
    assert PicClass(1, (0,)) != PicClass(1, (1,))
    assert len({PicClass(2, (1, 1)), PicClass(2, (1, 1))}) == 1


def span6(h, s):
    return PicClass(h, (s,) * 6)


def test_involution_images():
    assert apply_involution(span6(1, 0)) == span6(5, -2)
    assert apply_involution(span6(5, -2)) == span6(1, 0)
    # the anticanonical class is fixed
    k = span6(-3, 1)
    assert apply_involution(k) == k
    assert k.dot(k) == 3


def test_involution_is_isometric_involution():
    rng = random.Random(77)
    classes = [
        span6(F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
        for _ in range(40)
    ]
    for c in classes:
        ci = apply_involution(c)
        assert apply_involution(ci) == c
        assert ci.dot(ci) == c.dot(c)
        for d in classes[:8]:
            assert ci.dot(apply_involution(d)) == c.dot(d)


def test_involution_rejects_outside_span():
    with pytest.raises(ValueError):
        apply_involution(PicClass(1, (1, 0, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        apply_involution(PicClass(1, (0,) * 5))


def test_untwist_values():
    assert untwist(1, F(7, 6)) == (3, F(1, 6))
    assert untwist(1, 1) == (1, 1)
    assert untwist(3, F(1, 3)) == (3, F(1, 3))


def test_untwist_fixed_points_on_hyperbola():
    # mu * mult = 1 is fixed pointwise
    for mu in (F(1, 2), F(1), F(2), F(3), F(5, 2)):
        mult = 1 / mu
        assert untwist(mu, mult) == (mu, mult)


def test_untwist_strict_growth():
    # above the hyperbola (mu*mult > 1, denominator still positive)
    # the degree invariant strictly increases
    hits = 0
    for i in range(1, 19):
        for j in range(1, 19):
            mu, mult = F(i, 6), F(j, 6)
            if mu * mult <= 1 or 15 / mu - 12 * mult <= 0:
                continue
            hits += 1
            assert untwist(mu, mult)[0] > mu
    assert hits >= 12


def test_untwist_errors():
    with pytest.raises(CheckFailed,
                       match=r"^15/mu - 12\*mult = 0 is not positive$"):
        untwist(1, F(5, 4))
    with pytest.raises(CheckFailed):
        untwist(12, F(1, 2))
    with pytest.raises(ValueError):
        untwist(0, 1)
    with pytest.raises(ValueError):
        untwist(-2, 1)


def test_pukhlikov_values():
    assert pukhlikov_bound(1, 1, 0, "with_sigma0") == F(9, 2)
    assert pukhlikov_bound(1, 1, -1, "without_sigma0") == 8


def test_pukhlikov_errors():
    with pytest.raises(ValueError):
        pukhlikov_bound(0, 1, 0, "with_sigma0")
    with pytest.raises(ValueError):
        pukhlikov_bound(1, -1, 0, "without_sigma0")
    with pytest.raises(ValueError):
        pukhlikov_bound(1, 1, 0, "cuspidal")
    # this form used to divide by zero
    with pytest.raises(ValueError, match=r"^with_sigma0 form needs "
                                         r"sigma0\+sigma1 != 0$"):
        pukhlikov_bound(1, -1, 0, "with_sigma0")


def test_pukhlikov_exceeds_linear_side():
    # spot checks of the impossibility the acceptance suite sweeps:
    # the quadratic bound always beats (5/4)*sigma0 - 3c here
    for s0, s1, c in ((1, 1, F(-1, 10)), (100, 1, -1), (7, 93, F(-3, 10))):
        assert pukhlikov_bound(s0, s1, c, "without_sigma0") > \
            F(5, 4) * s0 - 3 * c


def test_orbit_table():
    # every shipped pair in full: the record's five fields
    table = {
        ("A5", "P1"): (12, {12, 20, 30},
                       "icosahedron: vertex, face and edge orbits "
                       "(classical; Klein 1884)"),
        ("A5", "P2"): (6, {6},
                       "icosahedral plane action; six-point orbit of the "
                       "invariant conic pencil (Springer 1977)"),
        ("A5", "conic"): (12, {12, 20, 30},
                          "invariant conic carries the P1 action "
                          "(Springer 1977)"),
        ("A6", "P2"): (36, {36},
                       "Valentiner plane action through 3.A6: its A5, "
                       "3^2:4, S4, A4 and 3^2 fix no point, its D10 fixes "
                       "one (Cheltsov & Shramov 2015)"),
        ("PSL(2,7)", "P2"): (21, {21},
                             "Klein quartic plane action: a point "
                             "stabilizer of order 8 is D8 (Klein 1879; "
                             "Cheltsov & Shramov 2015)"),
        ("A5", "quintic del Pezzo"): (6, {6},
                                      "point stabilizers of order at most "
                                      "10 force orbits of at least six "
                                      "points"),
    }
    for (group, space), (least, sizes, source) in table.items():
        datum = min_orbit_size(group, space)
        assert datum == OrbitDatum(group, space, least, frozenset(sizes),
                                   source)
        assert datum._fields == ("group", "space", "min_orbit",
                                 "known_orbit_sizes", "source")
        assert type(datum.known_orbit_sizes) is frozenset
    with pytest.raises(ValueError) as info:
        min_orbit_size("S4", "P2")
    assert str(info.value).endswith(
        "shipped pairs: " + ", ".join(f"({g}, {s})" for g, s in sorted(table)))


def test_orbit_table_sizes_have_stabilizers():
    """Every shipped orbit size s leaves a stabilizer order |G|/s that
    some subgroup has; 12 points, the table's old value for A6 and
    PSL(2,7) on P2, would need a subgroup of order 30 or 14."""
    assert subgroup_orders("A5") == {1, 2, 3, 4, 5, 6, 10, 12, 60}
    assert subgroup_orders("A6") == {1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 18,
                                     24, 36, 60, 360}
    assert subgroup_orders("PSL(2,7)") == {1, 2, 3, 4, 6, 7, 8, 12, 21,
                                           24, 168}
    for (group, _), (sizes, _) in lattice._ORBIT_TABLE.items():
        for size in sizes:
            assert orbit_size_possible(group, size), (group, size)
    assert not orbit_size_possible("A6", 12)
    assert not orbit_size_possible("PSL(2,7)", 12)


def test_orbit_table_unknown_pair():
    with pytest.raises(ValueError, match="shipped pairs"):
        min_orbit_size("S4", "P2")


def test_superrigidity_orbit_test():
    assert superrigidity_orbit_test(5, 6) is True
    assert superrigidity_orbit_test(9, 12) is True
    assert superrigidity_orbit_test(9, 6) is False
    with pytest.raises(ValueError):
        superrigidity_orbit_test(0, 6)
    with pytest.raises(ValueError):
        superrigidity_orbit_test(-5, 6)
    assert superrigidity_orbit_test(F(9, 2), F(5)) is True
    # an orbit of 11/2 points used to prove superrigidity at K^2 = 5,
    # and an orbit of 0 points to refute it at K^2 = 1/2
    with pytest.raises(ValueError, match="^min_orbit must be integers$"):
        superrigidity_orbit_test(5, F(11, 2))
    with pytest.raises(ValueError, match="^min_orbit must be positive$"):
        superrigidity_orbit_test(F(1, 2), 0)
