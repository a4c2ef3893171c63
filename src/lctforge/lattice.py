"""Blow-up Picard lattices, an untwisting involution, and orbit data.

The lattice is Z H + Z E_1 + ... + Z E_k with H^2 = 1, E_i^2 = -1 and
everything else orthogonal.  The involution implemented here acts on
the rank-2 sublattice spanned by H and E = E_1 + ... + E_6 of a six
point blow-up, by H -> 5H - 2E and E -> 12H - 5E; composing a mobile
system with it rescales its degree invariant mu and the multiplicity
at the distinguished orbit, which is what ``untwist`` computes.

Group orbit sizes are shipped as a small literal table with sources,
and each minimal orbit is the least of them; nothing here computes
orbits.
"""

from .record import record
from .syntax import CheckFailed, integers, rationals


class PicClass(record("PicClass", "h e")):
    """h*H + sum e_i*E_i in the blow-up lattice."""

    __slots__ = ()

    def __new__(cls, h, e):
        h, *e = rationals((h, *e), "h and e")
        return super().__new__(cls, h, tuple(e))

    def dot(self, other):
        if len(self.e) != len(other.e):
            raise ValueError(
                f"rank mismatch: {len(self.e)} vs {len(other.e)} "
                "exceptional classes"
            )
        return self.h * other.h - sum(
            a * b for a, b in zip(self.e, other.e)
        )


def apply_involution(c):
    """The untwisting involution on span(H, E1+...+E6).

    Classes with unequal exceptional coefficients do not lie in that
    sublattice and are rejected.
    """
    if len(c.e) != 6:
        raise ValueError(
            f"involution lives on a 6-point blow-up, class has {len(c.e)}"
        )
    s = c.e[0]
    if any(v != s for v in c.e):
        raise ValueError(
            "class is outside span(H, E): exceptional coefficients differ"
        )
    # H -> 5H - 2E, E -> 12H - 5E  (E = E1+...+E6)
    h = 5 * c.h + 12 * s
    t = -(2 * c.h + 5 * s)
    return PicClass(h, (t,) * 6)


def untwist(mu, mult):
    """Degree invariant and orbit multiplicity after one untwist.

    mu' = 3 / (15/mu - 12*mult),  mult' = 6/mu - 5*mult; raises
    CheckFailed when 15/mu - 12*mult is not positive.
    """
    mu, mult = rationals((mu, mult), "mu and mult")
    if mu <= 0:
        raise ValueError("mu must be positive")
    den = 15 / mu - 12 * mult
    if den <= 0:
        raise CheckFailed(f"15/mu - 12*mult = {den} is not positive")
    return (3 / den, 6 / mu - 5 * mult)


def pukhlikov_bound(sigma0, sigma1, c, form):
    """The two quadratic multiplicity bounds from the path-count setup."""
    sigma0, sigma1, c = rationals((sigma0, sigma1, c), "sigma0, sigma1, c")
    num = (2 * sigma0 + sigma1 - c) ** 2
    if form not in ("with_sigma0", "without_sigma0"):
        raise ValueError(
            f"unknown form {form!r} (want 'with_sigma0' or 'without_sigma0')"
        )
    if form == "with_sigma0" and sigma0 == 0:
        raise ValueError("with_sigma0 form needs sigma0 != 0")
    if sigma0 + sigma1 == 0:
        raise ValueError(f"{form} form needs sigma0+sigma1 != 0")
    bound = num / (sigma0 + sigma1)
    return bound / sigma0 if form == "with_sigma0" else bound


# ------------------------------------------------------------- orbit data


OrbitDatum = record("OrbitDatum", "group space min_orbit "
                                   "known_orbit_sizes source")


# (group, space) -> (the known orbit sizes, their source)
_ORBIT_TABLE = {
    ("A5", "P1"): ({12, 20, 30}, "icosahedron: vertex, face and edge "
                                 "orbits (classical; Klein 1884)"),
    ("A5", "P2"): ({6}, "icosahedral plane action; six-point orbit of "
                        "the invariant conic pencil (Springer 1977)"),
    ("A5", "conic"): ({12, 20, 30}, "invariant conic carries the P1 "
                                    "action (Springer 1977)"),
    ("A6", "P2"): ({36}, "Valentiner plane action through 3.A6: its "
                         "A5, 3^2:4, S4, A4 and 3^2 fix no point, its "
                         "D10 fixes one (Cheltsov & Shramov 2015)"),
    ("PSL(2,7)", "P2"): ({21}, "Klein quartic plane action: a point "
                               "stabilizer of order 8 is D8 (Klein 1879; "
                               "Cheltsov & Shramov 2015)"),
    ("A5", "quintic del Pezzo"): ({6}, "point stabilizers of order at "
                                       "most 10 force orbits of at least "
                                       "six points"),
}


def min_orbit_size(group, space):
    """Orbit datum (minimal size plus the known orbit sizes) for a
    shipped (group, space) pair."""
    try:
        sizes, source = _ORBIT_TABLE[(group, space)]
    except KeyError:
        known = ", ".join(
            f"({g}, {s})" for g, s in sorted(_ORBIT_TABLE)
        )
        raise ValueError(
            f"no orbit datum for ({group}, {space}); shipped pairs: {known}"
        ) from None
    return OrbitDatum(group, space, min(sizes), frozenset(sizes), source)


def superrigidity_orbit_test(k_squared, min_orbit):
    """Sufficient criterion: every orbit at least as big as K^2."""
    k_squared, = rationals((k_squared,), "K^2")
    if k_squared <= 0:
        raise ValueError("K^2 must be positive")
    min_orbit, = integers((min_orbit,), "min_orbit")
    if min_orbit <= 0:
        raise ValueError("min_orbit must be positive")
    return min_orbit >= k_squared
