"""The untwisting involution on span(H, E), and orbit data.

The lattice is the rank-2 span of H and E = E_1 + ... + E_6 in a six
point blow-up, with H^2 = 1 and E^2 = -6, and a class is its pair of
coefficients (h, e).  The involution acts by H -> 5H - 2E and
E -> 12H - 5E; composing a mobile system with it rescales its degree
invariant mu and the multiplicity at the distinguished orbit, which is
what ``untwist`` computes.

Group orbit sizes are shipped as a small literal table with sources,
and each minimal orbit is the least of them; nothing here computes
orbits.
"""

from .record import record
from .syntax import CheckFailed, integers, rationals


def apply_involution(h, e):
    """The untwisting involution on span(H, E): the class h*H + e*E
    goes to (5h + 12e)*H - (2h + 5e)*E."""
    h, e = rationals((h, e), "h and e")
    return (5 * h + 12 * e, -(2 * h + 5 * e))


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
