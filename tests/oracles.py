"""Test-side helpers and the reference ledger audit.

lctforge's own code never calls these; the tests do.

- ``num(value)`` is ``certs.Num`` with the checks a hand-built literal
  needs: a rational, never negative.  The parser builds ``Num`` from
  the lexer's number, which is both already.
- ``cert_str(cert)`` is the canonical text of a certificate, which
  parses back to an equal tree.
- ``dot(c, d)`` is the intersection form of the blow-up lattice,
  H^2 = 1 and E_i^2 = -1, on two ``lattice.PicClass``es.
- ``is_fano(surface)`` says whether a weighted surface has a positive
  amplitude.
- ``ledger_consistency(ledger)`` is the ledger audit in plain Fraction
  arithmetic, as lctforge ran it before each check was decided on
  ints over its own values' common denominator: the same checks, in
  the same order, with the same names, values and errors.  It reads
  the table through ``SurfaceLedger.pairing`` and derives the weight
  formula and K^2 itself.
"""

from fractions import Fraction
from math import prod
import re

from lctforge.certs import Num, _stmt_str
from lctforge.localineq import HypothesisReport
from lctforge.surfaces import COORDS, CoordCut, LedgerCheck, QuasiLine
from lctforge.syntax import LctforgeError, rationals


def num(value):
    v, = rationals((value,), "literals")
    if v < 0:
        raise ValueError("negative literal; wrap in Neg instead")
    return Num(v)


def cert_str(cert):
    lines = [f'cert "{cert.name}"']
    lines.extend(_stmt_str(s) for s in cert.steps)
    return "\n".join(lines) + "\n"


def dot(c, d):
    if len(c.e) != len(d.e):
        raise ValueError(f"rank mismatch: {len(c.e)} vs {len(d.e)} "
                         "exceptional classes")
    return c.h * d.h - sum(a * b for a, b in zip(c.e, d.e))


def is_fano(surface):
    return surface.amplitude > 0


def k_squared(surface):
    """Anticanonical self-intersection I^2*d / (a0*a1*a2*a3)."""
    return Fraction(surface.amplitude ** 2 * surface.degree,
                    prod(surface.weights))


def anticanonical_pairing(surface, c):
    """O(I).c as a Fraction, I the amplitude (positive here)."""
    m, w = surface.amplitude, surface.weights
    if isinstance(c, QuasiLine):
        k, l = (a for a in range(4) if a not in (c.i, c.j))
        return Fraction(m, w[k] * w[l])
    assert isinstance(c, CoordCut)
    j, k, l = (a for a in range(4) if a != c.i)
    return Fraction(m * c.e, w[j] * w[k] * w[l])


def ledger_consistency(ledger):
    surf = ledger.surface
    I = surf.amplitude
    if I <= 0:
        raise LctforgeError(f"amplitude {I} is not positive: the surface "
                            "is not Fano")
    w = surf.weights
    pairing = ledger.pairing
    checks = []
    missing = []

    def equal(name, lhs, rhs):
        checks.append(LedgerCheck(name, lhs, "==", rhs, lhs == rhs))

    for name in sorted(ledger.curves):
        if (dval := pairing("D", name)) is not None:
            equal(f"D.{name} matches the weight formula", dval,
                  anticanonical_pairing(surf, ledger.curves[name]))

    for i in sorted(ledger.decompositions):
        comps = ledger.decompositions[i]
        coord = COORDS[i]
        share = Fraction(w[i], I)  # D.C_i = share * K^2
        dvals = []
        for gamma in comps:
            # each key as the table holds it: D first, else sorted
            keys = [("D", gamma), *(tuple(sorted((gamma, lam)))
                                    for lam in comps)]
            dval, *row = values = [pairing(a, b) for a, b in keys]
            dvals.append(dval)
            missing += [f"self {a}" if a == b else f"pair {a}.{b}"
                        for (a, b), v in zip(keys, values) if v is None]
            if not missing:
                equal(f"C_{coord}: ({w[i]}/{I})*(D.{gamma}) recovers "
                      f"{gamma}^2", share * dval, sum(row))
        if not missing:
            equal(f"C_{coord}: sum of D pairings over components",
                  sum(dvals), share * k_squared(surf))
        for gamma in sorted(ledger.curves):
            if gamma in comps or (dval := pairing("D", gamma)) is None:
                continue
            row = [v for lam in comps
                   if (v := pairing(gamma, lam)) is not None]
            if len(row) == len(comps):
                equal(f"C_{coord} additivity against {gamma}", sum(row),
                      share * dval)

    for pt in ledger.singular_points.values():
        m = re.fullmatch(r"O_([xyzt])", pt.name)
        if m:
            equal(f"{pt.name} index equals the {m.group(1)} weight",
                  Fraction(pt.index), Fraction(w[COORDS.index(m.group(1))]))

    if missing:
        raise LctforgeError("missing ledger entries: "
                            + ", ".join(dict.fromkeys(missing)))
    return HypothesisReport(tuple(checks))
