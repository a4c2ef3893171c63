"""Exact rational scalars.

Every scalar this package takes or returns is a ``fractions.Fraction``:
reduced, arbitrary-precision, denominator kept positive.  No floating point
anywhere.  This module only adds the p/q text round-trip used by the
certificate, ledger, and polynomial file formats.
"""

from fractions import Fraction


def parse_rat(text):
    """Parse 'p/q' or 'p' into a Fraction.  Raises ValueError on junk
    and ZeroDivisionError, naming the literal, when q is 0."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        num, den = int(num), int(den)
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in rational {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def rat_str(x):
    """Render a Fraction as 'p/q', or 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
