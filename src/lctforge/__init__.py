"""Exact-arithmetic verification toolkit for log canonical threshold
bounds on orbifold del Pezzo surfaces.

All arithmetic is exact and rational, never a float.  The modules:

- ``syntax``      the front end of the file formats and argument
                  text: one rule for numbers (``parse_rat``) and
                  blanks, one cursor, one grammar, ``LctforgeError``
                  and ``CheckFailed``; and the two rules by which
                  every value enters the domain, ``rationals`` and
                  ``integers``
- ``record``      the immutable record type of every module
- ``linprog``     exact simplex over the rationals
- ``sparsepoly``  sparse multivariate polynomials: int numerators over
                  one common denominator, keyed by packed exponents
- ``localineq``   local inequality engines (hypothesis checks,
                  multiplicity refutations, classical bounds)
- ``surfaces``    weighted hypersurface ledgers and their consistency
                  audit
- ``resolution``  du Val resolution chains and coefficient bounds
- ``lattice``     Picard-lattice involutions, untwisting, orbit data
- ``polyid``      polynomial identity files
- ``certs``       the certificate language and its checkers
- ``cli``         the ``lctforge`` command line tool
"""

from pathlib import Path


def data_path(*parts):
    """Path to a bundled data file, e.g. data_path('ledgers',
    'wps-11-21-29-37-d95.ledger')."""
    return Path(__file__).parent / "data" / Path(*parts)


__version__ = "0.1.0"
