"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial of arity n is ``terms / den``: ``terms`` maps packed
exponent ints to nonzero int numerators, and ``den`` is one positive
int shared by all of them, with gcd(den, every numerator) = 1.  The
form is canonical, so equal dicts are equal polynomials and the hash
agrees with ``==``; ``len(terms)`` is the number of nonzero terms.

Exponents are packed as in Monagan & Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors" (CASC 2007).  The
exponent vector (e_1, ..., e_n) of total degree d becomes one int of
n + 1 fields of FIELD_BITS bits, d in the highest field:

    key = d << (n * FIELD_BITS) | e_1 << ((n - 1) * FIELD_BITS) | ... | e_n

The product of two monomials is the sum of their keys, and ordering
keys as ints is graded lexicographic order.  A field never carries into
the next: every exponent and every product degree is checked against
MAX_DEGREE before it is packed, and a ValueError is raised past it.

Two more budgets bound what one product may cost, and each is checked
before the product is formed: a product of two polynomials with n and
m terms makes n*m term products, at most MAX_TERM_PRODUCTS; and its
coefficients (the numerators, sums of at most min(n, m) products, and
the denominator) may reach at most MAX_COEFF_BITS bits.  The check
takes one pass over each multi-term operand's numerators, for the
largest bit length; nothing is kept on the operand.  The budgets bound
one product, not a file: an expression of many products, each inside
them, costs time in proportion to their number.

These shortcuts skip work whose result is known, each under the
condition given, and each after the checks of the general path, in
the same order and with the same texts:

- a product of two one-term polynomials is one term: the degree is
  read from each key, (k1 >> s) + (k2 >> s) with s = n * FIELD_BITS
  (the sum k1 + k2 carries into the degree field when the first
  exponent field is full), and the coefficient bits from the two
  numerators;
- a square (``p * p``, one object on both sides) forms each cross
  term once and doubles it, n(n+1)/2 integer products in place of n*n;
- a power is a square-and-multiply chain of products, so it stops at
  the first one past a budget; but a one-term c/d * t^key to the
  k >= 2, whose degree is read from its one key, is c^k/d^k *
  t^(k*key) in one step when k*bitlen(c) < MAX_COEFF_BITS and
  k*bitlen(d) <= MAX_COEFF_BITS, bounds inside which every product of
  the chain is inside both budgets.  Past them the chain runs, so a
  power is refused exactly where, and with the message with which, it
  was before;
- a sum or difference a +- b adds +-b's numerators into a copy of a's
  terms in one pass, and copies a's numerators unscaled when b's
  denominator divides a's; it never builds a negated copy of b;
- ``poly_equal`` of two equal sides compares them as dicts and builds
  no difference: the difference is built only for a witness.

The order of keys in ``terms`` is not part of the value, and these
paths insert them in different orders: every reader sorts them
(``coefficients()``, and with it repr), takes their ``max`` (the
degree, the ``poly_equal`` witness), or compares them as a dict (``==``)
or a frozenset (the hash).

Sums, products, powers and equality work on ints only.  Exponent tuples
and Fractions appear only at the edges: the constructor, which takes
{exponent tuple: rational}, ``coefficients()``, repr, the ``poly_equal``
witness and ``weighted_degree_profile``.  Reporting uses graded
lexicographic order, greatest first.
"""

from fractions import Fraction
from math import gcd, lcm

from .syntax import integers, rationals

FIELD_BITS = 16
# Largest total degree a polynomial may have; every exponent is at most
# its total degree, so no packed field can overflow.
MAX_DEGREE = (1 << FIELD_BITS) - 1
_MASK = MAX_DEGREE
# Budgets of one product.  The largest product of the bundled and
# benchmark polyid files (f15^2 times itself, on the way to f15^4) makes
# 83 x 83 term products with a coefficient bound of 59 bits.  At the
# limits one product takes about a second (Intel Xeon, Python 3.11).
MAX_TERM_PRODUCTS = 1 << 20
MAX_COEFF_BITS = 1 << 10


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise ValueError(
            f"degree {degree} exceeds the limit {MAX_DEGREE} "
            "of packed exponents"
        )


def _numerator_bits(poly):
    """The largest bit length of a numerator of poly."""
    return max(map(int.bit_length, poly.terms.values()), default=0)


def _pack(expo):
    key = sum(expo)
    for e in expo:
        key = key << FIELD_BITS | e
    return key


def _unpack(key, arity):
    expo = [0] * arity
    for i in range(arity - 1, -1, -1):
        expo[i] = key & _MASK
        key >>= FIELD_BITS
    return tuple(expo)


class SparsePoly:
    def __init__(self, arity, terms=None):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        coeffs = {}
        for expo, coeff in (terms or {}).items():
            coeff, = rationals((coeff,), "coefficients")
            expo = integers(expo, "exponents")
            if len(expo) != arity:
                raise ValueError(
                    f"exponent {expo} has length {len(expo)}, expected {arity}"
                )
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            _check_degree(sum(expo))
            coeffs[expo] = coeffs.get(expo, 0) + coeff
        den = lcm(1, *(c.denominator for c in coeffs.values()))
        self._set(arity, {
            _pack(expo): c.numerator * (den // c.denominator)
            for expo, c in coeffs.items() if c
        }, den)

    def _set(self, arity, terms, den):
        """Store terms / den in lowest terms; terms holds no zeros."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        self.arity = arity
        self.terms = terms
        self.den = den

    def _new(self, terms, den):
        poly = object.__new__(SparsePoly)
        poly._set(self.arity, terms, den)
        return poly

    @classmethod
    def constant(cls, arity, value):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if type(value) is not Fraction:  # a parsed literal is one
            value, = rationals((value,), "constants")
        poly = object.__new__(cls)  # key 0 is the zero exponent
        poly._set(arity, {0: value.numerator} if value else {},
                  value.denominator)
        return poly

    @classmethod
    def variable(cls, arity, index):
        if not isinstance(index, int) or not 0 <= index < arity:
            raise ValueError(f"variable index {index!r} is not in "
                             f"0..{arity - 1}")
        expo = [0] * arity
        expo[index] = 1
        return cls(arity, {tuple(expo): Fraction(1)})

    def _degree(self):
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(self.terms) >> (self.arity * FIELD_BITS)

    def coefficients(self):
        """The terms as {exponent tuple: Fraction}, graded-lex greatest
        first."""
        return {
            _unpack(key, self.arity): Fraction(self.terms[key], self.den)
            for key in sorted(self.terms, reverse=True)
        }

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ValueError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )

    def _sum(self, other, sign):
        """self + sign * other, for sign 1 or -1."""
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.arity, other)
        self._check_arity(other)
        g = gcd(self.den, other.den)
        s1, s2 = other.den // g, self.den // g * sign
        out = (self.terms.copy() if s1 == 1
               else {k: c * s1 for k, c in self.terms.items()})
        for k, c in other.terms.items():
            c = out.get(k, 0) + c * s2
            if c:
                out[k] = c
            else:
                del out[k]
        return self._new(out, self.den * s1)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return SparsePoly.constant(self.arity, other)._sum(self, -1)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.arity, other)
        self._check_arity(other)
        terms, right = self.terms, other.terms
        n, m = len(terms), len(right)
        if n == 1 == m:
            # two monomials: each degree from its key, as k1 + k2
            # carries when the first exponent field is full
            (k1, c1), = terms.items()
            (k2, c2), = right.items()
            shift = self.arity * FIELD_BITS
            _check_degree((k1 >> shift) + (k2 >> shift))
            bits = c1.bit_length() + c2.bit_length()
        else:
            _check_degree(self._degree() + other._degree())
            if n * m > MAX_TERM_PRODUCTS:
                raise ValueError(f"{n} x {m} term products exceed the "
                                 f"limit {MAX_TERM_PRODUCTS}")
            bits = _numerator_bits(self)
            bits += bits if other is self else _numerator_bits(other)
        bits += (n if n < m else m).bit_length()
        den_bits = self.den.bit_length() + other.den.bit_length()
        if bits > MAX_COEFF_BITS or den_bits > MAX_COEFF_BITS:
            raise ValueError(
                f"coefficients of up to {max(bits, den_bits)} bits exceed "
                f"the limit {MAX_COEFF_BITS}"
            )
        den = self.den * other.den
        if n == 1 == m:
            return self._new({k1 + k2: c1 * c2}, den)
        out = {}
        get = out.get
        if other is self:
            # each cross term once, doubled: n(n+1)/2 products
            items = list(terms.items())
            for i, (k1, c1) in enumerate(items):
                k = k1 + k1
                out[k] = get(k, 0) + c1 * c1
                c1 += c1
                for k2, c2 in items[i + 1:]:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        else:
            right = list(right.items())
            for k1, c1 in terms.items():
                for k2, c2 in right:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return self._new({k: c for k, c in out.items() if c}, den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
            return SparsePoly.constant(self.arity, 1)
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            _check_degree((key >> (self.arity * FIELD_BITS)) * k)
            # inside these bounds every product of the chain below is
            # inside both budgets, so its result is known in one step
            if (k > 1 and k * c.bit_length() < MAX_COEFF_BITS
                    and k * self.den.bit_length() <= MAX_COEFF_BITS):
                return self._new({k * key: c ** k}, self.den ** k)
        else:
            _check_degree(self._degree() * k)
        # square-and-multiply from the low bit; no squaring after the
        # last bit and no product with 1
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.arity == other.arity and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for expo, coeff in self.coefficients().items():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(expo)
                if e
            )
            bits.append(f"{coeff}*{mono}" if mono else str(coeff))
        return "SparsePoly(" + " + ".join(bits) + ")"


def poly_equal(lhs, rhs):
    """Compare two polynomials term by term.

    Returns None when they are equal, else the witness: the graded-lex
    greatest exponent tuple whose coefficients differ, i.e. the leading
    monomial of the difference.  The witness of two different constants
    is (), so test the result with ``is None``.
    """
    if lhs == rhs:
        return None
    diff = lhs - rhs
    return _unpack(max(diff.terms), diff.arity)


def weighted_degree_profile(poly, weights):
    """Set of distinct weighted degrees over the terms of poly."""
    weights = integers(weights, "weights")
    if len(weights) != poly.arity:
        raise ValueError(
            f"{len(weights)} weights for arity {poly.arity}"
        )
    return {
        sum(w * e for w, e in zip(weights, _unpack(key, poly.arity)))
        for key in poly.terms
    }
