from fractions import Fraction
from math import gcd
import random

from hypothesis import given, settings, strategies as st
import pytest

from lctforge.polyid import parse_polyid
from lctforge.sparsepoly import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_TERM_PRODUCTS,
    SparsePoly,
    poly_equal,
    weighted_degree_profile,
)
from lctforge.syntax import ParseError


def xyz():
    x = SparsePoly.variable(3, 0)
    y = SparsePoly.variable(3, 1)
    z = SparsePoly.variable(3, 2)
    return x, y, z


def test_zero_coefficients_dropped():
    p = SparsePoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.coefficients() == {(0, 1): Fraction(2)}
    assert p.terms
    assert not SparsePoly(2).terms


def test_addition_cancels_to_zero():
    p = SparsePoly(1, {(1,): 2})
    q = p + SparsePoly(1, {(1,): -2})
    assert not q.terms


def test_arithmetic():
    x, y, _ = xyz()
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert (x + 1) * (x + 1) == x ** 2 + 2 * x + 1
    assert 3 * x == x * 3
    assert (2 - x) + (x - 2) == SparsePoly(3)


def test_pow_square_and_multiply():
    x, y, _ = xyz()
    p = x + 2 * y
    assert p ** 0 == SparsePoly.constant(3, 1)
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


@pytest.mark.parametrize("k,products", [(0, 0), (1, 0), (2, 1), (3, 2),
                                        (4, 2), (5, 3), (8, 3)])
def test_pow_makes_no_wasted_products(k, products, monkeypatch):
    x, y, _ = xyz()
    p = x + 2 * y
    calls = []
    mul = SparsePoly.__mul__

    def counting(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(SparsePoly, "__mul__", counting)
    result = p ** k
    monkeypatch.undo()
    assert len(calls) == products
    expected = SparsePoly.constant(3, 1)
    for _ in range(k):
        expected = expected * p
    assert result == expected


def test_monomial_powers_make_no_products_and_squares_one(monkeypatch):
    x, y, _ = xyz()
    mono, binomial = 3 * x * y, x + y
    calls = []
    mul = SparsePoly.__mul__

    def counting(a, b):  # wrapped at the class, as in verdictbench's tracer
        calls.append(a is b)
        return mul(a, b)

    monkeypatch.setattr(SparsePoly, "__mul__", counting)
    assert x ** 10 == SparsePoly(3, {(10, 0, 0): 1})
    assert mono ** 5 == SparsePoly(3, {(5, 5, 0): 243})
    assert calls == []
    fourth = binomial ** 4
    assert calls == [True, True]
    monkeypatch.undo()
    assert fourth.coefficients() == {
        (4 - i, i, 0): Fraction(c) for i, c in enumerate((1, 4, 6, 4, 1))}


def test_budgets_are_checked_before_the_product(monkeypatch):
    x, y, _ = xyz()
    wide = sum((x ** k for k in range(1025)), SparsePoly(3))
    assert 1025 * 1025 > MAX_TERM_PRODUCTS >= 1024 * 1024
    big = SparsePoly.constant(3, 1 << (MAX_COEFF_BITS // 2))
    made = []
    monkeypatch.setattr(SparsePoly, "_new",
                        lambda self, *a: made.append(a) or self)
    with pytest.raises(ValueError, match="1025 x 1025 term products"):
        wide * wide
    with pytest.raises(ValueError, match=f"limit {MAX_COEFF_BITS}$"):
        big * big
    assert made == []  # nothing was multiplied out
    monkeypatch.undo()
    with pytest.raises(ValueError, match="bits exceed the limit"):
        (y + 1) ** (MAX_COEFF_BITS + 1)
    half = SparsePoly.constant(3, 1 << (MAX_COEFF_BITS // 2 - 2))
    assert (half * half).coefficients() == {
        (0, 0, 0): Fraction(1 << (MAX_COEFF_BITS - 4))}


@pytest.mark.parametrize("index", [-1, -3, 3, 1.0, "1", None])
def test_variable_refuses_an_index_outside_its_arity(index):
    """Only an int in 0..arity-1 names a variable, and anything else is
    a ValueError, which callers report as bad input; a negative index
    must not count from the end."""
    with pytest.raises(ValueError) as exc:
        SparsePoly.variable(3, index)
    assert str(exc.value) == f"variable index {index!r} is not in 0..2"


def test_scalar_fractions():
    x, _, _ = xyz()
    p = Fraction(1, 2) * x + Fraction(1, 3)
    assert p.coefficients()[(1, 0, 0)] == Fraction(1, 2)
    assert p.coefficients()[(0, 0, 0)] == Fraction(1, 3)


def test_arity_mismatch():
    with pytest.raises(ValueError) as exc:
        SparsePoly.variable(2, 0) + SparsePoly.variable(3, 0)
    assert str(exc.value) == "arity mismatch: 2 vs 3"
    # poly_equal has no check of its own: lhs - rhs raises this text
    with pytest.raises(ValueError) as exc:
        poly_equal(SparsePoly(2), SparsePoly(3))
    assert str(exc.value) == "arity mismatch: 2 vs 3"


def test_bad_exponents():
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SparsePoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        SparsePoly(0)


def test_canonical_form():
    x, y, _ = xyz()
    half = Fraction(1, 2)
    p = (half * x + half * y) + (half * x - half * y)
    assert p == x
    assert p.den == 1 and p.terms == x.terms
    q = Fraction(2, 3) * x + Fraction(4, 9) * y
    assert q.den == 9
    assert sorted(q.terms.values()) == [4, 6]
    assert (q - q).den == 1 and not (q - q).terms
    assert 0 * q == SparsePoly(3)
    assert Fraction(-3, 2) * q == -(Fraction(3, 2) * q)


def test_coefficients_graded_lex_order():
    x, y, z = xyz()
    p = z ** 3 + x * y + Fraction(1, 5) * x ** 2 + 7
    assert list(p.coefficients().items()) == [
        ((0, 0, 3), Fraction(1)),
        ((2, 0, 0), Fraction(1, 5)),
        ((1, 1, 0), Fraction(1)),
        ((0, 0, 0), Fraction(7)),
    ]


def test_degree_limit_is_exact():
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    # the largest allowed exponent fills its field without carrying
    top = x ** MAX_DEGREE
    assert top.coefficients() == {(MAX_DEGREE, 0): Fraction(1)}
    assert (x ** (MAX_DEGREE - 1) * y).coefficients() == {
        (MAX_DEGREE - 1, 1): Fraction(1)
    }
    assert SparsePoly(2, {(0, MAX_DEGREE): 3}).coefficients() == {
        (0, MAX_DEGREE): Fraction(3)
    }


@pytest.mark.parametrize("make", [
    lambda x, y: x ** (MAX_DEGREE + 1),
    lambda x, y: x ** 4294967296,
    lambda x, y: (x * y) ** (MAX_DEGREE // 2 + 1),
    lambda x, y: x ** MAX_DEGREE * y,
    lambda x, y: (x ** 40000 + 1) * (y ** 40000 + x),
    lambda x, y: SparsePoly(2, {(MAX_DEGREE, 1): 1}),
    lambda x, y: SparsePoly(2, {(4294967296, 0): 1}),
])
def test_degree_past_the_limit_raises(make):
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        make(x, y)


def test_pow_checks_the_degree_before_any_product(monkeypatch):
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    p = x * y + 1

    def no_products(a, b):
        raise AssertionError("product computed before the degree check")

    monkeypatch.setattr(SparsePoly, "__mul__", no_products)
    with pytest.raises(ValueError, match="exceeds the limit"):
        p ** (MAX_DEGREE // 2 + 1)


def test_poly_equal_witness_is_leading_difference():
    x, y, _ = xyz()
    lhs = x ** 3 + y
    rhs = x ** 3 + x * y + y
    assert poly_equal(lhs, rhs) == (1, 1, 0)
    assert poly_equal(lhs, lhs) is None


def test_poly_equal_graded_before_lex():
    # difference has terms x*y^2 (degree 3) and x^2 (degree 2); graded
    # lex puts the degree-3 term first even though x^2 wins plain lex
    x, y, _ = xyz()
    assert poly_equal(x * y ** 2 + x ** 2, SparsePoly(3)) == (1, 2, 0)


def test_weighted_degree_profile():
    x, y, z = xyz()
    p = x ** 6 * y + y ** 2 * z  # weights (11,21,29): 87 and 71
    assert weighted_degree_profile(p, (11, 21, 29)) == {87, 71}
    q = x ** 2 + y  # quasihomogeneous for weights (1, 2, 5)
    assert weighted_degree_profile(q, (1, 2, 5)) == {2}
    with pytest.raises(ValueError):
        weighted_degree_profile(p, (1, 2))


def test_hash_consistent_with_eq():
    x, y, _ = xyz()
    assert hash(x + y) == hash(y + x)
    assert len({x + y, y + x, x - y}) == 2


def test_repr_mentions_terms():
    x, _, _ = xyz()
    assert repr(SparsePoly(3)) == "SparsePoly(0)"
    assert "x0^2" in repr(x ** 2)


# ------------------------------------------- differential test (sympy)


def _random_poly(rng, arity):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        expo = tuple(rng.randint(0, 4) for _ in range(arity))
        terms[expo] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return SparsePoly(arity, terms)


def _family(seed=20091005, count=80):
    """Pairs (p, q) of arity 1-4 with rational coefficients; a third of
    the q's cancel part or all of p, so sums, differences and products
    lose terms and content."""
    rng = random.Random(seed)
    for n in range(count):
        arity = n % 4 + 1
        p = _random_poly(rng, arity)
        q = _random_poly(rng, arity)
        kind = n % 3
        if kind == 1:
            q = q - p  # p + q == q's own terms only
        elif kind == 2:
            q = Fraction(rng.randint(1, 4), rng.randint(1, 4)) * p
        yield p, q


def _to_sympy(poly, sympy, gens):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in poly.coefficients().items()},
        *gens, domain="QQ",
    )


def _from_sympy(poly):
    return {tuple(e): Fraction(int(c.p), int(c.q))
            for e, c in poly.as_dict().items()}


def _assert_canonical(poly):
    assert poly.den > 0
    assert all(c != 0 for c in poly.terms.values())
    assert gcd(poly.den, *poly.terms.values()) == 1


def test_differential_against_sympy():
    sympy = pytest.importorskip("sympy")
    for p, q in _family():
        n = p.arity
        gens = sympy.symbols(f"x0:{n}")
        sp, sq = _to_sympy(p, sympy, gens), _to_sympy(q, sympy, gens)
        c = Fraction(-7, 3)
        cases = [
            (p + q, sp + sq),
            (p - q, sp - sq),
            (c * p, sp * sympy.Rational(-7, 3)),
            (q * 5, sq * 5),
            (p * q, sp * sq),
            (q ** 3, sq ** 3),
            (p ** 2, sp ** 2),
        ]
        for ours, theirs in cases:
            _assert_canonical(ours)
            assert ours.coefficients() == _from_sympy(theirs)
        same = sp == sq
        assert (p == q) == same
        if same:
            assert hash(p) == hash(q)
        rebuilt = SparsePoly(n, dict((p * q).coefficients()))
        assert rebuilt == p * q and hash(rebuilt) == hash(p * q)
        # the witness is the graded-lex leading monomial of p - q
        res = poly_equal(p, q)
        if same:
            assert res is None
        else:
            assert res == (sp - sq).monoms(order="grlex")[0]


# ------------------------- property test against a plain convolution


def _convolve(p, q):
    """p * q over {exponent tuple: Fraction} dicts, zeros dropped."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _plain_sum(p, q, sign=1):
    """p + sign * q over {exponent tuple: Fraction} dicts, zeros
    dropped."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _plain_witness(p, q):
    """The graded-lex leading exponent of p - q, or None if it is 0."""
    diff = _plain_sum(p, q, -1)
    return max(diff, key=lambda e: (sum(e), e)) if diff else None


@st.composite
def _operands(draw):
    """An arity of 1-3, two polynomials (possibly zero or a constant)
    and two one-term polynomials (possibly constants), as plain dicts.
    The second polynomial's denominators hold a factor 7 that the
    first's never hold, so their common denominator differs."""
    arity = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 4)] * arity)
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    const = st.builds(lambda c: {(0,) * arity: c}, coeff)
    poly = st.one_of(st.dictionaries(expo, coeff, max_size=6), const)
    mono = st.builds(lambda e, c: {e: c}, expo, coeff.filter(bool))
    p, m, q, m2 = draw(poly), draw(mono), draw(poly), draw(mono)
    return arity, p, m, {e: c / 7 for e, c in q.items()}, m2


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_operands(), st.integers(0, 12))
def test_shortcuts_match_a_plain_convolution(case, k):
    arity, p, m, q, m2 = case
    poly, mono, other, mono2 = (SparsePoly(arity, t) for t in (p, m, q, m2))
    one = {(0,) * arity: Fraction(1)}
    power = one
    for _ in range(k):
        power = _convolve(power, m)
    for ours, expected in [(mono * poly, _convolve(m, p)),
                           (poly * mono, _convolve(p, m)),
                           (poly * poly, _convolve(p, p)),
                           (mono * mono2, _convolve(m, m2)),
                           (mono ** k, power),
                           (poly + mono, _plain_sum(p, m)),
                           (poly - mono, _plain_sum(p, m, -1)),
                           (mono - poly, _plain_sum(m, p, -1)),
                           (poly - other, _plain_sum(p, q, -1)),
                           (1 - poly, _plain_sum(one, p, -1))]:
        assert ours.coefficients() == expected
        _assert_canonical(ours)
        rebuilt = SparsePoly(arity, expected)
        assert rebuilt == ours and hash(rebuilt) == hash(ours)
    for lhs, rhs in [(p, p), (p, q), (m, m2), (m, p), (q, m)]:
        assert poly_equal(SparsePoly(arity, lhs), SparsePoly(arity, rhs)) \
            == _plain_witness(lhs, rhs)
    assert poly_equal(poly, poly) is None


def test_monomial_product_budget_edges(monkeypatch):
    """Two monomials meet the budgets, and word a refusal, exactly as
    two longer operands would."""
    x = SparsePoly.variable(2, 0)
    top = x ** MAX_DEGREE  # its degree field is full: 65535 + 1 carries
    with pytest.raises(ValueError) as exc:
        top * x
    assert str(exc.value) == ("degree 65536 exceeds the limit 65535 "
                              "of packed exponents")
    with pytest.raises(ParseError) as exc:
        parse_polyid("vars x y\ncheck x^65535*x == x\n")
    assert (exc.value.line, exc.value.column) == (2, 14)
    assert str(exc.value).endswith("degree 65536 exceeds the limit 65535 "
                                   "of packed exponents")
    # numerator bits add, plus one for the sum of min(1, 1) products
    assert MAX_COEFF_BITS == 1024
    a, b = 1 << 511, 1 << 510  # 512 and 511 bits
    assert ((a * x) * (b * x)).coefficients() == {(2, 0): Fraction(a * b)}
    inverse = SparsePoly.constant(2, Fraction(1, a))  # a 512-bit den
    assert (inverse * inverse).den == a * a
    pairs = [(a * x, a * x),
             (inverse, SparsePoly.constant(2, Fraction(1, 2 * a)))]
    made = []
    monkeypatch.setattr(SparsePoly, "_new",
                        lambda self, *args: made.append(args) or self)
    for left, right in pairs:
        with pytest.raises(ValueError) as exc:
            left * right
        assert str(exc.value) == ("coefficients of up to 1025 bits exceed "
                                  "the limit 1024")
    assert made == []
