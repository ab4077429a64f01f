"""Integer polynomials, cyclotomic factorization and exact rational functions.

The cyclotomic tester is cross-checked against the numerical oracles in
_oracles.py; the series expansion against its convolution oracle in
test_acceptance.py (check 11).
"""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duinv.errors import (NonNormalizableDenominator, NonRationalCollapse, ZeroDenominator,
                          ZeroPolynomial)
from duinv import intpoly
from duinv.intpoly import (IntPoly, CycFactorization, _cyclotomic_at_two,
                           cyclotomic_poly, cyclotomic_times, divisors, factorize,
                           is_cyclotomic_product, one_minus_t_pow, poly_gcd_q,
                           totient, totients_at_most, x_pow)
from duinv.paperlab import _family_one_numerator
from duinv.invariants import TraceForm
from duinv.ratfunc import RatFunc, _cancel, stanley_gorenstein_test
from duinv.cycnum import zeta

from _oracles import (cancel_by_gcd, cyclotomic_by_division,
                      cyclotomic_product_by_trial_division, stanley_by_products,
                      trace_to_ratfunc)


# ---------------------------------------------------------------------------
# IntPoly
# ---------------------------------------------------------------------------

def test_construction_trims():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly().is_zero()
    assert IntPoly((0,)).deg() == -1


@pytest.mark.parametrize("coeffs", [(Fraction(1, 2), 3), (1.9, 2), (Fraction(2, 1),), (2.0,)])
def test_construction_refuses_non_integer_coefficients(coeffs):
    # no truncation to 3t or 2t + 1; integral Fractions and floats are refused too
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        IntPoly(coeffs)


def test_arithmetic():
    p = IntPoly((1, 1))
    assert p * p == IntPoly((1, 2, 1))
    assert p ** 3 == IntPoly((1, 3, 3, 1))
    assert p - p == IntPoly()
    assert (2 * p)(3) == 8
    assert p.reverse() == p
    assert x_pow(4) * x_pow(2) == x_pow(6)


def test_divmod_exact():
    num = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # t^6 - 1
    quo, rem = num.divmod_exact(IntPoly((-1, 1)))
    assert rem.is_zero()
    assert quo == IntPoly((1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        IntPoly((1, 1)).divmod_exact(IntPoly((0, 2)))
    with pytest.raises(ZeroPolynomial):
        IntPoly((1,)).divmod_exact(IntPoly())


# ---------------------------------------------------------------------------
# the dense coefficient-list kernel
# ---------------------------------------------------------------------------

_coeff_lists = st.lists(st.integers(-50, 50), max_size=12)
_divisors = st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(lambda d: d[-1])


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _coeff_lists)
def test_kernel_product_is_the_double_sum(p, q):
    naive = [sum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q))
             for k in range(len(p) + len(q) - 1)] if p and q else []
    assert intpoly._mul(p, q) == naive


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _divisors)
def test_kernel_division_with_remainder(p, d):
    quo, rem = intpoly._divmod(p, d)
    assert len(rem) == len(d) - 1
    assert all(type(c) in (int, Fraction) for c in quo + rem)
    if d[-1] in (1, -1):
        assert all(type(c) is int for c in quo + rem)
    back = [x + y for x, y in itertools.zip_longest(intpoly._mul(quo, d), rem, fillvalue=0)]
    assert intpoly._trim(back) == intpoly._trim(list(p))


@settings(max_examples=150, deadline=None)
@given(_coeff_lists, _coeff_lists.filter(any))
def test_kernel_extended_euclid(a, b):
    g, s = intpoly._euclid(a, b)
    assert g[-1] == 1
    for x in (a, b):
        assert not any(intpoly._divmod(x, g)[1])
    bezout = [u - v for u, v in itertools.zip_longest(intpoly._mul(s, b), g, fillvalue=0)]
    a = intpoly._trim(list(a))
    assert not any(intpoly._divmod(bezout, a)[1] if a else bezout)


def test_number_theory():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert totient(1) == 1 and totient(12) == 4
    assert divisors(28) == [1, 2, 4, 7, 14, 28]


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    105: None,  # first index with a coefficient of magnitude 2
}


def test_cyclotomic_poly():
    for d, coeffs in KNOWN_CYCLOTOMICS.items():
        if coeffs is not None:
            assert cyclotomic_poly(d) == IntPoly(coeffs)
    assert min(cyclotomic_poly(105).coeffs) == -2
    # prod over divisors of n of Phi_d = t^n - 1, and Phi_n(2) in integers
    for n in range(1, 301):
        prod = IntPoly((1,))
        for d in divisors(n):
            prod = prod * cyclotomic_poly(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,)), n
        assert _cyclotomic_at_two(n) == cyclotomic_poly(n)(2), n


def test_is_cyclotomic_product_basics():
    fact = is_cyclotomic_product(one_minus_t_pow(6))
    assert fact is not None and fact.unit == -1
    assert sorted(fact.factors) == [(1, 1), (2, 1), (3, 1), (6, 1)]
    assert fact.expand() == one_minus_t_pow(6)
    assert is_cyclotomic_product(IntPoly((1, 1, 1, 0, 1))) is None
    assert is_cyclotomic_product(IntPoly((2, 1))) is None
    with pytest.raises(ZeroPolynomial):
        is_cyclotomic_product(IntPoly())


def test_totients_at_most_matches_brute_force():
    # phi(d) >= sqrt(d / 2), so every d with phi(d) <= n is below 2 n^2 + 3
    for n in range(61):
        assert totients_at_most(n) == tuple(
            d for d in range(1, 2 * n * n + 3) if totient(d) <= n)
    assert len(totients_at_most(404)) == 790


def test_cyclotomic_test_reads_few_factorizations():
    # Only the 790 indices d with phi(d) <= 404 can divide the degree-404
    # family-one numerator; a scan of every d <= 2 deg^2 + 2 would leave
    # 326 434 factorize entries.
    factorize.cache_clear()
    assert is_cyclotomic_product(_family_one_numerator(200)) is None
    assert factorize.cache_info().currsize < 2000


def test_number_theory_caches_stay_bounded():
    assert is_cyclotomic_product(_family_one_numerator(200)) is None
    caches = (factorize, totient, totients_at_most, intpoly._binomial_form,
              _cyclotomic_at_two, cyclotomic_poly)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cache
    # one Phi_d(2) per d with phi(d) <= 404
    assert _cyclotomic_at_two.cache_info().currsize >= 790


# Indices with one prime (d = 1 has none, and divides by -(1 - t)), prime
# powers, and three or four distinct primes.
KERNEL_INDICES = [1, 2, 3, 4, 8, 9, 25, 27, 32, 49, 30, 105, 210, 330, 390]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(KERNEL_INDICES), st.integers(1, 400)),
       st.lists(st.integers(-5, 5), max_size=24),
       st.lists(st.integers(-2, 2), max_size=8), st.booleans())
def test_cyclotomic_times_matches_divmod_exact(d, quo, rem, random_input):
    phi_d = cyclotomic_poly(d)
    assert phi_d == cyclotomic_by_division(d)
    quo = IntPoly(quo)
    assert IntPoly(cyclotomic_times(list(quo.coeffs), d, 1) or []) == phi_d * quo
    # a multiple of Phi_d plus a remainder of lower degree, or any polynomial
    p = IntPoly(quo.coeffs + tuple(rem)) if random_input else \
        phi_d * quo + IntPoly(rem[:phi_d.deg()])
    expected, left = p.divmod_exact(phi_d)
    got = cyclotomic_times(list(p.coeffs), d, -1)
    if left.is_zero():
        assert got is not None and IntPoly(got) == expected
        assert len(got) == len(expected.coeffs)  # no trailing zeros
    else:
        assert got is None


@st.composite
def cyclotomic_products(draw, max_index=300, max_degree=500):
    """(sign, [(d, multiplicity), ...]) for +-prod Phi_d^multiplicity."""
    factors, degree = [], 0
    for d in draw(st.lists(st.integers(1, max_index), min_size=1, max_size=5)):
        mult = draw(st.integers(1, 3))
        if degree + totient(d) * mult <= max_degree:
            factors.append((d, mult))
            degree += totient(d) * mult
    return draw(st.sampled_from((1, -1))), factors


def _expand(sign, factors):
    p = IntPoly((sign,))
    for d, mult in factors:
        p = p * cyclotomic_by_division(d) ** mult
    return p


@settings(max_examples=60, deadline=None)
@given(cyclotomic_products(), st.integers(0, 10 ** 6), st.sampled_from((0, 1, -1)))
def test_is_cyclotomic_product_matches_trial_division(product, where, moved):
    p = _expand(*product)
    if moved:
        coeffs = list(p.coeffs)
        coeffs[where % len(coeffs)] += moved
        p = IntPoly(coeffs)
    if p.is_zero():
        return
    got = is_cyclotomic_product(p)
    expected = cyclotomic_product_by_trial_division(p)
    assert (got.factors, got.unit) == expected if got is not None else expected is None
    if not moved:
        assert got is not None and got.expand() == p


@settings(max_examples=60, deadline=None)
@given(cyclotomic_products(max_index=60, max_degree=80),
       st.lists(st.tuples(st.integers(1, 60), st.integers(1, 3)), max_size=3),
       st.lists(st.integers(-3, 3), min_size=1, max_size=6))
def test_cancel_matches_gcd_path(den, shared, rest):
    den = _expand(*den)
    num = _expand(1, shared) * IntPoly(rest)
    if num.is_zero():
        return
    assert _cancel(num, den) == cancel_by_gcd(num, den)


def test_cyclotomic_tester_against_graeffe_oracle_above_degree_400():
    from _oracles import graeffe_is_cyclotomic, run_high_degree_cyclotomic_suite
    run_high_degree_cyclotomic_suite()
    assert graeffe_is_cyclotomic(one_minus_t_pow(6))
    assert graeffe_is_cyclotomic(cyclotomic_poly(105) ** 2)
    assert not graeffe_is_cyclotomic(IntPoly((1, 1, 1, 0, 1)))
    assert not graeffe_is_cyclotomic(IntPoly((2, 1)))


def test_cyclotomic_tester_against_root_oracle():
    from _oracles import oracle_is_cyclotomic, run_cyclotomic_oracle_suite
    run_cyclotomic_oracle_suite(cases=400)
    # the oracle itself discriminates on easy hand-picked inputs
    assert oracle_is_cyclotomic(one_minus_t_pow(6))
    assert not oracle_is_cyclotomic(IntPoly((1, 1, 1, 0, 1)))


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

def test_canonical_form():
    f = RatFunc.make(IntPoly((2, 2)), IntPoly((2, 0, -2)))  # 2(1+t)/2(1-t^2)
    assert f == RatFunc.make(IntPoly((1,)), IntPoly((1, -1)))
    assert f.den[0] == 1
    with pytest.raises(ZeroDenominator):
        RatFunc.make(IntPoly((1,)), IntPoly())


def test_class_call_reduces_to_canonical_form():
    """RatFunc(num, den) is the one constructor: make is the same call."""
    one, t = IntPoly((1,)), IntPoly((0, 1))
    assert RatFunc(IntPoly((2,)), IntPoly((2,))) == RatFunc.make(one, one)
    with pytest.raises(NonNormalizableDenominator):
        RatFunc(one, IntPoly((2,)))  # 1/2 has no den(0) = 1 form
    p = one + t * 2
    f = RatFunc(p, p * (one - t))
    assert f == RatFunc(one, one - t)
    assert stanley_gorenstein_test(f) == (-1, 1)


def test_arithmetic_and_scale():
    def const(c):
        return RatFunc.make(IntPoly((c,)), IntPoly((1,)))
    assert const(2) + const(3) == const(5)
    geo = RatFunc.make(IntPoly((1,)), IntPoly((1, -1)))
    assert geo + geo.scale(-1) == RatFunc.make(IntPoly(), IntPoly((1,)))
    doubled = RatFunc.make(IntPoly((2, 2)), IntPoly((1, -1)))
    assert doubled.scale(Fraction(1, 2)) == RatFunc.make(IntPoly((1, 1)), IntPoly((1, -1)))
    # series with a non-integer coefficient cannot take the canonical
    # integer form with unit constant denominator
    from duinv.errors import NonNormalizableDenominator
    with pytest.raises(NonNormalizableDenominator):
        geo.scale(Fraction(3, 2))


def test_foreign_operands_raise_type_error():
    geo = RatFunc.make(IntPoly((1,)), IntPoly((1, -1)))
    with pytest.raises(TypeError):
        IntPoly((1,)) + 1
    with pytest.raises(TypeError):
        IntPoly((1,)) - 1
    with pytest.raises(TypeError):
        IntPoly((1,)) * Fraction(1, 2)
    with pytest.raises(TypeError):
        geo + 1
    assert IntPoly((1, 1)) * 3 == 3 * IntPoly((1, 1)) == IntPoly((3, 3))


def test_degree_arguments_are_checked():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            one_minus_t_pow(bad)
    with pytest.raises(ValueError):
        x_pow(-1)
    assert one_minus_t_pow(1) == IntPoly((1, -1)) and x_pow(0) == IntPoly((1,))


def test_stanley_gorenstein():
    # 1/(1-t)^2 satisfies f(1/t) = t^2 f(t)
    f = RatFunc.make(IntPoly((1,)), one_minus_t_pow(1) ** 2)
    assert stanley_gorenstein_test(f) == (1, 2)
    # (1+2t)/(1-t) does not
    assert stanley_gorenstein_test(RatFunc.make(IntPoly((1, 2)), IntPoly((1, -1)))) is None
    # odd symmetry: (1+t^2)/(1-t)^3 satisfies f(1/t) = -t f(t)
    h = RatFunc.make(IntPoly((1, 0, 1)), one_minus_t_pow(1) ** 3)
    assert stanley_gorenstein_test(h) == (-1, 1)


def _symmetric(half, sign):
    """A palindrome (sign 1) or antipalindrome (sign -1) from its low half."""
    return IntPoly(list(half) + [sign * c for c in reversed(half)])


_cyclotomic_den = st.lists(st.tuples(st.booleans(), st.integers(1, 12)),
                           min_size=1, max_size=4).map(
    lambda fs: math.prod((cyclotomic_poly(d) if cyc else one_minus_t_pow(d)
                          for cyc, d in fs), start=IntPoly((1,))))
_random_den = st.lists(st.integers(-3, 3), max_size=5).map(lambda cs: IntPoly([1] + cs))
_numerator = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=7).map(IntPoly),
    st.builds(_symmetric, st.lists(st.integers(-4, 4), min_size=1, max_size=4),
              st.sampled_from([1, -1])))


@settings(max_examples=300, deadline=None)
@given(_numerator, st.one_of(_cyclotomic_den, _random_den))
def test_stanley_palindromes_match_products(num, den):
    # Canonical rational functions, through make, with cyclotomic and
    # arbitrary denominators: the palindrome test gives the answer of the
    # product form, (+1, l), (-1, l) or None.
    assume(not num.is_zero())
    f = RatFunc.make(num, den)
    assert stanley_gorenstein_test(f) == stanley_by_products(f)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=4))
def test_make_is_idempotent(nc, dc):
    num = IntPoly(nc)
    den = IntPoly([1] + dc)
    f = RatFunc.make(num, den)
    again = RatFunc.make(f.num, f.den)
    assert f == again


def test_cycpoly_expand():
    """The trace-series oracle expands products of 1 - lam t^d exactly."""
    p = TraceForm((), ((1, zeta(4)), (1, zeta(4, 3))))  # (1 - it)(1 + it)
    assert trace_to_ratfunc(p) == RatFunc.make(IntPoly((1, 0, 1)), IntPoly((1,)))
    q = TraceForm(((2, zeta(3)),))
    with pytest.raises(NonRationalCollapse,
                       match=r"^coefficient of t\^2 is irrational: CycNum\(3, \['0', '-1'\]\)$"):
        trace_to_ratfunc(q)
