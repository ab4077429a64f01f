"""Integer polynomials, cyclotomic factorization and exact rational functions.

The cyclotomic tester is cross-checked against the numerical oracles in
_oracles.py; the series expansion against its convolution oracle in
test_acceptance.py (check 11).
"""
import collections
import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duinv.errors import (NonNormalizableDenominator, NonRationalCollapse, ZeroFunction,
                          ZeroPolynomial)
from duinv import intpoly
from duinv.intpoly import (IntPoly, CycFactorization, _cyclotomic_at_two,
                           cyclotomic_poly, cyclotomic_times, divisors, factorize,
                           is_cyclotomic_product, one_minus_t_pow, one_minus_t_pows,
                           poly_gcd_q, totient, totients_at_most, x_pow)
from duinv.paperlab import _family_one_numerator
from duinv.ratfunc import RatFunc, stanley_gorenstein_test
from duinv.cycnum import zeta

from _oracles import (TraceForm, cancel_by_gcd, cyclotomic_by_division,
                      cyclotomic_product_by_trial_division, ratfunc_by_trial_division,
                      stanley_by_products, trace_to_ratfunc)


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
    f = ratfunc_by_trial_division(num, den)
    num, den = cancel_by_gcd(num, den)
    sign = den[0]  # +-1: den is +-(a product of cyclotomics), and so is den / gcd
    assert (f.num, f.den) == (num * sign, den * sign)


def test_candidate_table_is_bounded_and_order_free(monkeypatch):
    # With the table capped at 20 rows (every d with phi(d) <= 11), degrees
    # past the cap are decided on rows built for the one call, and any
    # arrival order of degrees leaves the same answers and the same table.
    monkeypatch.setattr(intpoly, "_FACTORIZE_CACHE_SIZE", 20)
    polys = [_expand(1, [(d, 1)]) for d in (1, 5, 7, 11, 25, 31, 33)]
    polys += [p + x_pow(1) for p in polys[2:]]  # not cyclotomic
    polys += [_expand(-1, [(3, 2), (13, 1)]) + IntPoly((0, 1)), _family_one_numerator(9)]
    expected = [cyclotomic_product_by_trial_division(p) for p in polys]
    tables = set()
    for order in (sorted(polys, key=IntPoly.deg), sorted(polys, key=IntPoly.deg, reverse=True),
                  polys[1::2] + polys[::2]):
        monkeypatch.setattr(intpoly, "_cyc_table", (0, []))
        got = {p: is_cyclotomic_product(p) for p in order}
        assert [(got[p].factors, got[p].unit) if got[p] else None for p in polys] == expected
        assert len(intpoly._cyc_table[1]) <= 20
        tables.add((intpoly._cyc_table[0], tuple(intpoly._cyc_table[1])))
    assert expected[4] is not None and polys[4].deg() == 20  # Phi_25, past the cap
    ((deg, table),) = tables
    assert [d for _, d, _ in sorted(table, key=lambda row: row[1])] == list(totients_at_most(deg))
    assert all(pval == cyclotomic_poly(d)(2) and phi == totient(d) for phi, d, pval in table)


def _by_gcd(num: IntPoly, den: IntPoly):
    """The canonical (num, den) of num / den by the gcd oracle, or None when
    no integral pair with den(0) = 1 represents it."""
    num, den = cancel_by_gcd(num, den)
    c = math.gcd(num.content(), den.content())
    num, den = IntPoly(x // c for x in num.coeffs), IntPoly(x // c for x in den.coeffs)
    return (num * den[0], den * den[0]) if den[0] in (1, -1) else None


def _general(num: IntPoly, den: IntPoly):
    """num / den reduced from the expanded den, None where it is refused."""
    try:
        return ratfunc_by_trial_division(num, den)
    except NonNormalizableDenominator:
        return None


_factored_den = st.builds(
    CycFactorization,
    st.lists(st.tuples(st.integers(1, 30), st.integers(0, 3)), max_size=4).map(tuple),
    st.sampled_from((1, -1)))
_shared_numerator = st.builds(
    lambda shared, rest: _expand(1, shared) * IntPoly(rest),
    st.lists(st.tuples(st.integers(1, 30), st.integers(1, 2)), max_size=2),
    st.lists(st.integers(-3, 3), min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(_shared_numerator, _factored_den, _shared_numerator, _factored_den,
       st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_factored_denominators_match_the_general_reduction(num, fact, num2, fact2, q):
    # num / fact, built on the factored denominator, on the expanded one
    # factored by trial division, and by the gcd oracle; then + and scale
    # on factored forms against the general reduction of their fraction
    # arithmetic.  Zero numerators (rest all 0) and non-integral scales
    # that no canonical form holds are among the draws.
    f, g = RatFunc(num, fact), RatFunc(num2, fact2)
    for h, (n, d) in ((f, (num, fact.expand())), (g, (num2, fact2.expand()))):
        assert h == ratfunc_by_trial_division(n, d) and (h.num, h.den) == _by_gcd(n, d)
        assert h._factors.expand() == h.den
    total = f + g
    n, d = f.num * g.den + g.num * f.den, f.den * g.den
    assert total == ratfunc_by_trial_division(n, d) and (total.num, total.den) == _by_gcd(n, d)
    n, d = f.num * q.numerator, f.den * q.denominator
    expected = _general(n, d)
    assert (expected is None) == (_by_gcd(n, d) is None)
    if expected is None:
        with pytest.raises(NonNormalizableDenominator):
            f.scale(q)
    else:
        assert f.scale(q) == expected and (expected.num, expected.den) == _by_gcd(n, d)


def test_factored_zero_and_refused_scale():
    zero = RatFunc(IntPoly(), one_minus_t_pows(3, 4))
    assert (zero.num, zero.den) == (IntPoly(), IntPoly((1,)))
    assert zero.scale(Fraction(1, 2)) == zero == RatFunc(IntPoly(), one_minus_t_pows(1))
    geo = RatFunc(IntPoly((3,)), one_minus_t_pows(2))
    assert geo.scale(Fraction(1, 3)) == RatFunc(IntPoly((1,)), one_minus_t_pows(2))
    with pytest.raises(NonNormalizableDenominator, match="non-integer coefficient"):
        geo.scale(Fraction(1, 2))


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
    f = RatFunc.make(IntPoly((1, 1)), one_minus_t_pows(2))  # (1+t)/(1-t^2)
    assert f == RatFunc.make(IntPoly((1,)), one_minus_t_pows(1))
    assert f.den == IntPoly((1, -1)) and f._factors == CycFactorization(((1, 1),), -1)
    with pytest.raises(TypeError, match="CycFactorization"):  # the one denominator form
        RatFunc(IntPoly((1,)), IntPoly((1, -1)))


def test_class_call_reduces_to_canonical_form():
    """RatFunc(num, den) is the one constructor: make is the same call."""
    one, t = IntPoly((1,)), IntPoly((0, 1))
    p = one + t + t * t  # Phi_3
    f = RatFunc(p, one_minus_t_pows(1, phis=(3,)))
    assert f == RatFunc.make(one, one_minus_t_pows(1))
    assert f == RatFunc(-one, CycFactorization(((1, 1),), 1))  # -1/(t - 1)
    assert stanley_gorenstein_test(f) == (-1, 1)


def test_arithmetic_and_scale():
    def const(c):
        return RatFunc.make(IntPoly((c,)), CycFactorization((), 1))
    assert const(2) + const(3) == const(5)
    geo = RatFunc.make(IntPoly((1,)), one_minus_t_pows(1))
    assert geo + geo.scale(-1) == RatFunc.make(IntPoly(), CycFactorization((), 1))
    doubled = RatFunc.make(IntPoly((2, 2)), one_minus_t_pows(1))
    assert doubled.scale(Fraction(1, 2)) == RatFunc.make(IntPoly((1, 1)), one_minus_t_pows(1))
    # series with a non-integer coefficient cannot take the canonical
    # integer form with unit constant denominator
    from duinv.errors import NonNormalizableDenominator
    with pytest.raises(NonNormalizableDenominator):
        geo.scale(Fraction(3, 2))


def test_foreign_operands_raise_type_error():
    geo = RatFunc.make(IntPoly((1,)), one_minus_t_pows(1))
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
    f = RatFunc.make(IntPoly((1,)), one_minus_t_pows(1, 1))
    assert stanley_gorenstein_test(f) == (1, 2)
    # (1+2t)/(1-t) does not
    assert stanley_gorenstein_test(RatFunc.make(IntPoly((1, 2)), one_minus_t_pows(1))) is None
    # odd symmetry: (1+t^2)/(1-t)^3 satisfies f(1/t) = -t f(t)
    h = RatFunc.make(IntPoly((1, 0, 1)), one_minus_t_pows(1, 1, 1))
    assert stanley_gorenstein_test(h) == (-1, 1)
    with pytest.raises(ZeroFunction):
        stanley_gorenstein_test(RatFunc(IntPoly(), CycFactorization((), 1)))


def _symmetric(half, sign):
    """A palindrome (sign 1) or antipalindrome (sign -1) from its low half."""
    return IntPoly(list(half) + [sign * c for c in reversed(half)])


@st.composite
def _cyclotomic_den(draw):
    """+-Phi_1^m1 times up to four Phi_d and 1 - t^d with d <= 12, m1 in 0..4."""
    mults = collections.Counter({1: draw(st.integers(0, 4))})
    for cyc, d in draw(st.lists(st.tuples(st.booleans(), st.integers(2, 12)), max_size=4)):
        mults.update([d] if cyc else divisors(d))
    return CycFactorization(tuple(sorted((+mults).items())), draw(st.sampled_from((1, -1))))


_numerator = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=7).map(IntPoly),
    st.builds(_symmetric, st.lists(st.integers(-4, 4), min_size=1, max_size=4),
              st.sampled_from([1, -1])))


@settings(max_examples=300, deadline=None)
@given(_numerator, _cyclotomic_den())
def test_stanley_palindromes_match_products(num, den):
    # Canonical rational functions, through make, with factored denominators
    # that hold Phi_1 0 to 4 times: the palindrome test of the numerator and
    # the sign rule den.reverse() = (-1)^m1 den, m1 the multiplicity of Phi_1
    # left after cancellation, give the answer of the product form, (+1, l),
    # (-1, l) or None.
    assume(not num.is_zero())
    f = RatFunc.make(num, den)
    m1 = dict(f._factors.factors).get(1, 0)
    assert f.den.reverse() == f.den * (-1) ** m1
    assert stanley_gorenstein_test(f) == stanley_by_products(f)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
       _cyclotomic_den())
def test_make_is_idempotent(nc, den):
    # A canonical form built again from its own pair, and its copies and
    # pickles, which rebuild it from num and the factors kept beside it.
    f = RatFunc.make(IntPoly(nc), den)
    assert RatFunc.make(f.num, f._factors) == f
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and twin._factors == f._factors


def test_cycpoly_expand():
    """The trace-series oracle expands products of 1 - lam t^d exactly."""
    p = TraceForm((), ((1, zeta(4)), (1, zeta(4, 3))))  # (1 - it)(1 + it)
    assert trace_to_ratfunc(p) == RatFunc.make(IntPoly((1, 0, 1)), CycFactorization((), 1))
    q = TraceForm(((2, zeta(3)),))
    with pytest.raises(NonRationalCollapse,
                       match=r"^coefficient of t\^2 is irrational: CycNum\(3, \['0', '-1'\]\)$"):
        trace_to_ratfunc(q)
