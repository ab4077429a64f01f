"""Exact cyclotomic arithmetic, cross-checked against the complex embedding."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duinv.cycnum import CycNum, root_exponent, zeta
from duinv.errors import DivisionByZero, PromotionOverflow, ZeroConductor
from duinv.notation import parse_cyc


def test_rational_basics():
    assert CycNum.from_rat(Fraction(3, 2)).is_rational()
    assert CycNum.from_rat(5).rational_part() == 5
    assert CycNum.zero().is_zero()
    assert not CycNum.one().is_zero()


def test_zeta_relations():
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert zeta(4) * zeta(4) == -1
    assert zeta(3) ** 3 == 1
    assert zeta(3) + zeta(3) ** 2 == -1  # sum of primitive cube roots
    assert zeta(6) == 1 + zeta(3)  # zeta_6 = -zeta_3^2
    assert zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4) == -1


def test_promotion_is_embedding():
    x = zeta(3)
    y = x.promoted(12)
    assert y.conductor == 12
    assert y == x
    assert hash(y) == hash(x)


def test_cross_conductor_equality():
    assert zeta(2) == zeta(6, 3)
    assert zeta(4, 2) == -1
    assert zeta(8, 4) + 1 == CycNum.zero()


def test_inverse():
    x = zeta(7) + 2
    assert x * x.inv() == 1
    with pytest.raises(DivisionByZero):
        CycNum.zero().inv()


def test_division_and_pow():
    x = zeta(5)
    assert 1 / x == x ** 4
    assert x ** -2 == x ** 3
    assert (x / x) == 1


def test_foreign_operands_are_not_implemented():
    # __rtruediv__ refuses what _coerce refuses, before any inverse, as
    # __add__ and __mul__ do
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for /: 'str'"):
        "x" / zeta(3)
    for op in ("__rtruediv__", "__add__", "__mul__"):
        assert getattr(zeta(3), op)("x") is NotImplemented
    assert 2 / zeta(4) == CycNum(4, [0, -2])


def test_conductor_errors():
    with pytest.raises(ZeroConductor):
        CycNum(0, ())
    with pytest.raises(PromotionOverflow):
        zeta(10 ** 6 - 1).promoted((10 ** 6 - 1) * 2)


def test_binary_operations_over_the_cap_overflow():
    # the promotion to the common conductor refuses before it allocates
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x == y):
        with pytest.raises(PromotionOverflow, match="conductor 1001000 exceeds cap"):
            op(zeta(1000), zeta(1001))


def test_root_of_unity_order():
    # the order is the first entry of root_exponent
    assert root_exponent(CycNum.one()) == (1, 0)
    assert root_exponent(CycNum.from_rat(-1)) == (2, 1)
    assert root_exponent(zeta(12, 8)) == (3, 2)
    assert root_exponent(-zeta(9)) == (18, 11)
    assert root_exponent(CycNum.from_rat(2)) is None
    assert root_exponent(zeta(5) + 1) is None


def test_root_power_exponent():
    # x == zeta_o^e == zeta_m^(e m / o) for every m that o divides
    for m in (1, 2, 3, 8, 12, 30):
        for e in range(m):
            order, k = root_exponent(zeta(m, e))
            assert m % order == 0 and k * (m // order) == e
    order, k = root_exponent(zeta(3))  # the order divides m = 12 strictly
    assert k * (12 // order) == 4


# ---------------------------------------------------------------------------
# float-embedding oracle over random expression trees
# ---------------------------------------------------------------------------

def test_arithmetic_matches_complex_embedding():
    from _oracles import run_embedding_suite
    run_embedding_suite(cases=200, depth=5, tol=1e-9)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

small_roots = st.builds(zeta,
                        st.integers(min_value=1, max_value=12),
                        st.integers(min_value=0, max_value=11))


@settings(max_examples=60, deadline=None)
@given(small_roots, small_roots)
def test_product_of_roots_is_root(x, y):
    o, _ = root_exponent(x * y)
    assert (x * y) ** o == 1


@settings(max_examples=60, deadline=None)
@given(small_roots, st.integers(min_value=1, max_value=6))
def test_promotion_round_trip(x, k):
    assert x.promoted(x.conductor * k) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_zeta_has_exact_order(n):
    x = zeta(n)
    assert x ** n == 1
    assert root_exponent(x)[0] == n


_nonzero_values = st.builds(
    CycNum, st.integers(min_value=1, max_value=30),
    st.lists(st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6)),
             min_size=1, max_size=30)).filter(lambda x: not x.is_zero())


@settings(max_examples=100, deadline=None)
@given(_nonzero_values, st.integers(min_value=1, max_value=4))
def test_inverse_and_negative_powers(x, k):
    assert x.inv() * x == 1
    assert x ** -k == (x ** k).inv()


def test_cyc_make_reduces():
    # zeta_4^2 = -1 supplied unreduced to the constructor
    x = CycNum(4, [0, 0, 1])
    assert x == -1


def test_hash_consistency_across_conductors():
    values = [zeta(6), zeta(12, 2), zeta(3).promoted(15) * zeta(15, 5) / zeta(15, 5)]
    assert len({hash(v) for v in values[:2]}) == 1
    assert values[0] == values[1]


# ---------------------------------------------------------------------------
# canonical coefficients: an int when integral, else a Fraction, never a float
# ---------------------------------------------------------------------------

def _assert_canonical(x):
    for c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), x
    assert type(x.rational_part()) is Fraction


# Conductors divide 24, and promotion at most doubles one, so every value
# lives in a field of degree at most 16.
_conductors = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])
_leaves = st.one_of(
    st.builds(zeta, _conductors, st.integers(0, 23)),
    st.builds(lambda p, q, n, k: parse_cyc(f"{p}/{q}*zeta({n})^{k}"),
              st.integers(-4, 4), st.integers(1, 4), _conductors, st.integers(-3, 3)),
    st.builds(lambda p, q: parse_cyc(f"{p}/{q}"), st.integers(0, 6), st.integers(1, 3)),
)


def _apply(op, x, y, k):
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        return x / y if not y.is_zero() else x / k
    if op == "**":
        return x ** k if not x.is_zero() else x ** abs(k)
    if op == "int":  # a plain int on either side
        return (k - x) * (x + k) / k
    return x.promoted(x.conductor * (abs(k) % 2 + 1))


_expressions = st.recursive(
    _leaves,
    lambda inner: st.builds(_apply, st.sampled_from(["+", "-", "*", "/", "**", "int",
                                                     "promoted"]),
                            inner, inner, st.integers(-3, 3).filter(bool)),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(_expressions)
def test_coefficients_are_ints_or_proper_fractions(x):
    _assert_canonical(x)
    for y in (-x, x.promoted(2 * x.conductor), CycNum(x.conductor, x.coeffs + (0,))):
        _assert_canonical(y)
    if not x.is_zero():
        _assert_canonical(x.inv())
        assert x * x.inv() == 1


def test_floats_and_integral_fractions_are_stored_exactly():
    assert CycNum.from_rat(0.5).coeffs == (Fraction(1, 2),)
    assert CycNum.from_rat(Fraction(4, 2)).coeffs == (2,)
    x = CycNum(4, [0.0, 0, 2.0])  # 2 zeta_4^2 = -2
    assert x.coeffs == (-2, 0) and all(type(c) is int for c in x.coeffs)
    assert CycNum(4, [0, 0, 2.5]).coeffs == (Fraction(-5, 2), 0)
    assert zeta(8).coeffs == (0, 1, 0, 0)
    assert type(CycNum.from_rat(3).rational_part()) is Fraction
