"""Matrix closures, eigenvalues and recognition of the standard families."""
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duinv import matgroup
from duinv.cycnum import CycNum, zeta
from duinv.errors import GroupTooLarge, InfiniteOrderSuspected, SingularGenerator
from duinv.intpoly import totient
from duinv.matgroup import (Mat2, MatForm, classify, close_group, eigenvalues, mat_c,
                            mat_c_minus, mat_d1, mat_s, mat_s1, standard_group)
from duinv.monomial import ExpForm

from _oracles import mat_d2, mat_inverse, mat_shape, sl2_part


def test_matrix_basics():
    s = mat_s()
    assert s @ s == Mat2.identity()
    assert s.det() == -1
    assert mat_s1().det() == 1
    assert mat_s1().order() == 4
    m = Mat2.of(1, 1, 0, 1)
    assert mat_inverse(m) @ m == Mat2.identity()
    with pytest.raises(SingularGenerator):
        mat_inverse(Mat2.of(1, 1, 1, 1))
    # every zero pattern of the four entries, singular ones included
    for pattern in itertools.product((0, 1), repeat=4):
        shape = ("diagonal" if pattern[1:3] == (0, 0)
                 else "antidiagonal" if pattern == (0, 1, 1, 0) else "other")
        assert mat_shape(Mat2.of(*(x * zeta(3) for x in pattern))) == shape, pattern
    assert mat_shape(Mat2.of(1, 0, 0, 0)) == "diagonal"
    assert mat_shape(Mat2.of(0, 1, 0, 0)) == "other"


def test_close_group_orders():
    assert len(close_group([Mat2.identity()])) == 1
    assert len(close_group([mat_d1()])) == 2
    assert len(close_group([mat_s1()])) == 4
    assert len(close_group([mat_c(zeta(5))])) == 5
    assert len(close_group([mat_d1(), mat_c(zeta(6))])) == 12


def test_close_group_cap():
    with pytest.raises(GroupTooLarge):
        close_group([mat_c(zeta(30))], cap=10)


def test_standard_family_orders():
    for n in (1, 2, 3, 4):
        assert len(standard_group(1, n)) == n
        assert len(standard_group(2, n)) == 4 * n
        assert len(standard_group(4, n)) == 4 * n
        assert len(standard_group(5, n)) == 4 * n
        assert len(standard_group(6, n)) == 2 * n
        assert len(standard_group(7, n)) == 8 * n
        assert len(standard_group(8, n)) == 8 * n
    for n in (1, 3, 5):
        assert len(standard_group(3, n)) == 2 * n


def test_membership_and_dets():
    g = standard_group(2, 2)
    assert mat_d1() in g
    assert mat_d2() in g
    assert mat_s() not in g
    dets = {e.det() for e in g}
    assert len(dets) == 2


def test_only_a_matrix_can_be_an_element():
    g = standard_group(1, 2)
    for other in (1, "x", None, CycNum.one()):
        assert other not in g


def test_eigenvalues_diagonal_and_antidiagonal():
    lam, mu = eigenvalues(mat_c(zeta(8)))
    assert {lam, mu} == {zeta(8), zeta(8, 7)}
    lam, mu = eigenvalues(mat_s())   # char poly t^2 - 1
    assert {lam, mu} == {CycNum.one(), CycNum.from_rat(-1)}
    lam, mu = eigenvalues(mat_s1())  # char poly t^2 + 1
    assert {lam, mu} == {zeta(4), zeta(4, 3)}


def test_eigenvalues_general_matrix():
    # rotation by 120 degrees conjugated away from diagonal form
    w = zeta(3)
    p = Mat2.of(1, 1, 0, 1)
    g = p @ Mat2.diag(w, w ** 2) @ mat_inverse(p)
    assert not g.is_diagonal()
    lam, mu = eigenvalues(g)
    assert {lam, mu} == {w, w ** 2}


def test_classify_q_families():
    assert classify(standard_group(1, 5)).family == "Q1"
    assert classify(standard_group(2, 3)).family == "Q2"
    assert classify(standard_group(3, 5)).family == "Q3"
    assert classify(standard_group(4, 3)).family == "Q4"
    assert classify(standard_group(5, 2)).family == "Q5"
    assert classify(standard_group(6, 4)).family == "Q6"
    assert classify(standard_group(7, 2)).family == "Q7"
    assert classify(standard_group(8, 2)).family == "Q8"
    label = classify(standard_group(6, 3))
    assert any(m.startswith("D") for m in label.all_matches)


def test_classify_parameters():
    for fam, n, expect_n in ((1, 6, 6), (2, 3, 3), (3, 5, 5), (4, 2, 2),
                             (5, 3, 3), (6, 4, 4), (7, 2, 2), (8, 3, 3)):
        label = classify(standard_group(fam, n))
        assert (label.family, label.n) == (f"Q{fam}", expect_n)


def test_classify_sl2_alternates():
    c6 = close_group([mat_c(zeta(6))])
    label = classify(c6)
    assert "C6" in label.all_matches
    # binary dihedral of order 8: <s1, c(zeta_4)>
    bd8 = close_group([mat_s1(), mat_c(zeta(4))])
    assert len(bd8) == 8
    assert any(m == "BD8" for m in classify(bd8).all_matches)


def test_classify_unrecognized():
    p = Mat2.of(1, 1, 0, 1)
    g = close_group([p @ mat_d1() @ mat_inverse(p)])
    assert classify(g).family == "Unrecognized"


def test_sl2_part():
    g = standard_group(2, 2)
    sl2 = sl2_part(g)
    assert len(sl2) == len(g) // 2
    assert all(e.det() == 1 for e in sl2)


def test_membership_across_conductors(monkeypatch):
    """A matrix over another field is compared only with the elements of its
    determinant, and one whose determinant is not in the table is refused
    before any element is built."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    group = standard_group(7, 8)
    assert Mat2.diag(zeta(3), 1) not in group
    assert "elements" not in vars(group)
    q1 = standard_group(1, 3)
    assert Mat2.diag(zeta(6, 2), zeta(6, 4)) in q1
    assert Mat2.diag(zeta(6, 2), zeta(6, 2)) not in q1
    sl2 = sl2_part(standard_group(2, 2))
    for m in list(standard_group(2, 2)) + [Mat2.diag(zeta(8), zeta(8, 7))]:
        wide = Mat2(*(e.promoted(24) for e in m.entries()))
        assert (wide in sl2) == (m in sl2.elements)


def test_q8_alternate_generators():
    """<s, c_minus(eps)> and <s1, c_minus(eps)> are distinct but isomorphic
    copies: same order and the same recognized family and parameter."""
    for n in (1, 2, 3):
        eps = zeta(4 * n)
        a = close_group([mat_s(), mat_c_minus(eps)])
        b = close_group([mat_s1(), mat_c_minus(eps)])
        assert len(a) == len(b) == 8 * n
        la, lb = classify(a), classify(b)
        assert (la.family, la.n) == (lb.family, lb.n) == ("Q8", n)
        assert mat_s1() not in a  # genuinely different subgroups of GL_2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_lagrange_for_cyclic_products(a, b):
    g = close_group([mat_c(zeta(a)), mat_c(zeta(b))])
    order = len(g)
    for e in g:
        assert order % e.order() == 0  # element order divides group order


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6]))
def test_group_closure_is_closed(n):
    g = close_group([mat_d1(), mat_c(zeta(n))])
    for x in g:
        assert mat_inverse(x) in g
        for y in g:
            assert x @ y in g


def test_infinite_order_generators_fail_fast():
    # cap=2 would raise GroupTooLarge had any closure run
    with pytest.raises(InfiniteOrderSuspected):
        close_group([Mat2.diag(2, Fraction(1, 2))], cap=2)
    with pytest.raises(InfiniteOrderSuspected):  # antidiagonal, bc = 2
        close_group([Mat2.of(0, 2, 1, 0)], cap=2)
    with pytest.raises(InfiniteOrderSuspected):  # determinant 2
        close_group([Mat2.of(1, 1, 0, 2)], cap=2)


def test_non_monomial_infinite_order_generator_fails_fast():
    # [[1,1],[1,0]] has det -1 and the distinct eigenvalues (1 +- sqrt 5)/2;
    # a rational matrix of finite order has order at most 6 (_order_bound).
    fib = Mat2.of(1, 1, 1, 0)
    with pytest.raises(InfiniteOrderSuspected):
        close_group([fib], cap=2)
    # the message names the generator, as written, and the bound R
    with pytest.raises(InfiniteOrderSuspected, match=r"^generator 2 of 2, \[\[1,1\],\[1,0\]\], "
                       r"has no power up to R = 6 equal to the identity"):
        close_group([mat_s1(), fib], cap=2)
    # over Q(zeta_60) the walk stops at the bound 120 although the powers
    # of this matrix (eigenvalue of modulus about 1.6) grow without bound
    with pytest.raises(InfiniteOrderSuspected):
        close_group([Mat2.of(zeta(60), 1, 1, 0)], cap=2)
    with pytest.raises(InfiniteOrderSuspected):
        eigenvalues(Mat2.of(zeta(60), 1, 1, 0))
    # a non-monomial generator of finite order still closes
    assert len(close_group([Mat2.of(0, -1, 1, -1)])) == 3


@pytest.mark.parametrize("g,error", [
    (Mat2.of(1, 1, 1, 1), SingularGenerator),
    (Mat2.of(2, 1, 1, 1), InfiniteOrderSuspected),  # det 1, eigenvalues (3 +- sqrt 5)/2
    (Mat2.diag(2, 1), InfiniteOrderSuspected),      # det 2
    (Mat2.of(1, 1, 0, 1), InfiniteOrderSuspected),  # repeated eigenvalue, not scalar
], ids=["singular", "hyperbolic", "det-2", "jordan"])
def test_order_fails_fast(g, error, monkeypatch):
    # At most R = 6 products over Q, not a walk to the cap of 10 000.
    calls = []
    mul = MatForm.mul
    monkeypatch.setattr(MatForm, "mul", lambda *a: calls.append(1) or mul(*a))
    with pytest.raises(error):
        g.order()
    assert len(calls) <= matgroup._order_bound(1) == 6


def test_order_refuses_a_monomial_power_of_non_root_scale():
    with pytest.raises(InfiniteOrderSuspected,
                       match="scales a basis vector by a non-root of unity"):
        Mat2.diag(2, Fraction(1, 2)).order()


def test_monomial_order_walks_no_power(monkeypatch):
    # the order of a monomial matrix is read off its exponent form
    calls = []
    mul = MatForm.mul
    monkeypatch.setattr(MatForm, "mul", lambda *a: calls.append(1) or mul(*a))
    assert Mat2.diag(zeta(20000), 1).order() == 20000
    assert Mat2.of(0, zeta(2000), 1, 0).order() == 4000
    assert calls == []


def test_no_order_check_has_a_cap():
    # a finite order above 10 000 is no reason to refuse a matrix
    g = Mat2.diag(zeta(20000), 1)
    assert eigenvalues(g) == (CycNum.one(), zeta(20000))
    assert g.order() == 20000


def test_antidiagonal_with_irrational_entries_closes_by_products():
    # bc = 1, so the group is finite although b and c are not roots of unity
    g = close_group([Mat2.of(0, 2, Fraction(1, 2), 0)])
    assert isinstance(g.form, ExpForm)
    assert len(g) == 2
    assert eigenvalues(g.elements[1]) == (CycNum.one(), CycNum.from_rat(-1))


@pytest.mark.parametrize("jordan", [Mat2.of(1, 1, 0, 1), Mat2.of(-1, 1, 0, -1)])
def test_repeated_eigenvalue_generators_fail_fast(jordan, monkeypatch):
    # A finite-order matrix is diagonalizable, so a non-scalar one with
    # trace^2 = 4 det has infinite order.
    with pytest.raises(InfiniteOrderSuspected):
        close_group([jordan], cap=2)
    with pytest.raises(InfiniteOrderSuspected):
        close_group([mat_s1(), jordan], cap=2)

    def no_power_loop(self, cap=None):
        raise AssertionError("Mat2.order ran")

    monkeypatch.setattr(Mat2, "order", no_power_loop)
    with pytest.raises(InfiniteOrderSuspected):
        eigenvalues(jordan)


def test_close_group_of_no_generators_is_trivial():
    group = close_group([])
    assert group.elements == (Mat2.identity(),)
    assert classify(group).order == 1


def test_closure_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    first = close_group([mat_s()], cap=2)
    for cap in range(3, matgroup._CACHE_SIZE + 10):  # one entry per cap
        close_group([mat_s()], cap=cap)
    assert len(matgroup._closure_cache) == matgroup._CACHE_SIZE
    again = close_group([mat_s()], cap=2)  # evicted, so closed anew
    assert again is not first and again == first


# The closure cache keys each generator entry by its own conductor and
# coefficients.

def _q7(n):
    return [mat_d1(), mat_s(), mat_c(zeta(2 * n))]


def test_generators_of_equal_value_share_a_closure(monkeypatch):
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    assert close_group(_q7(8)) is close_group(_q7(8))
    # diag(1, 2)^-1 g diag(1, 2): one entry with a non-integral coefficient
    half = lambda: [Mat2(g.a, 2 * g.b, g.c / 2, g.d) for g in _q7(3)]
    assert close_group(half()) is close_group(half())
    assert len(matgroup._closure_cache) == 2


def test_galois_conjugate_generators_do_not_share_a_closure(monkeypatch):
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    assert hash(zeta(8)) == hash(zeta(8, 3))  # CycNum hashes by the field trace
    first = close_group([mat_c(zeta(8))])
    third = close_group([mat_c(zeta(8, 3))])
    assert len(matgroup._closure_cache) == 2
    assert first is not third and first.elements != third.elements
    assert first.elements[1] == mat_c(zeta(8))
    assert third.elements[1] == mat_c(zeta(8, 3))


def test_promoted_generators_close_to_an_equal_group(monkeypatch):
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    group = close_group(_q7(8))
    promoted = [Mat2(*(e.promoted(16) for e in g.entries())) for g in _q7(8)]
    again = close_group(promoted)  # another representation: closed anew
    assert again is not group and len(matgroup._closure_cache) == 2
    assert again == group and again.conductor == group.conductor == 16
    assert [g.key(16) for g in again] == [g.key(16) for g in group]


def test_equal_coefficients_over_other_conductors_do_not_share_a_closure(monkeypatch):
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    assert zeta(3).coeffs == zeta(6).coeffs  # both (0, 1)
    assert len(close_group([Mat2.diag(zeta(3), 1)])) == 3
    assert len(close_group([Mat2.diag(zeta(6), 1)])) == 6


# Properties of the key itself: CycNum pairs over conductors up to 24, with
# integral and non-integral coefficients (integral ones given as ints or as
# Fractions), the same value written at two conductors, and Galois conjugates.

@st.composite
def _cycnums(draw, n=None):
    n = n or draw(st.integers(1, 24))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    return CycNum(n, draw(st.lists(coeff, max_size=n)))


def _conjugate(x, k):
    """x with zeta_n replaced by zeta_n^k."""
    spread = [0] * x.conductor
    for i, c in enumerate(x.coeffs):
        spread[i * k % x.conductor] += c
    return CycNum(x.conductor, spread)


@st.composite
def _cycnum_pairs(draw):
    x = draw(_cycnums())
    n = x.conductor
    kind = draw(st.sampled_from(["any", "same-conductor", "same-numerators", "copy",
                                 "as-fractions", "promoted", "same-coefficients",
                                 "conjugate"]))
    if kind == "any":
        return x, draw(_cycnums())
    if kind == "same-conductor":
        return x, draw(_cycnums(n))
    if kind == "same-numerators":  # each coefficient over the next denominator
        return x, CycNum(n, [Fraction(c.numerator, c.denominator + 1) for c in x.coeffs])
    if kind == "copy":  # equal coefficients, integral ones given as ints
        return x, CycNum(n, [int(c) if c.denominator == 1 else c for c in x.coeffs])
    if kind == "as-fractions":  # equal coefficients, every one given as a Fraction
        return x, CycNum(n, [Fraction(c) for c in x.coeffs], _reduced=True)
    if kind == "promoted":
        return x, x.promoted(n * draw(st.integers(1, 24 // n)))
    if kind == "same-coefficients":  # the coefficient vector at another conductor
        m = draw(st.sampled_from([m for m in range(1, 25) if totient(m) == totient(n)]))
        return x, CycNum(m, x.coeffs)
    k = draw(st.sampled_from([k for k in range(1, n + 1) if math.gcd(k, n) == 1]))
    return x, _conjugate(x, k)


class _KeyRead(Exception):
    """Carries the key that close_group looks up in its cache."""


class _KeySpy(dict):
    def get(self, key):
        raise _KeyRead(key)


def _closure_key(g: Mat2) -> tuple:
    """The closure-cache key of close_group([g]), read before any closure work."""
    with mock.patch.object(matgroup, "_closure_cache", _KeySpy()), \
            pytest.raises(_KeyRead) as read:
        close_group([g])
    return read.value.args[0]


@settings(max_examples=300)
@given(_cycnum_pairs())
def test_exact_key_equal_exactly_when_conductor_and_coefficients_are(pair):
    x, y = pair
    kx, ky = _closure_key(Mat2.diag(x, 1)), _closure_key(Mat2.diag(y, 1))
    # The key holds each entry's stored form itself, (x.conductor, x.coeffs):
    # an int for each integral coefficient, a Fraction only for the others,
    # however x was written.
    zero, one = (1, (0,)), (1, (1,))
    assert kx == (((x.conductor, x.coeffs), zero, zero, one), matgroup.DEFAULT_CAP)
    for c in x.coeffs + y.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert (kx == ky) == (x.conductor == y.conductor and x.coeffs == y.coeffs)
    if kx == ky:
        assert x == y and hash(kx) == hash(ky)
