"""
The exponent-form core against the CycNum reference paths.

Random monomial generator sets with entries +-zeta_n^k are closed both in
exponent form (close_group, close_monomial_group, polyring_molien) and by
CycNum matrix products; the elements, their orders, determinants, hdets and
eigenvalues, the classification label, the Molien series and the
bireflections must agree exactly.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duinv import monomial
from duinv.cycnum import CycNum, root_of_unity_order, root_power_exponent, zeta
from duinv.errors import GroupTooLarge, InfiniteOrderSuspected
from duinv.invariants import (AlgebraCtx, MonomialMat, _average_inverse_products,
                              _bireflection_flags, bireflection_subgroup,
                              close_monomial_group, hdet_matrix,
                              is_bireflection, molien, polyring_molien)
from duinv.matgroup import (Mat2, MatGroup, _close_by_products,
                            _eigen_exponents_by_search, classify, close_group,
                            eigenvalues)

CAP = 48  # keeps the CycNum reference closures and orders quick


@st.composite
def roots(draw, n):
    """+-zeta_n^k as a CycNum."""
    value = zeta(n, draw(st.integers(0, n - 1)))
    return -value if draw(st.booleans()) else value


@st.composite
def mat2_generator_sets(draw):
    n = draw(st.integers(1, 24))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(roots(n)), draw(roots(n))
        gens.append(Mat2.of(0, y, x, 0) if draw(st.booleans()) else Mat2.diag(x, y))
    return gens


def _keys(elements, conductor):
    return [e.key(conductor) for e in elements]


def _root_exponents(eigen_lists):
    """(M, exponent tuples over M) for lists of CycNum roots of unity, by the
    exact root_of_unity_order and root_power_exponent."""
    m = math.lcm(*(root_of_unity_order(lam) for eig in eigen_lists for lam in eig))
    return m, [tuple(root_power_exponent(lam, m) for lam in eig) for eig in eigen_lists]


@settings(max_examples=40)
@given(mat2_generator_sets())
def test_mat2_groups_match_cycnum_reference(gens):
    try:
        fast = close_group(gens, cap=CAP)
    except GroupTooLarge:
        with pytest.raises(GroupTooLarge):
            _close_by_products(gens, math.lcm(*(g.conductor() for g in gens)), CAP)
        return
    assert fast.exp_form is not None
    ref = _close_by_products(gens, fast.conductor, CAP)
    assert _keys(fast, fast.conductor) == _keys(ref, fast.conductor)

    table = fast.table
    big = table.modulus
    orders = [g.order(cap=CAP + 1) for g in ref]
    assert table.orders == tuple(orders)
    pairs = []
    for i, (g, order) in enumerate(zip(ref, orders)):
        assert table.shapes[i] == g.shape()
        assert zeta(big, table.dets[i]) == g.det()
        assert zeta(big, 2 * table.dets[i]) == hdet_matrix(g)
        expected = _eigen_exponents_by_search(g, order)
        step = big // order
        assert tuple(e // step for e in table.eigenvalues[i]) == expected
        pairs.append(tuple(zeta(order, k) for k in expected))
        assert eigenvalues(g) == pairs[-1]

    ref_group = MatGroup(ref, tuple(gens), fast.conductor)
    assert ref_group.exp_form is None
    assert ref_group.table.shapes == table.shapes
    assert ref_group.table.orders == table.orders
    assert classify(fast) == classify(ref_group)

    ctx = AlgebraCtx.down_up(0, 1)  # every 2x2 matrix acts on A(0, 1)
    reference = _average_inverse_products(
        (1, 1, 2), *_root_exponents([(lam, mu, lam * mu) for lam, mu in pairs]))
    assert molien(ctx, fast) == molien(ctx, ref_group) == reference

    flags = _bireflection_flags(ctx, fast)
    assert flags == _bireflection_flags(ctx, ref_group)
    assert flags == [is_bireflection(ctx, g) for g in ref]
    sub = bireflection_subgroup(ctx, fast)
    expected_sub = (_close_by_products([g for g, ok in zip(ref, flags) if ok],
                                       fast.conductor, CAP)
                    if any(flags) else (Mat2.identity(),))
    assert _keys(sub, fast.conductor) == _keys(expected_sub, fast.conductor)


@st.composite
def monomial_generator_sets(draw):
    size = draw(st.integers(2, 3))
    n = draw(st.integers(1, 8))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = tuple(draw(st.permutations(range(size))))
        gens.append(MonomialMat(perm, tuple(draw(roots(n)) for _ in range(size))))
    return gens


def _monomial_reference(gens):
    """The closure by CycNum products, with every scalar at one conductor."""
    size = len(gens[0].perm)
    lcm = math.lcm(*(s.conductor for g in gens for s in g.scalars))
    gens = [MonomialMat(g.perm, tuple(s.promoted(lcm) for s in g.scalars))
            for g in gens]
    ident = MonomialMat(tuple(range(size)), (CycNum.one().promoted(lcm),) * size)
    return monomial.closure(ident, gens, MonomialMat.__matmul__,
                            MonomialMat.key, CAP)


@settings(max_examples=25)
@given(monomial_generator_sets())
def test_monomial_groups_match_cycnum_reference(gens):
    try:
        ref = _monomial_reference(gens)
    except GroupTooLarge:
        with pytest.raises(InfiniteOrderSuspected):  # this closure's cap error
            close_monomial_group(gens, cap=CAP)
        return
    fast = close_monomial_group(gens, cap=CAP)
    assert [m.key() for m in fast] == [m.key() for m in ref]
    shape = (1,) * len(gens[0].perm)
    reference = _average_inverse_products(
        shape, *_root_exponents([m.eigenvalues() for m in ref]))
    assert polyring_molien(gens, cap=CAP) == reference
