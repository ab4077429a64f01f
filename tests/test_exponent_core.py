"""
The exponent-form core against the CycNum reference paths.

Random monomial generator sets with entries +-zeta_n^k, and diagonal
conjugates of them whose entries are not roots of unity, are closed both in
exponent form (close_group, close_monomial_group, polyring_molien) and by
CycNum matrix products; the elements, their orders, determinants, hdets and
eigenvalues, the classification label, the Molien series and the
bireflections must agree exactly.
"""
import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duinv import matgroup, monomial
from duinv.cycnum import CycNum, root_exponent, zeta
from duinv.errors import (GroupTooLarge, InfiniteOrderSuspected, NonMonomialMatrix,
                          NotAnAutomorphism, SingularGenerator)
from duinv.intpoly import CycFactorization, IntPoly
from duinv.invariants import (AlgebraCtx, _average_inverse_products,
                              _bireflection_flags, bireflection_subgroup,
                              hdet_matrix, molien, polyring_molien, theorem03_report)
from duinv.matgroup import (DEFAULT_CAP, ElementTable, Mat2, MatForm, MatGroup,
                            _group_order_bound, _order_bound, classify,
                            close_group, eigenvalues, generated_subgroup,
                            mat_c, mat_d1, mat_s, mat_s1, standard_group)
from duinv.ratfunc import RatFunc

from _oracles import (Monomial, _close_by_products, _eigen_exponents_by_search,
                      _lattice_molien_coeffs, _monomial_eigenvalues, _monomial_key,
                      _monomial_product, _order_by_products, _subgroup_by_all_generators,
                      close_monomial_group, is_bireflection_by_trace, mat_inverse,
                      mat_shape, normal_sequence_trace, series_coeffs, sl2_part,
                      trace_to_ratfunc)

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
    exact root_exponent."""
    roots = [[root_exponent(lam) for lam in eig] for eig in eigen_lists]
    m = math.lcm(*(order for eig in roots for order, _ in eig))
    return m, [tuple(e * (m // order) for order, e in eig) for eig in roots]


@settings(max_examples=40)
@given(mat2_generator_sets())
def test_mat2_groups_match_cycnum_reference(gens):
    try:
        fast = close_group(gens, cap=CAP)
    except GroupTooLarge:
        with pytest.raises(GroupTooLarge):
            _close_by_products(gens, math.lcm(*(g.conductor() for g in gens)), CAP)
        return
    assert isinstance(fast.form, monomial.ExpForm)
    ref = _close_by_products(gens, fast.conductor, CAP)
    assert _keys(fast, fast.conductor) == _keys(ref, fast.conductor)

    table = fast.table
    big = table.modulus
    orders = [_order_by_products(g, fast.conductor, CAP + 1) for g in ref]
    assert table.orders == tuple(orders)
    pairs = []
    for i, (g, order) in enumerate(zip(ref, orders)):
        assert table.shapes[i] == mat_shape(g)
        assert zeta(big, table.dets[i]) == g.det()
        assert zeta(big, 2 * table.dets[i]) == hdet_matrix(g)
        expected = _eigen_exponents_by_search(g, order)
        step = big // order
        assert tuple(e // step for e in table.eigenvalues[i]) == expected
        pairs.append(tuple(zeta(order, k) for k in expected))
        assert eigenvalues(g) == pairs[-1]

    # the same elements through the MatForm path
    ref_group = MatGroup(tuple(gens), fast.conductor, MatForm.of(fast.conductor, ref))
    assert ref_group.table.shapes == table.shapes
    assert ref_group.table.orders == table.orders
    assert classify(fast) == classify(ref_group)

    ctx = AlgebraCtx.down_up(0, 1)  # every 2x2 matrix acts on A(0, 1)
    reference = _average_inverse_products(
        (1, 1, 2), *_root_exponents([(lam, mu, lam * mu) for lam, mu in pairs]))
    assert molien(ctx, fast) == molien(ctx, ref_group) == reference

    flags = _bireflection_flags(ctx, fast)
    assert flags == _bireflection_flags(ctx, ref_group)
    assert flags == [is_bireflection_by_trace(ctx, g) for g in ref]
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
        gens.append(Monomial(perm, tuple(draw(roots(n)) for _ in range(size))))
    return gens


def _monomial_reference(gens):
    """The closure by CycNum products, with every scalar at one conductor."""
    size = len(gens[0].perm)
    lcm = math.lcm(*(s.conductor for g in gens for s in g.scalars))
    gens = [Monomial(g.perm, tuple(s.promoted(lcm) for s in g.scalars))
            for g in gens]
    ident = Monomial(tuple(range(size)), (CycNum.one().promoted(lcm),) * size)
    return monomial.closure(ident, gens, _monomial_product, CAP)


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
    assert [_monomial_key(m) for m in fast] == [_monomial_key(m) for m in ref]
    shape = (1,) * len(gens[0].perm)
    reference = _average_inverse_products(
        shape, *_root_exponents([_monomial_eigenvalues(m) for m in ref]))
    assert polyring_molien([g.rows() for g in gens], cap=CAP) == reference


@st.composite
def exponent_generator_sets(draw):
    """(M, generators): one to three 2x2 monomial matrices (anti, x, y) with
    entries zeta_M^x and zeta_M^y, M <= 24."""
    m = draw(st.integers(1, 24))
    exps = st.integers(0, m - 1)
    return m, draw(st.lists(st.tuples(st.integers(0, 1), exps, exps), min_size=1, max_size=3))


@settings(max_examples=30, deadline=None)
@given(exponent_generator_sets())
def test_molien_matches_lattice_counts(case):
    m, gens = case
    mats = [Mat2.of(0, zeta(m, y), zeta(m, x), 0) if anti else Mat2.diag(zeta(m, x), zeta(m, y))
            for anti, x, y in gens]
    series = molien(AlgebraCtx.down_up(0, 1), close_group(mats))
    assert series_coeffs(series, 25) == _lattice_molien_coeffs(m, gens, 25)


# ---------------------------------------------------------------------------
# monomial groups in a diagonally conjugated basis, and CycNum-path 2x2 groups
# ---------------------------------------------------------------------------

TWO_CYCLE_PERMS = {2: [(1, 0)], 3: [(1, 0, 2), (0, 2, 1), (2, 1, 0)]}


@st.composite
def irrational_monomial_sets(draw, n_max):
    """
    2x2 and 3x3 Monomial sets whose 2-cycles carry r*zeta^k and
    zeta^k'/r with rational r != +-1, and whose fixed points carry roots of
    unity: every generator has finite order, and the exponent form needs a
    diagonal change of basis, which exists exactly when the group is finite.
    """
    size = draw(st.integers(2, 3))
    n = draw(st.integers(1, n_max))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.sampled_from(TWO_CYCLE_PERMS[size]))
        r = draw(st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(-3, 2)]))
        scalars = [draw(roots(n)) for _ in range(size)]
        j = next(j for j in range(size) if perm[j] != j)
        scalars[j] = scalars[j] * r
        scalars[perm[j]] = scalars[perm[j]] / r
        gens.append(Monomial(perm, tuple(scalars)))
    return gens


def _closed_on_both_paths(gens):
    """The CycNum reference closure, or None after checking that both paths
    overflow the cap."""
    try:
        ref = _monomial_reference(gens)
    except GroupTooLarge:
        with pytest.raises(InfiniteOrderSuspected):
            close_monomial_group(gens, cap=CAP)
        with pytest.raises(InfiniteOrderSuspected):
            polyring_molien([g.rows() for g in gens], cap=CAP)
        return None
    assert ([_monomial_key(m) for m in close_monomial_group(gens, cap=CAP)]
            == [_monomial_key(m) for m in ref])
    return ref


@settings(max_examples=25)
@given(irrational_monomial_sets(6))
def test_irrational_monomial_groups_match_cycnum_reference(gens):
    ref = _closed_on_both_paths(gens)
    if ref is not None:
        shape = (1,) * len(gens[0].perm)
        reference = _average_inverse_products(
            shape, *_root_exponents([_monomial_eigenvalues(m) for m in ref]))
        assert polyring_molien([g.rows() for g in gens], cap=CAP) == reference


@settings(max_examples=20)
@given(irrational_monomial_sets(2))
def test_irrational_monomial_molien_matches_trace_average(gens):
    # With scalars r*(+-1) every cycle product is +-1, so each element's
    # trace series is rational on its own.
    ref = _closed_on_both_paths(gens)
    if ref is not None:
        total = RatFunc.make(IntPoly(), CycFactorization((), 1))
        for m in ref:
            trace = normal_sequence_trace([(1, lam) for lam in _monomial_eigenvalues(m)])
            total = total + trace_to_ratfunc(trace)
        expected = total.scale(Fraction(1, len(ref)))
        assert polyring_molien([g.rows() for g in gens], cap=CAP) == expected


# Entries of the conjugating diagonals; 1 + zeta_3 = -zeta_3^2 is a root of
# unity, so some conjugates need no change of basis.
BASIS_ENTRIES = [CycNum.one(), CycNum.from_rat(2), CycNum.from_rat(Fraction(-1, 3)),
                 1 + zeta(3)]


def _conjugated(g, d):
    """diag(d)^-1 g diag(d): column j scales by s_j d_j / d_perm[j]."""
    return Monomial(g.perm, tuple(s * d[j] / d[p]
                                  for j, (p, s) in enumerate(zip(g.perm, g.scalars))))


@st.composite
def conjugated_monomial_sets(draw):
    """
    (original, conjugated, twisted): a root-of-unity Monomial set of size
    2-4, the set conjugated by a random diagonal, and whether its last
    generator was conjugated by a second diagonal instead, which mostly
    makes the group infinite.
    """
    size = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = tuple(draw(st.permutations(range(size))))
        gens.append(Monomial(perm, tuple(draw(roots(n)) for _ in range(size))))
    bases = [[draw(st.sampled_from(BASIS_ENTRIES)) for _ in range(size)]]
    twisted = len(gens) > 1 and draw(st.booleans())
    if twisted:
        bases.append([draw(st.sampled_from(BASIS_ENTRIES)) for _ in range(size)])
    conjugated = [_conjugated(g, bases[0]) for g in gens[:-1]]
    conjugated.append(_conjugated(gens[-1], bases[-1]))
    return gens, conjugated, twisted


@settings(max_examples=40)
@given(conjugated_monomial_sets())
def test_conjugated_monomial_groups_match_cycnum_reference(case):
    gens, conjugated, twisted = case
    ref = _closed_on_both_paths(conjugated)
    if ref is None:
        return
    if twisted:
        shape = (1,) * len(gens[0].perm)
        expected = _average_inverse_products(
            shape, *_root_exponents([_monomial_eigenvalues(m) for m in ref]))
    else:
        expected = polyring_molien([g.rows() for g in gens], cap=CAP)
    assert polyring_molien([g.rows() for g in conjugated], cap=CAP) == expected
    if len(gens[0].perm) == 2:  # the same group as Mat2s
        mats = [Mat2.from_monomial(g.perm, g.scalars, CycNum.zero()) for g in conjugated]
        group = close_group(mats, cap=CAP)
        assert isinstance(group.form, monomial.ExpForm)
        assert _keys(group, group.conductor) == _keys(
            _close_by_products(mats, group.conductor, CAP), group.conductor)


# ---------------------------------------------------------------------------
# subgroups of exponent-form groups against the all-generator closure
# ---------------------------------------------------------------------------

def _index_lists(group_order):
    """Index lists into a group, with repeats, down to the empty list."""
    return st.lists(st.integers(0, group_order - 1), max_size=8)


@settings(max_examples=40)
@given(mat2_generator_sets(), st.data())
def test_generated_subgroup_matches_all_generator_closure(gens, data):
    try:
        group = close_group(gens, cap=CAP)
    except GroupTooLarge:
        return
    indices = data.draw(_index_lists(len(group)))
    sub = generated_subgroup(group, indices)
    assert sub._root is group
    assert tuple(group.form.elements[i] for i in sub._indices) == \
        _subgroup_by_all_generators(group.form, indices, CAP)
    expected = _close_by_products([group.elements[i] for i in indices],
                                  group.conductor, CAP)
    assert _keys(sub, group.conductor) == _keys(expected, group.conductor)
    assert generated_subgroup(group, indices) == sub


@settings(max_examples=40)
@given(st.one_of(monomial_generator_sets(), irrational_monomial_sets(6),
                 conjugated_monomial_sets().map(lambda case: case[1])), st.data())
def test_exp_form_subgroup_matches_all_generator_closure(gens, data):
    try:
        form = monomial.exponent_form([(g.perm, g.scalars) for g in gens]).closure(CAP)
    except (GroupTooLarge, InfiniteOrderSuspected):
        return
    indices = data.draw(_index_lists(len(form.elements)))
    # monomial.subgroup on element indices, as generated_subgroup runs it
    index = {x: i for i, x in enumerate(form.elements)}
    found = monomial.subgroup(
        0, indices, lambda i, j: index[monomial.mul(form.elements[i], form.elements[j],
                                                    form.modulus)], CAP)
    assert tuple(form.elements[i] for i in found) == \
        _subgroup_by_all_generators(form, indices, CAP)


@pytest.mark.parametrize("family", [5, 6, 7, 8])
@pytest.mark.parametrize("n", [1, 3])
def test_diagonal_conjugate_has_the_same_report(family, n):
    gens = standard_group(family, n).generators
    ref = theorem03_report(3, -1, gens)
    # diag(1, 2)^-1 g diag(1, 2)
    conj = theorem03_report(3, -1, [Mat2(g.a, 2 * g.b, g.c / 2, g.d) for g in gens])
    assert conj.group.form.basis is not None
    assert conj.group.elements != ref.group.elements
    assert conj.hilbert_series == ref.hilbert_series
    assert conj.label == ref.label
    assert conj.hdet_trivial == ref.hdet_trivial
    assert conj.bireflection_count == ref.bireflection_count
    assert conj.generated_by_bireflections == ref.generated_by_bireflections


def _raises_before_closing(call):
    """InfiniteOrderSuspected from `call`, and not as a cap overflow."""
    with pytest.raises(InfiniteOrderSuspected) as info:
        call()
    assert not isinstance(info.value.__cause__, GroupTooLarge)


def test_infinite_monomial_groups_fail_fast():
    # Each generator has order 2, but the product is diag(2, 1/2).
    anti = Mat2.of(0, 2, Fraction(1, 2), 0)
    _raises_before_closing(lambda: close_group([anti, mat_s()], cap=2))
    rows = [[[0, 2], [Fraction(1, 2), 0]], [[0, 1], [1, 0]]]
    mono = [Monomial.of_rows(r) for r in rows]
    _raises_before_closing(lambda: close_monomial_group(mono, cap=2))
    _raises_before_closing(lambda: polyring_molien(rows, cap=2))
    # 3x3: two 3-cycles with cycle product 1 whose quotient is diagonal with
    # entries 1, 1/2 and 2.
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    scaled = [[0, 0, 1], [Fraction(1, 2), 0, 0], [0, 2, 0]]
    mono3 = [Monomial.of_rows(cycle), Monomial.of_rows(scaled)]
    with pytest.raises(GroupTooLarge):
        _monomial_reference(mono3)
    _raises_before_closing(lambda: close_monomial_group(mono3, cap=2))
    _raises_before_closing(lambda: polyring_molien([cycle, scaled], cap=2))


def test_zero_scalar_is_singular():
    # A zero "scalar" leaves a row without a nonzero entry: the matrix is
    # not monomial, and as a 2x2 generator it is singular.
    for rows in ([[0, 1], [0, 0]], [[0, 0], [0, 1]]):
        with pytest.raises(NonMonomialMatrix):
            polyring_molien([rows])
    for g in (Mat2.diag(0, 1), Mat2.of(1, 0, 0, 0)):
        with pytest.raises(SingularGenerator, match="has zero determinant"):
            close_group([g])


@st.composite
def column_placements(draw):
    """(positions, scalars, rows): an n x n matrix, n <= 4, with one nonzero
    scalar per column j, in row positions[j]."""
    n = draw(st.integers(1, 4))
    positions = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    scalars = tuple(draw(st.one_of(roots(draw(st.integers(1, 12))),
                                   st.sampled_from([2, Fraction(-1, 3)]).map(CycNum.from_rat)))
                    for _ in range(n))
    rows = [[CycNum.zero()] * n for _ in range(n)]
    for j, (i, s) in enumerate(zip(positions, scalars)):
        rows[i][j] = s
    return positions, scalars, rows


@settings(max_examples=60)
@given(column_placements())
def test_from_rows_reads_exactly_the_permutations(case):
    positions, scalars, rows = case
    if sorted(positions) == list(range(len(positions))):
        assert monomial.from_rows(rows) == (positions, scalars)
    else:  # some row holds two of the entries and another none
        assert monomial.from_rows(rows) is None
        with pytest.raises(NonMonomialMatrix):
            polyring_molien([rows])


@settings(max_examples=60)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(roots(n), roots(n))),
       st.sampled_from([1, 2, Fraction(-1, 3)]), st.booleans())
def test_mat2_monomial_reads_diagonal_and_antidiagonal(pair, r, anti):
    x, y = pair[0] * r, pair[1] / r
    if anti:
        g = Mat2.of(0, y, x, 0)
        assert g.monomial() == ((1, 0), (g.c, g.b))
    else:
        g = Mat2.diag(x, y)
        assert g.monomial() == ((0, 1), (g.a, g.d))
    assert Mat2.from_monomial(*g.monomial(), CycNum.zero()) == g
    for singular in (Mat2.of(g.a, g.b, 0, 0), Mat2.of(0, g.b, 0, g.d), Mat2.of(x, y, x, y)):
        assert singular.monomial() is None


I = zeta(4)
BT = [Mat2.diag(I, -I),
      Mat2.of((1 + I) / 2, (1 + I) / 2, (-1 + I) / 2, (1 - I) / 2)]
BO = [BT[1], Mat2.diag(zeta(8), zeta(8, 7))]
EPS = zeta(5)
ROOT5 = EPS + EPS ** 4 - EPS ** 2 - EPS ** 3
BI = [Mat2.diag(-EPS ** 3, -EPS ** 2),
      Mat2.of(-(EPS - EPS ** 4) / ROOT5, (EPS ** 2 - EPS ** 3) / ROOT5,
              (EPS ** 2 - EPS ** 3) / ROOT5, (EPS - EPS ** 4) / ROOT5)]
P = Mat2.of(1, 1, 0, 1)
C6_CONJUGATED = [P @ Mat2.diag(zeta(6), zeta(6, 5)) @ mat_inverse(P)]


@pytest.mark.parametrize("gens,order", [(BT, 24), (BO, 48), (C6_CONJUGATED, 6)])
def test_cycnum_group_table_matches_eigenvalues(gens, order):
    group = close_group(gens)
    assert len(group) == order and isinstance(group.form, MatForm)
    m, exps = _root_exponents([(g.det(), *eigenvalues(g)) for g in group])
    assert group.table == ElementTable(m, tuple(mat_shape(g) for g in group),
                                       tuple(det for det, *_ in exps),
                                       tuple(tuple(sorted(eig)) for _, *eig in exps))


@pytest.mark.parametrize("gens,form", [
    (BT, MatForm), (BO, MatForm), (BI, MatForm),
    ([matgroup.mat_d1(), mat_s(), mat_c(zeta(8))], monomial.ExpForm),  # Q7(4)
], ids=["BT", "BO", "BI", "Q7(4)"])
def test_groups_built_from_their_elements_read_like_closures(gens, form):
    """A copy and a pickle of a closure are built from its elements in
    integer form, its `form`, and read like the closure: the same form
    class, table, label and SL_2 part."""
    group = close_group(gens)
    for twin in (copy.copy(group), pickle.loads(pickle.dumps(group))):
        assert twin is not group and twin == group and isinstance(twin.form, form)
        assert twin.table == group.table
        assert classify(twin) == classify(group)
        assert sl2_part(twin).elements == sl2_part(group).elements


@pytest.mark.parametrize("gens", [BT, BO, C6_CONJUGATED])
def test_order_bound_covers_every_element_order(gens):
    group = close_group(gens)
    assert max(group.table.orders) <= _order_bound(group.conductor)


@pytest.mark.parametrize("gens", [BT, BO])
def test_cycnum_generated_subgroup_matches_close_group(gens):
    group = close_group(gens)
    indices = [i for i, g in enumerate(group) if g.det() == 1 and g.trace() == 0]
    sub = generated_subgroup(group, indices)
    ref = close_group([group.elements[i] for i in indices])
    assert [g.key(group.conductor) for g in sub] == \
        [g.key(group.conductor) for g in ref]
    assert sub.generators == ref.generators
    assert generated_subgroup(group, indices) == sub


@pytest.mark.parametrize("gens", [
    [matgroup.mat_d1(), mat_s(), mat_c(zeta(8))],  # Q7(4), in exponent form
    BT,                                            # in MatForm
])
def test_generated_subgroup_of_no_elements_is_trivial(gens):
    sub = generated_subgroup(close_group(gens), [])
    assert sub.elements == (Mat2.identity(),)
    assert sub.generators == ()
    assert classify(sub).order == 1


def _normalized_rows(table: ElementTable, indices):
    m = table.modulus
    return [(table.shapes[i], Fraction(table.dets[i], m),
             tuple(Fraction(k, m) for k in table.eigenvalues[i])) for i in indices]


@pytest.mark.parametrize("gens", [
    [matgroup.mat_d1(), mat_s(), mat_c(zeta(6))],  # Q7(3), in exponent form
    BT,                                            # det 1 throughout
    BT + [Mat2.diag(I, I)],                        # in MatForm, BT times <i>
])
def test_sl2_part_keeps_group_order_and_table_rows(gens):
    group = close_group(gens)
    keep = [i for i, g in enumerate(group) if g.det() == 1]
    sl2 = sl2_part(group)
    assert sl2.elements == sl2.generators == tuple(group.elements[i] for i in keep)
    assert sl2.conductor == group.conductor
    assert sl2._root is group and "form" not in vars(sl2)
    assert _normalized_rows(sl2.table, range(len(sl2))) == \
        _normalized_rows(group.table, keep)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["BT", "BO", "BI"]), st.data())
def test_cayley_subgroup_matches_products_reference(name, data):
    group = close_group({"BT": BT, "BO": BO, "BI": BI}[name])
    # few indices: each one costs |<S>| CycNum products in the reference
    indices = data.draw(st.lists(st.integers(0, len(group) - 1), max_size=4))
    sub = generated_subgroup(group, indices)
    expected = _close_by_products([group.elements[i] for i in indices],
                                  group.conductor, DEFAULT_CAP)
    assert _keys(sub, group.conductor) == _keys(expected, group.conductor)
    # the subgroup's orders are its closure's rows, and its own subgroups
    # close by the closure's index product
    assert sub.table.orders == tuple(group.table.orders[group.elements.index(g)]
                                     for g in sub)
    inner = data.draw(st.lists(st.integers(0, len(sub) - 1), max_size=2))
    expected = _close_by_products([sub.elements[i] for i in inner],
                                  group.conductor, DEFAULT_CAP)
    assert _keys(generated_subgroup(sub, inner), group.conductor) == \
        _keys(expected, group.conductor)


@st.composite
def finite_order_matrices(draw):
    """A diagonal or antidiagonal matrix with entries +-zeta_n^k, an
    antidiagonal [[0, q], [1/q, 0]] for rational q, or an element of BT, BO
    or BI conjugated by P = [[1, a], [b, 1 + ab]]."""
    kind = draw(st.sampled_from(["diagonal", "antidiagonal", "rational", "polyhedral"]))
    if kind == "rational":
        q = draw(st.fractions(-4, 4, max_denominator=5).filter(bool))
        return Mat2.of(0, q, 1 / q, 0)
    if kind == "polyhedral":
        group = close_group(draw(st.sampled_from([BT, BO, BI])))
        g = draw(st.sampled_from(group.elements))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        p = Mat2.of(1, a, b, 1 + a * b)
        return p @ g @ mat_inverse(p)
    n = draw(st.integers(1, 24))
    x, y = draw(roots(n)), draw(roots(n))
    return Mat2.diag(x, y) if kind == "diagonal" else Mat2.of(0, y, x, 0)


@settings(max_examples=60, deadline=None)
@given(finite_order_matrices())
def test_order_and_eigenvalues_match_products_reference(g):
    # Mat2.order reads a monomial matrix's exponent form and eigenvalues
    # proposes each eigenvalue from a float; the references walk CycNum
    # products and search the m-th roots of unity
    n = g.conductor()
    m = _order_by_products(g, n, _order_bound(n))
    assert g.order() == m
    assert eigenvalues(g) == tuple(zeta(m, k) for k in _eigen_exponents_by_search(g, m))


@pytest.mark.parametrize("gens,sl2_label", [(BT + [Mat2.diag(I, I)], "BT"), (BO, "BO"),
                                            (BI, "BI")], ids=["BTxiI", "BO", "BI"])
def test_cayley_subgroup_tables_are_the_closure_rows(gens, sl2_label, monkeypatch):
    """Classifying the SL_2 part and the bireflection subgroup of a closed
    non-monomial group reads the closure's table rows: no eigenvalue is read
    beyond the closure's own, one per element."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    calls = []
    read = matgroup._eigen_exponents
    monkeypatch.setattr(matgroup, "_eigen_exponents", lambda *a: calls.append(1) or read(*a))
    group = close_group(gens)
    group.table
    assert len(calls) == len(group)
    calls.clear()
    assert classify(sl2_part(group)).family == sl2_label
    sub = bireflection_subgroup(AlgebraCtx.down_up(0, 1), group)
    assert classify(sub).order == len(sub)
    assert not calls, len(calls)


@pytest.mark.parametrize("gens,budget", [(BT, 129), (BO, 251), (BI, 613)],
                         ids=["BT", "BO", "BI"])
def test_cold_report_matform_budget(gens, budget, monkeypatch):
    """A cold report on a binary polyhedral group reads its element table in
    one pass at |G|, with no cyclic closure per element: the only closures
    are the finite-order check of the non-monomial generator and the group's
    own, and reading the table of a closed group takes no product."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    products, closures = [], []
    mul, closure = MatForm.mul, MatForm.closure
    monkeypatch.setattr(MatForm, "mul", lambda *a: products.append(1) or mul(*a))
    monkeypatch.setattr(MatForm, "closure", lambda *a: closures.append(1) or closure(*a))
    theorem03_report(0, 1, gens)
    assert len(products) <= budget, len(products)
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    group = close_group(gens)
    products.clear()
    closures.clear()
    group.table
    assert not products and not closures


def test_cayley_subgroup_walk_budget(monkeypatch):
    """BO on A(0, 1) has 47 bireflections.  A closure with every one of them
    as a generator takes 48 x 47 = 2256 index products; the subgroup of a
    fresh BO closes in at most 400, its element table included."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    group = close_group(BO)
    calls = []
    product = MatGroup._product
    monkeypatch.setattr(MatGroup, "_product",
                        lambda *a: calls.append(1) or product(*a))
    sub = bireflection_subgroup(AlgebraCtx.down_up(0, 1), group)
    assert len(sub.generators) == 47 and len(sub) == len(group) == 48
    assert len(calls) <= 400, len(calls)


# ---------------------------------------------------------------------------
# the MatForm path: closures of non-monomial generators, and subgroups and
# element orders read on indices
# ---------------------------------------------------------------------------

RATIONALS = [Fraction(k) for k in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]


@st.composite
def conjugated_mat2_sets(draw):
    """A mat2_generator_sets draw, or the generators of BT, BO or BI,
    conjugated by P = [[1, a], [b, 1 + ab]] for random rationals a and b,
    which mostly takes it off the exponent form."""
    gens = draw(st.one_of(mat2_generator_sets(), st.sampled_from([BT, BO, BI])))
    a, b = draw(st.sampled_from(RATIONALS)), draw(st.sampled_from(RATIONALS))
    p = Mat2.of(1, a, b, 1 + a * b)
    return [p @ g @ mat_inverse(p) for g in gens]


@settings(max_examples=30, deadline=None)
@given(conjugated_mat2_sets(), st.data())
def test_cycnum_path_matches_products_reference(gens, data):
    cap = 120  # |BI|
    conductor = math.lcm(*(g.conductor() for g in gens))
    try:
        group = close_group(gens, cap=cap)
    except GroupTooLarge:
        with pytest.raises(GroupTooLarge):
            _close_by_products(gens, conductor, cap)
        return
    assume(isinstance(group.form, MatForm))
    ref = _close_by_products(gens, conductor, cap)
    assert _keys(group, conductor) == _keys(ref, conductor)

    table, orders = group.table, [_order_by_products(g, conductor, cap) for g in ref]
    assert table.orders == tuple(orders)
    for i, (g, order) in enumerate(zip(ref, orders)):
        assert table.shapes[i] == mat_shape(g)
        assert zeta(table.modulus, table.dets[i]) == g.det()
        step = table.modulus // order
        assert tuple(e // step for e in table.eigenvalues[i]) == \
            _eigen_exponents_by_search(g, order)

    indices = data.draw(st.lists(st.integers(0, len(group) - 1), min_size=1, max_size=3))
    sub = generated_subgroup(group, indices)
    expected = _close_by_products([ref[i] for i in indices], conductor, cap)
    assert _keys(sub, conductor) == _keys(expected, conductor)
    assert sub.table.orders == tuple(orders[ref.index(g)] for g in expected)

    ctx = AlgebraCtx.down_up(0, 1)
    flags = [is_bireflection_by_trace(ctx, g) for g in ref]
    expected = (_close_by_products([g for g, ok in zip(ref, flags) if ok], conductor, cap,
                                   size=len(ref))
                if any(flags) else (Mat2.identity(),))
    assert _keys(bireflection_subgroup(ctx, group), conductor) == _keys(expected, conductor)


def test_binary_icosahedral_report():
    report = theorem03_report(0, 1, BI)
    assert len(report.group) == 120 and isinstance(report.group.form, MatForm)
    assert report.label.family == "BI"
    assert report.bireflection_count == 119
    assert report.generated_by_bireflections
    assert report.cyclotomic


def test_repeated_membership_builds_no_element_keys(monkeypatch):
    """The group keeps its elements' keys: a test at a conductor dividing
    the group's builds only the key of the matrix under test; any other
    conductor reads the determinant and compares only with the elements
    of that determinant."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    group = close_group(BI)
    calls = []
    key = Mat2.key
    monkeypatch.setattr(Mat2, "key", lambda m, n: calls.append(m) or key(m, n))
    g = group.elements[7]
    assert g in group and len(calls) == len(group) + 1
    for _ in range(5):
        assert g in group and mat_s() not in group
    assert len(calls) == len(group) + 11
    assert Mat2.diag(zeta(7), 1) not in group
    assert Mat2.of(1, 0, 0, zeta(7) ** 7) in group


@pytest.mark.parametrize("gens,first,second", [
    ([mat_s(), mat_c(zeta(3))], (3, -1), (1, 1)),  # Q6(3): antidiagonal
    (BT, (0, 1), (3, -1)),                          # BT: neither shape
    (BT, (2, -1), (1, 1)),                          # BT under a diagonal-only algebra
    ([mat_s1(), mat_c(zeta(4))], (3, -1), (Fraction(1, 2), 2)),  # Q5(2), non-integral alpha
])
def test_cached_group_still_checks_shapes(gens, first, second):
    """Neither a cached group nor a memoized algebra skips the shape check:
    the second algebra's context is memoized by a report on a diagonal
    group before the group is reported on under it."""
    seen = theorem03_report(*second, [mat_d1()]).ctx
    theorem03_report(*first, gens)
    with pytest.raises(NotAnAutomorphism):
        theorem03_report(*second, gens)
    assert AlgebraCtx.down_up(*second) is seen


def test_cycnum_closure_cap_is_exact():
    with pytest.raises(GroupTooLarge):
        close_group(BT, cap=23)
    assert len(close_group(BT, cap=24)) == 24


def test_sl2z_pair_exceeds_the_cap(monkeypatch):
    # Both generators have finite order, 4 and 6, but they generate SL_2(Z).
    gens = [Mat2.of(0, -1, 1, 0), Mat2.of(0, -1, 1, 1)]
    with pytest.raises(GroupTooLarge):
        close_group(gens, cap=200)
    # No finite subgroup of GL_2(Q) has more than 120 elements, so the
    # closure stops at its 121st: at most two products per element found,
    # after at most _order_bound(1) products per generator to check its order.
    assert [_group_order_bound(n) for n in (1, 4, 8)] == [120, 240, 900]
    calls = []
    mul = MatForm.mul
    monkeypatch.setattr(MatForm, "mul", lambda *a: calls.append(1) or mul(*a))
    with pytest.raises(GroupTooLarge, match="exceeded 120 elements"):
        close_group(gens)
    assert len(calls) <= 2 * 120 + 2 * _order_bound(1)


@pytest.mark.parametrize("gens,alpha,beta", [(BT, 0, 1), (BO, 2, -1)])
def test_report_matrix_product_budget(gens, alpha, beta, monkeypatch):
    """A report multiplies no CycNum matrices: the closure, the generators'
    orders and the element orders are all MatForm products."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    calls = []
    matmul = Mat2.__matmul__
    monkeypatch.setattr(Mat2, "__matmul__", lambda x, y: calls.append(1) or matmul(x, y))
    report = theorem03_report(alpha, beta, gens)
    assert len(report.group) == {"BT": 24, "BO": 48}[report.label.family]
    assert calls == []
