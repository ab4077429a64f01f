"""Trace series, Molien averages, homological determinants, bireflections."""
from collections import Counter
from fractions import Fraction

import pytest

from duinv import invariants, matgroup, monomial
from duinv.cycnum import CycNum, zeta
from duinv.errors import (BireflectionMismatch, NonMonomialMatrix,
                          NonNormalizableDenominator, NonRationalCollapse,
                          NotAnAutomorphism, UnsupportedAutomorphism)
from duinv.intpoly import IntPoly, one_minus_t_pow, x_pow
from duinv.invariants import (AlgebraCtx, AutShape, _average_inverse_products,
                              bireflection_subgroup, downup_trace, generated_by_bireflections,
                              hdet_from_trace, hdet_matrix, hypersurface_trace,
                              is_bireflection, molien, normal_sequence_trace,
                              plane_trace, polyring_molien, theorem03_report,
                              TraceForm, trace_form)
from duinv.matgroup import (Mat2, MatGroup, close_group, mat_c, mat_d1, mat_s,
                            mat_s1, standard_group)
from duinv.ratfunc import RatFunc

from _oracles import Monomial, _monomial_eigenvalues, close_monomial_group, trace_to_ratfunc


def _omt(k):
    return one_minus_t_pow(k)


# ---------------------------------------------------------------------------
# contexts and automorphism shapes
# ---------------------------------------------------------------------------

def test_aut_shapes():
    assert AlgebraCtx.down_up(0, 1).aut_shape is AutShape.FULL_GL2
    assert AlgebraCtx.down_up(2, -1).aut_shape is AutShape.FULL_GL2
    assert AlgebraCtx.down_up(3, -1).aut_shape is AutShape.U
    assert AlgebraCtx.down_up(1, 1).aut_shape is AutShape.O
    with pytest.raises(ValueError):
        AlgebraCtx.down_up(1, 0)


def test_down_up_contexts_are_memoized_as_passed(monkeypatch):
    monkeypatch.setattr(invariants, "_down_up_cache", {})
    ctx = AlgebraCtx.down_up(3, -1)
    assert AlgebraCtx.down_up(3, -1) is ctx
    assert AlgebraCtx.down_up(Fraction(3), Fraction(-1)) is ctx  # an equal key
    other = AlgebraCtx.down_up("3", "-1")  # another key, an equal context
    assert other is not ctx and other == ctx
    assert len(invariants._down_up_cache) == 2


def test_down_up_context_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(invariants, "_down_up_cache", {})
    first = AlgebraCtx.down_up(0, 1)
    for alpha in range(1, matgroup._CACHE_SIZE + 10):  # one entry per alpha
        AlgebraCtx.down_up(alpha, 1)
    assert len(invariants._down_up_cache) == matgroup._CACHE_SIZE
    again = AlgebraCtx.down_up(0, 1)  # evicted, so built anew
    assert again is not first and again == first


def test_beta_zero_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(invariants, "_down_up_cache", {})
    for beta in (0, 0, Fraction(0), "0", 0.0, 0):
        with pytest.raises(ValueError, match="beta != 0"):
            AlgebraCtx.down_up(1, beta)
        with pytest.raises(ValueError, match="beta != 0"):
            theorem03_report(1, beta, [mat_d1()])
    assert invariants._down_up_cache == {}


def test_check_automorphism():
    o_ctx = AlgebraCtx.down_up(1, 1)
    o_ctx.check_shapes([mat_c(zeta(5)).shape()])
    with pytest.raises(NotAnAutomorphism):
        o_ctx.check_shapes([mat_s().shape()])
    u_ctx = AlgebraCtx.down_up(3, -1)
    u_ctx.check_shapes([mat_s().shape()])
    with pytest.raises(NotAnAutomorphism):
        u_ctx.check_shapes([Mat2.of(1, 1, 0, 1).shape()])
    AlgebraCtx.down_up(0, 1).check_shapes([Mat2.of(1, 1, 0, 1).shape()])
    with pytest.raises(NotAnAutomorphism):  # downup_trace checks the one matrix
        downup_trace(o_ctx, mat_s())


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_identity_trace_is_hilbert_series():
    ctx = AlgebraCtx.down_up(1, 1)
    tr = downup_trace(ctx, Mat2.identity())
    assert trace_to_ratfunc(tr) == RatFunc.make(IntPoly((1,)), _omt(1) ** 2 * _omt(2))


def test_downup_trace_eigen_factors():
    ctx = AlgebraCtx.down_up(0, 1)
    degrees = sorted(d for d, _ in downup_trace(ctx, Mat2.diag(zeta(3), zeta(5))).den_factors)
    assert degrees == [1, 1, 2]
    # a determinant-one element collapses to a rational trace
    tr = downup_trace(ctx, mat_c(zeta(3)))
    assert trace_to_ratfunc(tr) == RatFunc.make(
        IntPoly((1,)), IntPoly((1, 1, 1)) * _omt(2))


def test_plane_trace_restrictions():
    skew = AlgebraCtx.skew_plane(zeta(4))
    plane_trace(skew, Mat2.diag(2, 3))
    with pytest.raises(UnsupportedAutomorphism):
        plane_trace(skew, mat_s())
    jordan = AlgebraCtx.jordan_plane()
    plane_trace(jordan, Mat2.diag(-1, -1))
    with pytest.raises(UnsupportedAutomorphism):
        plane_trace(jordan, Mat2.diag(1, -1))


def test_trace_laurent_and_pole():
    tr = normal_sequence_trace([(1, 1), (2, -1)])
    assert tr.pole_order_at_one() == 1
    exp, coeff = tr.laurent_leading_at_infinity()
    assert exp == -3 and coeff == CycNum.from_rat(-1)
    hyp = hypersurface_trace([(2, 1), (2, 1), (2, -1)], (4, 1))
    assert hyp.pole_order_at_one() == 2 - 1 + 0  # two unit poles, one unit zero...
    assert hyp.pole_order_at_one() == 1


@pytest.mark.parametrize("build, error", [
    (lambda: normal_sequence_trace([(2.5, 1)]), TypeError),
    (lambda: hypersurface_trace([(1, 1)], (2.7, 1)), TypeError),
    (lambda: normal_sequence_trace([(0, 1)]), ValueError),
    (lambda: normal_sequence_trace([(1, 1), (-1, 1)]), ValueError),
    (lambda: hypersurface_trace([(1, 1)], (0, 1)), ValueError),
])
def test_trace_degrees_are_positive_ints(build, error):
    # an int() reading made degree 2 of 2.5 and 2.7, and accepted 0
    with pytest.raises(error):
        build()


def test_molien_of_a_non_group_raises_typed_errors():
    # one element zeta_3: 1 + zeta_3 t + zeta_3^2 t^2 times 1/(1 - t^3)
    with pytest.raises(NonRationalCollapse, match=r"^Molien coefficient of t\^1 is irrational$"):
        _average_inverse_products((1,), 3, [(1,)])
    # {1, 1, -1}: (3 + t) / 3 over 1 - t^2 has no integer numerator
    with pytest.raises(NonNormalizableDenominator):
        _average_inverse_products((1,), 2, [(0,), (0,), (1,)])


# ---------------------------------------------------------------------------
# homological determinants
# ---------------------------------------------------------------------------

def test_hdet_matrix():
    assert hdet_matrix(mat_s()) == 1        # det -1 squares to 1
    assert hdet_matrix(mat_c(zeta(7))) == 1
    g = Mat2.diag(zeta(3), 1)
    assert hdet_matrix(g) == zeta(3, 2)


def test_hdet_from_trace_matches_matrix_formula():
    """For the down-up trace 1/((1-at)(1-bt)(1-abt^2)) the value at infinity
    gives hdet = (ab)^2 = det^2, with injective dimension 3."""
    ctx = AlgebraCtx.down_up(1, 1)
    for g in (Mat2.diag(zeta(3), zeta(4)), Mat2.diag(-1, zeta(5)), mat_c(zeta(8))):
        tr = downup_trace(ctx, g)
        res = hdet_from_trace(tr, 3)
        assert res.value == hdet_matrix(g)


def test_hdet_sign_involution_on_plane():
    tr = normal_sequence_trace([(1, 1), (1, -1)])
    assert hdet_from_trace(tr, 2).value == CycNum.from_rat(-1)


# ---------------------------------------------------------------------------
# Molien averages
# ---------------------------------------------------------------------------

def test_molien_trivial_group():
    ctx = AlgebraCtx.down_up(1, 1)
    series = molien(ctx, close_group([Mat2.identity()]))
    assert series == RatFunc.make(IntPoly((1,)), _omt(1) ** 2 * _omt(2))


def test_molien_sign_action():
    ctx = AlgebraCtx.down_up(1, 1)
    series = molien(ctx, close_group([Mat2.diag(-1, -1)]))
    # invariants of -I: even part of the algebra
    full = RatFunc.make(IntPoly((1,)), _omt(1) ** 2 * _omt(2))
    twisted = RatFunc.make(IntPoly((1,)), IntPoly((1, 1)) ** 2 * _omt(2))
    assert series == (full + twisted).scale(Fraction(1, 2))


def test_molien_matches_average_of_traces():
    ctx = AlgebraCtx.down_up(0, 1)
    group = close_group([mat_s1()])
    series = molien(ctx, group)
    total = RatFunc.make(IntPoly(), IntPoly((1,)))
    for g in group:
        total = total + trace_to_ratfunc(downup_trace(ctx, g))
    assert series == total.scale(Fraction(1, len(group)))


def test_molien_first_coefficient_is_one():
    ctx = AlgebraCtx.down_up(1, 1)
    for gens in ([mat_c(zeta(6))], [mat_d1(), mat_c(zeta(4))]):
        series = molien(ctx, close_group(gens))
        assert series.series_coeffs(1) == [Fraction(1)]


# ---------------------------------------------------------------------------
# bireflections
# ---------------------------------------------------------------------------

def test_quasi_reflection_on_downup():
    ctx = AlgebraCtx.down_up(1, 1)
    # pole order gkdim - 1 = 2 never happens for non-identity down-up actions
    for g in (mat_d1(), Mat2.diag(-1, -1), mat_c(zeta(5))):
        assert trace_form(ctx, g).pole_order_at_one() != ctx.gkdim - 1


def test_bireflections_on_downup():
    ctx = AlgebraCtx.down_up(1, 1)
    assert is_bireflection(ctx, mat_c(zeta(5)))      # det 1
    assert is_bireflection(ctx, Mat2.diag(-1, 1))    # eigenvalue 1
    assert is_bireflection(ctx, Mat2.diag(-1, -1))   # -I has det 1
    assert not is_bireflection(ctx, Mat2.diag(-1, zeta(3)))
    assert not is_bireflection(ctx, Mat2.identity())


def test_bireflection_subgroup_q4():
    ctx = AlgebraCtx.down_up(1, 1)
    from duinv.matgroup import standard_group
    group = standard_group(4, 2)
    sub = bireflection_subgroup(ctx, group)
    assert len(group) == 2 * len(sub)
    assert not generated_by_bireflections(ctx, group)
    assert generated_by_bireflections(ctx, standard_group(1, 7))


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_report_q1():
    report = theorem03_report(1, 1, [mat_c(zeta(3))])
    assert report.label.family == "Q1"
    assert report.hdet_trivial
    assert report.gorenstein_by_stanley
    assert report.cyclotomic
    assert report.condition_c2 and report.condition_c3 and report.consistent
    n = 3
    assert report.hilbert_series == RatFunc.make(
        _omt(2 * n), _omt(n) ** 2 * _omt(2) ** 2)


def test_report_rejects_bad_shape():
    with pytest.raises(NotAnAutomorphism):
        theorem03_report(1, 2, [mat_s()])


def test_report_q4_noncyclotomic():
    report = theorem03_report(1, 1, [Mat2.diag(-zeta(4), zeta(4, 3))])
    assert report.label.family == "Q4"
    assert not report.cyclotomic
    assert report.noncyclotomic_witness is not None
    assert not report.generated_by_bireflections
    assert report.consistent


def test_failed_report_keeps_no_facts(monkeypatch):
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    gens = [mat_d1(), mat_c(zeta(4))]

    def mismatch(*args):
        raise BireflectionMismatch("forced")

    with monkeypatch.context() as patch:
        patch.setattr(invariants, "_bireflection_flags", mismatch)
        for _ in range(2):  # the second call must not find facts of the first
            with pytest.raises(BireflectionMismatch):
                theorem03_report(1, 1, gens)
    assert theorem03_report(1, 1, gens).bireflection_count == 5


def test_report_on_a_cached_group_does_no_group_work(monkeypatch):
    """After one report on a group, a report on another down-up algebra only
    checks the matrix shapes: it neither averages, classifies nor factors,
    and multiplies no CycNum.  Under an algebra already seen it builds no
    AlgebraCtx either."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    monkeypatch.setattr(invariants, "_down_up_cache", {})
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.update([name]) or fn(*a, **k))

    names = ("molien", "classify", "is_cyclotomic_product",
             "stanley_gorenstein_test", "generated_subgroup")
    for name in names:
        count(invariants, name)
    count(Mat2, "conductor")  # read only by a cold closure, for its conductor check
    q7 = [mat_d1(), mat_s(), mat_c(zeta(16))]
    theorem03_report(3, -1, q7)
    assert set(calls) == {*names, "conductor"}  # the counters see the first report
    calls.clear()
    theorem03_report(2, -1, q7)
    theorem03_report(0, 1, q7)
    assert not calls, calls
    # Under an algebra it has already seen, a report builds no AlgebraCtx.
    count(AlgebraCtx, "__init__")
    theorem03_report(Fraction(1, 3), -1, q7)
    assert calls == Counter({"__init__": 1})  # the counter sees a new algebra
    calls.clear()
    for alpha, beta in ((3, -1), (2, -1), (0, 1), (Fraction(1, 3), -1)):
        theorem03_report(alpha, beta, q7)
    assert not calls, calls


def test_report_on_a_cached_group_promotes_nothing(monkeypatch):
    """A report on a cached group builds its closure-cache key from the
    generator entries as written: no CycNum is promoted to another
    conductor."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    cold, warm = ([mat_d1(), mat_s(), mat_c(zeta(16))] for _ in range(2))
    calls = []
    promoted, conductor = CycNum.promoted, Mat2.conductor
    monkeypatch.setattr(CycNum, "promoted",
                        lambda self, m: calls.append(m) or promoted(self, m))
    # read only by a cold closure, for its conductor check
    monkeypatch.setattr(Mat2, "conductor",
                        lambda self: calls.append("conductor") or conductor(self))
    theorem03_report(3, -1, cold)
    assert "conductor" in calls  # the counters see the first report
    calls.clear()
    theorem03_report(2, -1, warm)
    theorem03_report(0, 1, warm)
    assert not calls, calls


@pytest.mark.parametrize("family", [1, 7, 8])
def test_cold_report_builds_no_matrix(family, monkeypatch):
    """A cold report on an exponent-form group reads its integer form only:
    it constructs no Mat2 and never turns the exponent form back into
    CycNum scalars."""
    gens = standard_group(family, 8).generators
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    monkeypatch.setattr(invariants, "_molien_cache", {})
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.update([name]) or fn(*a))

    count(Mat2, "__init__")
    count(monomial.ExpForm, "monomials")
    report = theorem03_report(3, -1, gens)
    assert len(report.group) == (8 if family == 1 else 64) and report.bireflection_count
    assert not calls, calls


@pytest.mark.parametrize("family,alpha,beta", [(7, 3, -1), (8, 0, 1)])
def test_bireflection_subgroup_product_budget(family, alpha, beta, monkeypatch):
    """Q7(8) and Q8(8) have 49 and 47 bireflections.  The subgroup they
    generate closes in at most 600 exponent-form products, where one
    closure with every bireflection as a generator takes 3136 and 3008."""
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    group = standard_group(family, 8)
    calls = []
    mul = monomial.mul
    monkeypatch.setattr(monomial, "mul", lambda *a, **k: calls.append(1) or mul(*a, **k))
    sub = bireflection_subgroup(AlgebraCtx.down_up(alpha, beta), group)
    assert len(sub) == len(group) == 64
    assert len(calls) <= 600, len(calls)


# ---------------------------------------------------------------------------
# monomial matrices
# ---------------------------------------------------------------------------

def test_monomial_from_rows():
    one, zero = CycNum.one(), CycNum.zero()
    assert monomial.from_rows([[zero, one], [one, zero]]) == ((1, 0), (one, one))
    assert monomial.from_rows([[one, one], [zero, one]]) is None
    assert polyring_molien([[[0, 1], [1, 0]]]) == RatFunc.make(IntPoly((1,)), _omt(1) * _omt(2))
    with pytest.raises(NonMonomialMatrix):
        polyring_molien([[[1, 1], [0, 1]]])


@pytest.mark.parametrize("rows", [
    [[0, 0], [1, 1]],
    [[0, 0], [-1, 1]],
    [[1, 1, 0], [0, 0, 1], [0, 0, 0]],
], ids=["2x2", "2x2-signed", "3x3"])
def test_polyring_molien_refuses_singular_rows(rows):
    # One nonzero entry in every column, but two of them in one row: the
    # matrix is singular, not monomial.
    with pytest.raises(NonMonomialMatrix):
        polyring_molien([rows])


def test_monomial_eigenvalues_swap():
    m = Monomial.of_rows([[0, 1], [1, 0]])
    vals = set(_monomial_eigenvalues(m))
    assert vals == {CycNum.one(), CycNum.from_rat(-1)}


def test_monomial_closure_dedups_conductors():
    gens = [Monomial.diag([zeta(3), zeta(3, 2), 1]),
            Monomial.diag([-CycNum.one(), CycNum.one(), -CycNum.one()])]
    assert len(close_monomial_group(gens)) == 6


def test_polyring_molien_cyclic():
    # C_2 acting by sign on 2 variables
    series = polyring_molien([[[-1, 0], [0, -1]]])
    assert series == RatFunc.make(IntPoly((1, 0, 1)), _omt(2) ** 2)
    assert series.series_coeffs(5) == [Fraction(x) for x in (1, 0, 3, 0, 5)]


def _count_closures(monkeypatch) -> list:
    """A list that records every later call of ExpForm.closure, which then
    closes nothing."""
    closures = []
    monkeypatch.setattr(monomial.ExpForm, "closure", lambda *args: closures.append(args))
    return closures


def test_polyring_molien_weighted_guard(monkeypatch):
    closures = _count_closures(monkeypatch)
    swap = [[0, 1], [1, 0]]
    # With diag(zeta_200, 1) the swap generates a finite group of order
    # 80 000, beyond the cap: the weights are checked before any closure.
    for gens in ([swap], [swap, [[zeta(200), 0], [0, 1]]],
                 [swap, [[zeta(3), 0], [0, 1]]]):
        with pytest.raises(NotAnAutomorphism):
            polyring_molien(gens, weights=(1, 2))
    with pytest.raises(NotAnAutomorphism):  # x <-> y, of weights 1 and 2
        polyring_molien([[[0, 1, 0], [1, 0, 0], [0, 0, 1]]], weights=(1, 2, 2))
    assert closures == []


@pytest.mark.parametrize("swap,weights,degrees", [
    ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], (1, 1, 2), (1, 2, 2)),  # k[x + y, xy, z]
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], (2, 1, 2), (1, 2, 4)),  # k[y, x + z, xz]
])
def test_polyring_molien_weight_preserving_swap(swap, weights, degrees):
    expected = RatFunc.make(IntPoly((1,)), _omt(degrees[0]) * _omt(degrees[1]) * _omt(degrees[2]))
    assert polyring_molien([swap], weights=weights) == expected


@pytest.mark.parametrize("degree", [0, -1])
def test_trace_factor_degrees_must_be_positive(degree):
    with pytest.raises(ValueError, match="degrees must be positive"):
        trace_to_ratfunc(normal_sequence_trace([(1, 1), (degree, 2)]))


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 1, 1), (0, 1, 1), (-1, 1, 1),
                                     (1.5, 1, 1)])
def test_polyring_molien_rejects_bad_weights(weights, monkeypatch):
    closures = _count_closures(monkeypatch)
    with pytest.raises(ValueError, match="weights must be 3 positive integers"):
        polyring_molien([[[zeta(3), 0, 0], [0, 1, 0], [0, 0, 1]]], weights=weights)
    assert closures == []


TWO, THREE = [[-1, 0], [0, 1]], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("gens,error", [
    ([TWO, THREE], ValueError),
    ([THREE, TWO], ValueError),
    ([[[0, 1], [1]]], NonMonomialMatrix),
    ([[[1, 0], [0, 1], [0, 0]]], NonMonomialMatrix),
], ids=["2-then-3", "3-then-2", "short-row", "three-rows-of-two"])
def test_polyring_molien_rejects_ragged_generators(gens, error, monkeypatch):
    closures = _count_closures(monkeypatch)
    with pytest.raises(error):
        polyring_molien(gens)
    assert closures == []


@pytest.mark.parametrize("fn", [close_monomial_group, polyring_molien])
def test_monomial_groups_need_a_generator(fn):
    with pytest.raises(ValueError, match="need at least one generator"):
        fn([])


def test_polyring_molien_symmetric_group_s3():
    gens = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]
    series = polyring_molien(gens)
    expected = RatFunc.make(IntPoly((1,)), _omt(1) * _omt(2) * _omt(3))
    assert series == expected  # elementary symmetric polynomial degrees


def test_bireflection_mismatch_is_a_typed_error(monkeypatch):
    # diag(-1, zeta_3) is not a bireflection; claim its trace series has a
    # pole of order gkdim - 1 = 2 at t = 1 so the trace-side criterion says
    # it is one, while its determinant and eigenvalues say it is not.
    g = Mat2.diag(-1, zeta(3))
    ctx = AlgebraCtx.down_up(1, 1)
    assert not is_bireflection(ctx, g)
    monkeypatch.setattr(TraceForm, "pole_order_at_one", lambda self: ctx.gkdim - 1)
    with pytest.raises(BireflectionMismatch):
        is_bireflection(ctx, g)


def test_bireflection_mismatch_in_element_table(monkeypatch):
    group = close_group([Mat2.diag(-1, zeta(3))])
    ctx = AlgebraCtx.down_up(1, 1)
    assert len(bireflection_subgroup(ctx, group)) == len(group) == 6
    # claim every determinant is 1
    table = group.table._replace(dets=(0,) * len(group))
    monkeypatch.setattr(MatGroup, "table", property(lambda self: table))
    with pytest.raises(BireflectionMismatch):
        bireflection_subgroup(ctx, group)


def test_molien_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(invariants, "_molien_cache", {})
    first = invariants._average_inverse_products((1,), 1, [(0,)])
    for count in range(2, matgroup._CACHE_SIZE + 10):  # one entry per count
        invariants._average_inverse_products((1,), 1, [(0,)] * count)
    assert len(invariants._molien_cache) == matgroup._CACHE_SIZE
    again = invariants._average_inverse_products((1,), 1, [(0,)])  # evicted
    assert again is not first and again == first
