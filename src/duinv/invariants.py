"""
Trace series, Molien averages, homological determinants and bireflection
structure for finite group actions on graded down-up algebras, quantum and
Jordan planes, and (for auxiliary checks) weighted polynomial rings.

The down-up algebra A(alpha, beta) with generators in degree 1 has Hilbert
series 1/((1-t)^2 (1-t^2)); a graded automorphism given by a 2x2 matrix with
eigenvalues lambda, mu has trace series

    1 / ((1 - lambda t)(1 - mu t)(1 - lambda mu t^2))

and homological determinant det(g)^2.  Molien averages of such traces over a
finite group are computed exactly with a common-denominator expansion: every
factor (1 - lambda t^d) with lambda^M = 1 satisfies

    (1 - t^(dM)) / (1 - lambda t^d) = sum_j lambda^j t^(dj),

so each element contributes an integer combination of powers of zeta_M, which
is accumulated in the group ring Z[C_M] (a vector of integer coefficients
indexed by the exponent) and only reduced and rationality-checked at the end.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
import typing
from collections import Counter
from fractions import Fraction

from . import monomial
from ._record import Record
from .cycnum import CycNum
from .errors import (BireflectionMismatch, GroupTooLarge,
                     InfiniteOrderSuspected, NonMonomialMatrix,
                     NonNormalizableDenominator, NonRationalCollapse,
                     NotAnAutomorphism, UnsupportedAutomorphism, ZeroFunction)
from .intpoly import IntPoly, is_cyclotomic_product, one_minus_t_pows
from .matgroup import (DEFAULT_CAP, Mat2, MatGroup, close_group, classify,
                       eigenvalues, generated_subgroup, remember)
from .ratfunc import RatFunc, stanley_gorenstein_test


class AutShape(enum.Enum):
    """Which matrices act on a given down-up algebra as graded automorphisms."""

    FULL_GL2 = "full_gl2"
    U = "diag_or_antidiag"
    O = "diag_only"


_down_up_cache: dict = {}  # AlgebraCtx.down_up by (alpha, beta) as passed; see remember


class AlgebraCtx(Record):
    """A graded algebra a 2x2 (or monomial) matrix group can act on.
    Immutable; equal contexts hash equal."""

    _fields = ("kind", "alpha", "beta", "q")
    kind: str  # "down_up" | "skew_plane" | "jordan_plane"
    alpha: Fraction | None
    beta: Fraction | None
    q: CycNum | None

    def __init__(self, kind: str, alpha: Fraction | None = None,
                 beta: Fraction | None = None, q: CycNum | None = None):
        # The instance dict, where cached_property also stores its value,
        # because __setattr__ refuses.
        vars(self).update(kind=kind, alpha=alpha, beta=beta, q=q)

    @staticmethod
    def down_up(alpha, beta) -> "AlgebraCtx":
        """A(alpha, beta), memoized by (alpha, beta) as passed, so that a
        repeated algebra keeps its allowed-shape set; beta = 0 raises
        ValueError and is never stored."""
        ctx = _down_up_cache.get((alpha, beta))
        if ctx is None:
            exact_beta = Fraction(beta)
            if exact_beta == 0:
                raise ValueError("down-up algebra requires beta != 0")
            ctx = remember(_down_up_cache, (alpha, beta), AlgebraCtx(
                "down_up", alpha=Fraction(alpha), beta=exact_beta))
        return ctx

    @staticmethod
    def skew_plane(q: CycNum) -> "AlgebraCtx":
        return AlgebraCtx("skew_plane", q=q)

    @staticmethod
    def jordan_plane() -> "AlgebraCtx":
        return AlgebraCtx("jordan_plane")

    @property
    def gkdim(self) -> int:
        return 3 if self.kind == "down_up" else 2

    @property
    def aut_shape(self) -> AutShape:
        if self.kind != "down_up":
            raise ValueError("aut_shape is defined for down-up algebras")
        if (self.alpha, self.beta) in ((0, 1), (2, -1)):
            return AutShape.FULL_GL2
        if self.beta == -1 and self.alpha != 2:
            return AutShape.U
        return AutShape.O

    def check_shapes(self, shapes) -> None:
        """Raise NotAnAutomorphism unless matrices of every given shape (see
        Mat2.shape) act on this algebra."""
        if self.kind == "down_up" and not self._allowed_shapes.issuperset(shapes):
            raise NotAnAutomorphism(
                f"matrix shape not allowed for down-up({self.alpha}, {self.beta})")
        # The plane/polynomial contexts accept anything here; expansion of the
        # trace may still refuse shapes it cannot diagonalize.

    @functools.cached_property
    def _allowed_shapes(self) -> frozenset[str]:
        return frozenset({AutShape.FULL_GL2: ("diagonal", "antidiagonal", "other"),
                          AutShape.U: ("diagonal", "antidiagonal"),
                          AutShape.O: ("diagonal",)}[self.aut_shape])


# ---------------------------------------------------------------------------
# trace series in factored form
# ---------------------------------------------------------------------------

class TraceForm(typing.NamedTuple):
    """
    A trace series prod(1 - lam t^d) [numerator] / prod(1 - lam t^d)
    [denominator], with cyclotomic scalars.  Factors are (degree, scalar).
    """

    den_factors: tuple[tuple[int, CycNum], ...]
    num_factors: tuple[tuple[int, CycNum], ...] = ()

    def pole_order_at_one(self) -> int:
        """Each factor 1 - lam t^d has a simple zero at t=1 iff lam == 1."""
        den = sum(1 for _, lam in self.den_factors if lam == 1)
        num = sum(1 for _, lam in self.num_factors if lam == 1)
        return den - num

    def laurent_leading_at_infinity(self) -> tuple[int, CycNum]:
        exponent = (sum(d for d, _ in self.num_factors)
                    - sum(d for d, _ in self.den_factors))
        coeff = CycNum.one()
        for _, lam in self.num_factors:
            coeff = coeff * (-lam)
        for _, lam in self.den_factors:
            coeff = coeff / (-lam)
        if coeff.is_zero():
            raise ZeroFunction("trace has a zero factor")
        return exponent, coeff


def downup_trace(ctx: AlgebraCtx, g: Mat2) -> TraceForm:
    """Trace series of g acting on a down-up algebra."""
    if ctx.kind != "down_up":
        raise ValueError("downup_trace requires a down-up context")
    ctx.check_shapes([g.shape()])
    lam, mu = eigenvalues(g)
    return TraceForm(((1, lam), (1, mu), (2, lam * mu)))


def plane_trace(ctx: AlgebraCtx, g: Mat2) -> TraceForm:
    """Trace series of g on a quantum plane (diagonal g) or Jordan plane
    (scalar g)."""
    if ctx.kind == "skew_plane":
        if not g.is_diagonal():
            raise UnsupportedAutomorphism("quantum plane traces need diagonal matrices")
        return TraceForm(((1, g.a), (1, g.d)))
    if ctx.kind == "jordan_plane":
        if not (g.is_diagonal() and g.a == g.d):
            raise UnsupportedAutomorphism("Jordan plane traces need scalar matrices")
        return TraceForm(((1, g.a), (1, g.a)))
    raise ValueError("plane_trace requires a plane context")


def normal_sequence_trace(steps) -> TraceForm:
    """
    Trace of an automorphism acting by scalar lam_i on the i-th member of a
    regular normal sequence of degrees d_i: 1 / prod (1 - lam_i t^(d_i)).
    `steps` is a sequence of (degree, scalar) pairs; a degree must be an int
    (TypeError otherwise, as for a float) and at least 1, and a scalar
    nonzero (ValueError).
    """
    return TraceForm(tuple(_factor(d, lam) for d, lam in steps))


def hypersurface_trace(steps, relation) -> TraceForm:
    """
    Trace on a graded hypersurface: generators as in normal_sequence_trace,
    with one relation of degree d scaled by lam, contributing the numerator
    factor (1 - lam t^d).  `relation` is a (degree, scalar) pair, checked as
    the steps are.
    """
    return TraceForm(tuple(_factor(d, lam) for d, lam in steps),
                     (_factor(*relation),))


def _factor(d, lam) -> tuple[int, CycNum]:
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"factor degrees must be positive, got {d}")
    lam = _cyc(lam)
    if lam.is_zero():
        raise ValueError("factor scalars must be nonzero")
    return d, lam


def _cyc(x) -> CycNum:
    return x if isinstance(x, CycNum) else CycNum.from_rat(x)


# ---------------------------------------------------------------------------
# homological determinant
# ---------------------------------------------------------------------------

class HdetResult(typing.NamedTuple):
    value: CycNum
    laurent_exponent: int


def hdet_matrix(g: Mat2) -> CycNum:
    """Homological determinant of g on a down-up algebra: det(g)^2."""
    d = g.det()
    return d * d


def hdet_from_trace(tr: TraceForm, injective_dim: int) -> HdetResult:
    """
    Read the homological determinant off the trace series: at infinity,
    Tr(g, t) = (-1)^d * hdet(g)^-1 * t^l + lower order terms.
    """
    exponent, coeff = tr.laurent_leading_at_infinity()
    sign = CycNum.from_rat((-1) ** injective_dim)
    return HdetResult(sign / coeff, exponent)


# ---------------------------------------------------------------------------
# exact Molien averages
# ---------------------------------------------------------------------------

_molien_cache: dict = {}


def _average_inverse_products(shape: tuple[int, ...], modulus: int,
                              exponent_lists) -> RatFunc:
    """
    Average of 1 / prod_i (1 - lam_i t^(d_i)) over the given tuples of
    scalars lam_i = zeta_modulus^e_i, each tuple given by its exponents e_i,
    as an exact rational function.  Results must have rational coefficients
    (NonRationalCollapse otherwise).
    """
    # Work at M, the lcm of the orders of all the scalars.
    big_m = math.lcm(*(modulus // math.gcd(modulus, e)
                       for exps in exponent_lists for e in exps))
    step = modulus // big_m
    tuples = Counter(tuple(e // step for e in exps) for exps in exponent_lists)
    key = (shape, big_m, tuple(sorted(tuples.items())))
    if key in _molien_cache:
        return _molien_cache[key]

    import numpy as np
    count = sum(tuples.values())
    num_deg = sum(d for d in shape) * (big_m - 1)
    # Coefficients live in Z[C_M]; entries stay far below 2^63 because each
    # element contributes at most M^(len(shape)) unit terms.
    total = np.zeros((num_deg + 1, big_m), dtype=np.int64)
    for exps, mult in tuples.items():
        cur = np.zeros((1, big_m), dtype=np.int64)
        cur[0, 0] = 1
        for d, e in zip(shape, exps):
            grown = np.zeros((cur.shape[0] + d * (big_m - 1), big_m), dtype=np.int64)
            for j in range(big_m):
                grown[d * j: d * j + cur.shape[0]] += np.roll(cur, (e * j) % big_m, axis=1)
            cur = grown
        total[: cur.shape[0]] += mult * cur
    # The average times the denominator is an integer series, so the group
    # order divides every rational coefficient of a group's sum.
    num = []
    for k in range(num_deg + 1):
        value = CycNum(big_m, [int(v) for v in total[k]])
        if not value.is_rational():
            raise NonRationalCollapse(f"Molien coefficient of t^{k} is irrational")
        coeff, rest = divmod(value.coeffs[0], count)
        if rest:
            raise NonNormalizableDenominator(
                f"Molien coefficient of t^{k} is not divisible by the element count {count}")
        num.append(coeff)
    den = one_minus_t_pows(*(d * big_m for d in shape))
    return remember(_molien_cache, key, RatFunc.make(IntPoly(num), den))


def _trace_exponents(ctx: AlgebraCtx, group: MatGroup):
    """
    Factor degrees of the trace series, and the exponents of their scalars
    for every element, as (shape, modulus, tuples), read off the group's
    element table.
    """
    table = group.table
    if ctx.kind == "down_up":
        ctx.check_shapes(group.shapes)
        m = table.modulus
        return (1, 1, 2), m, [(x, y, (x + y) % m) for x, y in table.eigenvalues]
    if ctx.kind in ("skew_plane", "jordan_plane"):
        scalar = ctx.kind == "jordan_plane"  # the Jordan plane takes scalar matrices only
        if any(shape != "diagonal" or (scalar and x != y)
               for shape, (x, y) in zip(table.shapes, table.eigenvalues)):
            raise UnsupportedAutomorphism("Jordan plane traces need scalar matrices" if scalar
                                          else "quantum plane traces need diagonal matrices")
        return (1, 1), table.modulus, list(table.eigenvalues)
    raise ValueError(f"molien does not handle context kind {ctx.kind!r}")


def molien(ctx: AlgebraCtx, group: MatGroup) -> RatFunc:
    """Hilbert series of the invariant ring: the average of trace series."""
    return _average_inverse_products(*_trace_exponents(ctx, group))


# ---------------------------------------------------------------------------
# reflections and bireflections
# ---------------------------------------------------------------------------

def trace_form(ctx: AlgebraCtx, g: Mat2) -> TraceForm:
    if ctx.kind == "down_up":
        return downup_trace(ctx, g)
    return plane_trace(ctx, g)


def is_bireflection(ctx: AlgebraCtx, g: Mat2) -> bool:
    """
    Pole order gkdim - 2 or gkdim - 1 at t = 1, so reflections qualify too.
    The identity never qualifies.  On a down-up algebra the answer is
    checked against the matrix criterion, det 1 (non-identity) or an
    eigenvalue 1 among the trace factors (BireflectionMismatch otherwise).
    """
    trace = trace_form(ctx, g)
    ok = trace.pole_order_at_one() in (ctx.gkdim - 2, ctx.gkdim - 1)
    if ctx.kind == "down_up":
        (_, lam), (_, mu), _ = trace.den_factors
        if ok != (g != Mat2.identity() and (g.det() == 1 or 1 in (lam, mu))):
            raise BireflectionMismatch(f"trace and matrix bireflection tests disagree on {g}")
    return ok


def _bireflection_flags(ctx: AlgebraCtx, group: MatGroup) -> list[bool]:
    """is_bireflection for every element, read off the element table."""
    _, _, traces = _trace_exponents(ctx, group)
    table = group.table
    flags = [trace.count(0) in (ctx.gkdim - 2, ctx.gkdim - 1) for trace in traces]
    for i, (ok, det, eig) in enumerate(zip(flags, table.dets, table.eigenvalues)):
        if ctx.kind == "down_up" and ok != (eig != (0, 0) and (det == 0 or 0 in eig)):
            raise BireflectionMismatch(
                f"trace and matrix bireflection tests disagree on {group.elements[i]}")
    return flags


def bireflection_subgroup(ctx: AlgebraCtx, group: MatGroup) -> MatGroup:
    """The subgroup generated by the bireflections, its generators in group order."""
    flags = _bireflection_flags(ctx, group)
    return generated_subgroup(group, [i for i, ok in enumerate(flags) if ok])


def generated_by_bireflections(ctx: AlgebraCtx, group: MatGroup) -> bool:
    return len(bireflection_subgroup(ctx, group)) == len(group)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

class Theorem03Report(typing.NamedTuple):
    """All invariants needed to decide the cyclotomic-Gorenstein picture."""

    ctx: AlgebraCtx
    group: MatGroup
    label: object
    hilbert_series: RatFunc
    hdet_trivial: bool
    gorenstein_by_stanley: bool
    as_index: int | None
    cyclotomic: bool
    cyclotomic_factors: tuple | None
    noncyclotomic_witness: IntPoly | None
    bireflection_count: int
    generated_by_bireflections: bool
    condition_c2: bool
    condition_c3: bool
    consistent: bool

    @property
    def gorenstein_by_hdet(self) -> bool:
        """The Gorenstein verdict of the hdet criterion: hdet_trivial."""
        return self.hdet_trivial


def theorem03_report(alpha, beta, generators) -> Theorem03Report:
    """
    Close the generated group, verify it acts on A(alpha, beta), and compute
    the Hilbert series of the invariants together with the Gorenstein,
    cyclotomic and bireflection structure.

    Every field but ctx depends on the group alone: on each A(alpha, beta)
    with beta != 0, g with eigenvalues lambda, mu has the trace series
    1/((1 - lambda t)(1 - mu t)(1 - lambda mu t^2)) and hdet g = det(g)^2.
    The only per-algebra step is the check that the matrix shapes act; the
    rest is computed by the first report on a group and kept on the group.
    """
    ctx = AlgebraCtx.down_up(alpha, beta)
    group = close_group(generators)
    ctx.check_shapes(group.shapes)  # NotAnAutomorphism
    facts = group._facts
    if not facts:
        series = molien(ctx, group)
        table = group.table  # hdet = det^2
        hdet_trivial = all(2 * det % table.modulus == 0 for det in table.dets)
        stanley = stanley_gorenstein_test(series)
        fact = is_cyclotomic_product(series.num)
        cyclotomic = fact is not None
        bireflections = bireflection_subgroup(ctx, group)
        generated = len(bireflections) == len(group)
        c3 = hdet_trivial and cyclotomic
        c2 = c3 and generated
        facts.update(  # only once every fact is in, so a failed report keeps none
            label=classify(group),
            hilbert_series=series,
            hdet_trivial=hdet_trivial,
            gorenstein_by_stanley=stanley is not None,
            as_index=stanley[1] if stanley is not None else None,
            cyclotomic=cyclotomic,
            cyclotomic_factors=fact.factors if fact is not None else None,
            noncyclotomic_witness=None if cyclotomic else series.num,
            bireflection_count=len(bireflections._generator_indices),  # one per flag
            generated_by_bireflections=generated,
            condition_c2=c2,
            condition_c3=c3,
            consistent=c2 == c3,
        )
    return Theorem03Report(ctx=ctx, group=group, **facts)


# ---------------------------------------------------------------------------
# monomial matrices on weighted polynomial rings (auxiliary checks)
# ---------------------------------------------------------------------------

def polyring_molien(generators, weights=None, cap: int = DEFAULT_CAP) -> RatFunc:
    """
    Hilbert series of the invariants of a finite monomial matrix group acting
    on a polynomial ring whose variables have the given weights: one positive
    int per variable, all 1 by default.  Each generator is n x n, n <= 4, as
    rows of CycNum, Fraction or int entries; NonMonomialMatrix unless it has
    exactly one nonzero entry in every row and column (see monomial.from_rows).
    InfiniteOrderSuspected when the group cannot be finite or overflows the cap.
    """
    gens = [monomial.from_rows([[_cyc(x) for x in row] for row in rows]) for rows in generators]
    if not gens:
        raise ValueError("need at least one generator")
    if None in gens:
        raise NonMonomialMatrix(f"generator {gens.index(None) + 1} of {len(gens)} is not square "
                                "with exactly one nonzero entry in every row and column")
    n = len(gens[0][0])
    if any(len(perm) != n for perm, _ in gens):
        raise ValueError("the generators must all be n x n for one n")
    if n > 4:
        raise UnsupportedAutomorphism("polynomial-ring averages support up to 4 variables")
    weights = (1,) * n if weights is None else tuple(weights)
    if len(weights) != n or not all(isinstance(w, int) and w > 0 for w in weights):
        raise ValueError(f"weights must be {n} positive integers, got {weights}")
    if any(weights[p] != w for perm, _ in gens for p, w in zip(perm, weights)):
        # A generator sending a variable to one of another weight does not
        # act on the weighted ring degree-wise; one that keeps every weight does.
        raise NotAnAutomorphism("permutation mixes variables of different weights")
    try:
        group = monomial.exponent_form(gens).closure(cap)
    except GroupTooLarge as exc:
        raise InfiniteOrderSuspected(f"monomial closure exceeded cap of {cap}") from exc
    return _average_inverse_products(weights, group.eigen_modulus, group.eigenvalues)
