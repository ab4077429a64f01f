"""
Scripted cross-checks: closed-form Hilbert series for the standard group
families acting on down-up algebras and planes, non-cyclotomic numerator
families, involution homological determinants on Kleinian hypersurfaces,
and the cyclotomic / bireflection flag table.

Every check compares exact reduced rational functions (or exact scalars);
there is no tolerance anywhere.  Each function returns a list of
CheckResult records; `run_suite` collects them by suite name.
"""
from __future__ import annotations

import typing
from fractions import Fraction

from .cycnum import CycNum, render_cyc, zeta
from .intpoly import IntPoly, is_cyclotomic_product, x_pow
from .intpoly import one_minus_t_pow as _omt, one_minus_t_pows as _den
from .invariants import (AlgebraCtx, bireflection_subgroup,
                         hdet_from_trace, molien, normal_sequence_trace,
                         hypersurface_trace, polyring_molien, theorem03_report)
from .matgroup import Mat2, close_group, mat_c, standard_group
from .ratfunc import RatFunc, stanley_gorenstein_test


class CheckResult(typing.NamedTuple):
    check_id: str
    parameters: tuple[tuple[str, int], ...]
    passed: bool
    expected: object
    computed: object

    @staticmethod
    def compare(check_id, parameters, expected, computed) -> "CheckResult":
        return CheckResult(check_id, tuple(sorted(parameters.items())),
                           expected == computed, expected, computed)


# ---------------------------------------------------------------------------
# closed-form Hilbert series of invariant rings
# ---------------------------------------------------------------------------

def check_cyclic_diagonal_series(n: int, alpha=1, beta=1) -> list[CheckResult]:
    """Invariants under the cyclic diagonal group Q1(n):
    (1-t^2n) / ((1-t^n)^2 (1-t^2)^2)."""
    ctx = AlgebraCtx.down_up(alpha, beta)
    computed = molien(ctx, standard_group(1, n))
    expected = RatFunc.make(_omt(2 * n), _den(n, n, 2, 2))
    return [CheckResult.compare("cyclic-diagonal-series", {"n": n},
                                expected, computed)]


def check_reflection_extended_series(n: int) -> list[CheckResult]:
    """
    Invariants under Q2(n) = <d1, c_eps> (eps a primitive 2n-th root):
    (1-t^4n)(1+t^4) / ((1-t^2n)^2 (1-t^4)^2), together with the diagonal
    partial sum S1 = 2n (1-t^4n) / ((1-t^2n)^2 (1-t^2)).
    """
    ctx = AlgebraCtx.down_up(1, 1)
    computed = molien(ctx, standard_group(2, n))
    one_plus_t4 = IntPoly((1, 0, 0, 0, 1))
    expected = RatFunc.make(_omt(4 * n) * one_plus_t4, _den(2 * n, 2 * n, 4, 4))
    out = [CheckResult.compare("reflection-extended-series", {"n": n},
                               expected, computed)]
    # S1 is 2n times the plane Molien average over the cyclic diagonal part.
    plane = AlgebraCtx.skew_plane(CycNum.from_rat(1))
    s1 = molien(plane, close_group([mat_c(zeta(2 * n))])).scale(2 * n)
    s1_expected = RatFunc.make(_omt(4 * n) * (2 * n), _den(2 * n, 2 * n, 2))
    out.append(CheckResult.compare("diagonal-partial-sum", {"n": n},
                                   s1_expected, s1))
    return out


def check_odd_reflection_series(n: int) -> list[CheckResult]:
    """
    Invariants under Q3(n) = <d1, c_eps> (eps primitive n-th, n odd):
    ((1+t^n+t^2n)(1+t^4) + 2t^(n+2)) / ((1-t^2n)(1-t^4)^2); the numerator
    is a product of cyclotomics exactly when n = 1, where the series also
    equals (1-t^6) / ((1-t)(1-t^2)(1-t^3)(1-t^4)).
    """
    ctx = AlgebraCtx.down_up(1, 1)
    computed = molien(ctx, standard_group(3, n))
    num = _family_one_numerator(n)
    expected = RatFunc.make(num, _den(2 * n, 4, 4))
    out = [CheckResult.compare("odd-reflection-series", {"n": n},
                               expected, computed)]
    out.append(CheckResult.compare(
        "odd-reflection-cyclotomic", {"n": n},
        n == 1, is_cyclotomic_product(computed.num) is not None))
    if n == 1:
        alt = RatFunc.make(_omt(6), _den(1, 2, 3, 4))
        out.append(CheckResult.compare("odd-reflection-alt-form", {"n": n},
                                       alt, computed))
    return out


def check_rotated_cyclic_series(n: int) -> list[CheckResult]:
    """
    Invariants under Q4(n) = <c_{eps,-}> (eps primitive 4n-th root):
    (1-t^4n)[(1+t^4n)(1+t^4) + 4t^(2n+2)] / ((1-t^4n)^2 (1-t^4)^2).
    The numerator is never a product of cyclotomics, and the bireflections
    generate an index-2 subgroup.
    """
    ctx = AlgebraCtx.down_up(1, 1)
    group = standard_group(4, n)
    computed = molien(ctx, group)
    num = _omt(4 * n) * _family_two_numerator(2 * n)
    expected = RatFunc.make(num, _den(4 * n, 4 * n, 4, 4))
    out = [CheckResult.compare("rotated-cyclic-series", {"n": n},
                               expected, computed)]
    out.append(CheckResult.compare(
        "rotated-cyclic-noncyclotomic", {"n": n},
        True, is_cyclotomic_product(computed.num) is None))
    sub = bireflection_subgroup(ctx, group)
    out.append(CheckResult.compare("rotated-cyclic-bireflection-index", {"n": n},
                                   2, len(group) // len(sub)))
    return out


# ---------------------------------------------------------------------------
# non-cyclotomic numerator families
# ---------------------------------------------------------------------------

def _family_one_numerator(n: int) -> IntPoly:
    """(1 + t^n + t^2n)(1 + t^4) + 2 t^(n+2)."""
    base = IntPoly((1,)) + x_pow(n) + x_pow(2 * n)
    return base * IntPoly((1, 0, 0, 0, 1)) + 2 * x_pow(n + 2)


def _family_two_numerator(n: int) -> IntPoly:
    """(1 + t^2n)(1 + t^4) + 4 t^(n+2)."""
    base = IntPoly((1,)) + x_pow(2 * n)
    return base * IntPoly((1, 0, 0, 0, 1)) + 4 * x_pow(n + 2)


def sweep_noncyclotomic_families(max_n: int = 60) -> list[CheckResult]:
    """
    The two numerator families fail to be cyclotomic products: family one
    for every n >= 2 and family two for every n >= 1.  Family one at n = 1
    is the cyclotomic product (1+t)(1+t^2)(1+t^3).
    """
    out = []
    fact = is_cyclotomic_product(_family_one_numerator(1))
    out.append(CheckResult.compare(
        "family-one-base-case", {"n": 1},
        ((2, 2), (4, 1), (6, 1)), fact.factors if fact else None))
    for n in range(2, max_n + 1):
        out.append(CheckResult.compare(
            "family-one-noncyclotomic", {"n": n},
            None, is_cyclotomic_product(_family_one_numerator(n))))
    for n in range(1, max_n + 1):
        out.append(CheckResult.compare(
            "family-two-noncyclotomic", {"n": n},
            None, is_cyclotomic_product(_family_two_numerator(n))))
    return out


def check_three_variable_numerator(n: int) -> list[CheckResult]:
    """
    The subgroup of SL_3 generated by diag(eps, eps^-1, 1) and
    diag(-1, 1, -1), eps a primitive n-th root with n odd >= 3, is
    generated by classical bireflections, yet its polynomial-ring invariant
    series is not cyclotomic.  Averaging the traces by hand gives

        H = q(t) / ((1-t)(1-t^2)(1+t^2)(1-t^2n)),
        q(t) = (t^2n + t^(n+2) + t^n + 1) - t(1-t)(1+t^2n),

    so the four-term polynomial t^2n + t^(n+2) + t^n + 1 is the numerator
    up to the explicit correction term t(1-t)(1+t^2n).  Three checks: the
    engine's average equals the closed form above; subtracting the
    correction from the engine's numerator over that denominator recovers
    the four-term polynomial exactly; and both that polynomial and the
    fully reduced numerator fail to be products of cyclotomics.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("this family needs odd n >= 3")
    gens = [[[zeta(n), 0, 0], [0, zeta(n, n - 1), 0], [0, 0, 1]],
            [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]]
    computed = polyring_molien(gens)
    four_term = IntPoly((1,)) + x_pow(n) + x_pow(n + 2) + x_pow(2 * n)
    correction = IntPoly((0, 1)) * _omt(1) * (IntPoly((1,)) + x_pow(2 * n))
    den = _den(1, 2, 2 * n, phis=(4,))  # 1 + t^2 = Phi_4
    out = [CheckResult.compare("three-variable-series", {"n": n},
                               RatFunc.make(four_term - correction, den), computed)]
    recovered, rem = (computed.num * den.expand()).divmod_exact(computed.den)
    recovered = recovered + correction  # a remainder fails the check
    out.append(CheckResult("three-variable-numerator", (("n", n),),
                           rem.is_zero() and recovered == four_term,
                           four_term, recovered))
    out.append(CheckResult.compare(
        "three-variable-noncyclotomic", {"n": n},
        (None, None),
        (is_cyclotomic_product(four_term), is_cyclotomic_product(computed.num))))
    return out


# ---------------------------------------------------------------------------
# planes
# ---------------------------------------------------------------------------

def check_jordan_negation_series() -> list[CheckResult]:
    """
    The sign involution -I on the Jordan plane has invariant series
    (1-t^4)/(1-t^2)^3, which passes the Stanley functional-equation test;
    scalar groups with nontrivial homological determinant fail it.
    """
    ctx = AlgebraCtx.jordan_plane()
    computed = molien(ctx, close_group([Mat2.diag(-1, -1)]))
    expected = RatFunc.make(_omt(4), _den(2, 2, 2))
    out = [CheckResult.compare("jordan-negation-series", {}, expected, computed)]
    out.append(CheckResult.compare(
        "jordan-negation-stanley", {},
        True, stanley_gorenstein_test(computed) is not None))
    trivial = molien(ctx, close_group([Mat2.identity()]))
    out.append(CheckResult.compare(
        "jordan-trivial-series", {}, RatFunc.make(IntPoly((1,)), _den(1, 1)), trivial))
    third = molien(ctx, close_group([Mat2.diag(zeta(3), zeta(3))]))
    out.append(CheckResult.compare(
        "jordan-scalar-third-stanley", {},
        None, stanley_gorenstein_test(third)))
    return out


def check_four_variable_average(v: int, w: int) -> list[CheckResult]:
    """
    On the four-generator skew ring with generator degrees (v, v, w, w),
    averaging the identity trace 1/((1-t^v)^2 (1-t^w)^2) with the swap
    trace 1/((1-t^2v)(1-t^2w)) gives
    (1-t^2(v+w)) / ((1-t^v)(1-t^w)(1-t^2v)(1-t^2w)(1-t^(v+w))).
    """
    full = RatFunc.make(IntPoly((1,)), _den(v, v, w, w))
    swap = RatFunc.make(IntPoly((1,)), _den(2 * v, 2 * w))
    computed = (full + swap).scale(Fraction(1, 2))
    expected = RatFunc.make(_omt(2 * (v + w)), _den(v, w, 2 * v, 2 * w, v + w))
    return [CheckResult.compare("four-variable-average", {"v": v, "w": w},
                                expected, computed)]


# ---------------------------------------------------------------------------
# flag table: cyclotomic? / generated by bireflections?
# ---------------------------------------------------------------------------

# (family, n filter, (alpha, beta)); _expected_flags gives the expected flags.
_FLAG_ROWS = (
    (1, lambda n: True, (1, 1)),
    (2, lambda n: n % 2 == 0, (1, 1)),
    (3, lambda n: n % 2 == 1, (1, 1)),
    (4, lambda n: True, (1, 1)),
    (5, lambda n: n % 2 == 0, (3, -1)),
    (6, lambda n: True, (3, -1)),
    (7, lambda n: n % 2 == 0, (3, -1)),
    (8, lambda n: n % 4 == 0, (3, -1)),
)


def _expected_flags(family: int, n: int):
    if family == 4:
        return (False, False)
    if family == 3 and n >= 3:
        return (False, True)
    return (True, True)


def reproduce_flag_table(max_n: int = 8) -> list[CheckResult]:
    """
    For each group family, compare the computed (cyclotomic, generated by
    bireflections) flags with the expected table.  The Q2 rows are stated
    for even n; odd n is probed as well and turns out to behave the same.
    """
    out = []
    for family, keep, (alpha, beta) in _FLAG_ROWS:
        for n in range(1, max_n + 1):
            if not keep(n):
                continue
            report = theorem03_report(alpha, beta,
                                      standard_group(family, n).generators)
            out.append(CheckResult.compare(
                f"flag-table-q{family}", {"n": n},
                _expected_flags(family, n),
                (report.cyclotomic, report.generated_by_bireflections)))
    for n in range(1, max_n + 1, 2):  # parity probe for the Q2 row
        report = theorem03_report(1, 1, standard_group(2, n).generators)
        out.append(CheckResult.compare(
            "flag-table-q2-parity-probe", {"n": n},
            (True, True),
            (report.cyclotomic, report.generated_by_bireflections)))
    return out


# ---------------------------------------------------------------------------
# involutions on Kleinian hypersurfaces: homological determinant -1
# ---------------------------------------------------------------------------

def _involution_rows(n: int):
    """
    Involution data (generator degrees with sign scalars, relation degree
    with its scalar) for the dimension-two fixed rings: the A-type
    hypersurfaces x^2+y^2+z^m, the D-type x^2+y^2z+z^(n-1) with degrees
    (2(n-1), 2(n-2), 4), and E6/E7/E8.  A1 is the polynomial plane with one
    sign flip and no relation.
    """
    return {
        "a1": ([(1, 1), (1, -1)], None),
        "a2": ([(2 * n, 1), (2 * n, 1), (2, -1)], (4 * n, 1)),
        "a3": ([(n, -1), (n, 1), (2, -1)], (2 * n, -1)),
        "a4": ([(2 * n, -1), (2 * n, -1), (2, -1)], (4 * n, 1)),
        "a5": ([(n, 1), (n, -1), (2, 1)], (2 * n, 1)),
        "d1": ([(2 * (n - 1), 1), (2 * (n - 2), -1), (4, 1)], (4 * (n - 1), 1)),
        "d2": ([(2 * (n - 1), -1), (2 * (n - 2), 1), (4, 1)], (4 * (n - 1), 1)),
        "e6a": ([(12, -1), (8, 1), (6, 1)], (24, 1)),
        "e6b": ([(12, 1), (8, 1), (6, -1)], (24, 1)),
        "e7": ([(18, -1), (12, 1), (8, 1)], (36, 1)),
        "e8": ([(30, -1), (20, 1), (12, 1)], (60, 1)),
    }


def check_involution_hdets(a_range=range(1, 7), d_range=range(4, 9)) -> list[CheckResult]:
    """Every tabulated involution has homological determinant -1, read off
    the leading Laurent coefficient of its trace series at infinity."""
    minus_one = CycNum.from_rat(-1)
    out = []

    def run(case: str, n: int):
        steps, relation = _involution_rows(n)[case]
        if relation is None:
            tr = normal_sequence_trace(steps)
        else:
            tr = hypersurface_trace(steps, relation)
        hdet = hdet_from_trace(tr, 2)
        out.append(CheckResult.compare(
            f"involution-hdet-{case}", {"n": n}, minus_one, hdet.value))

    for n in a_range:
        for case in ("a1", "a2", "a3", "a4", "a5"):
            if case == "a3" and n % 2 == 0:
                continue  # that family is stated for odd n
            run(case, n)
    for n in d_range:
        run("d1", n)
        run("d2", n)
    for case in ("e6a", "e6b", "e7", "e8"):
        run(case, 0)
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# Each suite's checks at max_n, by name; also the CLI's --suite choices.
SUITES = {
    "cyclic-diagonal": lambda max_n: [r for n in range(2, max_n + 1)
                                      for r in check_cyclic_diagonal_series(n)],
    "reflection-extended": lambda max_n: [r for n in range(1, max_n + 1)
                                          for r in check_reflection_extended_series(n)],
    "odd-reflection": lambda max_n: [r for n in range(1, max_n + 1, 2)
                                     for r in check_odd_reflection_series(n)],
    "rotated-cyclic": lambda max_n: [r for n in range(1, max_n + 1)
                                     for r in check_rotated_cyclic_series(n)],
    "noncyclotomic": lambda max_n: sweep_noncyclotomic_families(max(max_n, 8)),
    "three-variable": lambda max_n: [r for n in range(3, max_n + 1, 2)
                                     for r in check_three_variable_numerator(n)],
    "jordan-plane": lambda max_n: check_jordan_negation_series(),
    "four-variable": lambda max_n: [r for vw in ((1, 1), (1, 2), (2, 3))
                                    for r in check_four_variable_average(*vw)],
    "flag-table": lambda max_n: reproduce_flag_table(max_n),
    "involution-hdet": lambda max_n: check_involution_hdets(),
}


def run_suite(name: str, max_n: int = 8) -> list[CheckResult]:
    """Run a named suite of SUITES; "all" runs everything at its default ranges."""
    if name == "all":
        out = []
        for key in sorted(SUITES):
            out.extend(SUITES[key](max_n))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))} or 'all'")
    return SUITES[name](max_n)


def result_to_json(result: CheckResult) -> dict:
    return {
        "check_id": result.check_id,
        "parameters": dict(result.parameters),
        "passed": result.passed,
        "expected": _jsonify(result.expected),
        "computed": _jsonify(result.computed),
    }


def _jsonify(value):
    if isinstance(value, RatFunc):
        return {"num": list(value.num.coeffs), "den": list(value.den.coeffs)}
    if isinstance(value, IntPoly):
        return list(value.coeffs)
    if isinstance(value, CycNum):
        return render_cyc(value)
    if hasattr(value, "_asdict"):  # a NamedTuple record, by field
        return {k: _jsonify(v) for k, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)
