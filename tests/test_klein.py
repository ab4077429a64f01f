"""
Klein's invariants as an oracle from outside the library.

For a finite subgroup G of SL_2, k[x, y]^G is generated by three invariants
of degrees a, b, c with one relation in degree 2c (Klein; see Springer,
Invariant Theory, LNM 585): degrees 6, 8, 12 for the binary tetrahedral
group, 8, 12, 18 for the binary octahedral, 12, 20, 30 for the binary
icosahedral, 4, 2n, 2n + 2 for the binary dihedral group Q5(n) of order 4n,
and 2, n, n for the cyclic Q1(n).  So k[x, y]^G has the Hilbert series
(1 + t^c) / ((1 - t^a)(1 - t^b)).  On A(0, 1) and A(2, -1), where all of
GL_2 acts, the invariants of such a group have that series times
1 / (1 - t^2), trivial hdet, a cyclotomic numerator, and the group is
generated by bireflections; a conjugate of the group must give the same.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duinv.cycnum import zeta
from duinv.intpoly import IntPoly, one_minus_t_pows, x_pow
from duinv.invariants import theorem03_report
from duinv.matgroup import Mat2, standard_group
from duinv.notation import parse_matrix
from duinv.ratfunc import RatFunc

from _oracles import mat_inverse
from large_golden import REPORTS

# name: (generators, order, (a, b, c)), the degrees of Klein's invariants
GROUPS = {
    "BT": ([parse_matrix(g) for g in REPORTS["BT on A(0,1)"][2]], 24, (6, 8, 12)),
    "BO": ([parse_matrix(g) for g in REPORTS["BO on A(0,1)"][2]], 48, (8, 12, 18)),
    "BI": ([parse_matrix(g) for g in REPORTS["BI on A(0,1)"][2]], 120, (12, 20, 30)),
    **{f"Q5({n})": (standard_group(5, n).generators, 4 * n, (4, 2 * n, 2 * n + 2))
       for n in range(1, 9)},
    **{f"Q1({n})": (standard_group(1, n).generators, n, (2, n, n)) for n in range(1, 9)},
}


def _klein_series(a: int, b: int, c: int) -> RatFunc:
    return RatFunc.make(IntPoly((1,)) + x_pow(c), one_minus_t_pows(a, b, 2))


def _conjugator_entries(conductor: int):
    """An integer -3..3 or +-zeta_N^k, N the conductor of the group."""
    root = st.builds(lambda k, sign: sign * zeta(conductor, k),
                     st.integers(0, conductor - 1), st.sampled_from([1, -1]))
    return st.one_of(st.integers(-3, 3), root)


@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=6, deadline=None)
@given(st.data())
def test_conjugated_groups_have_klein_series(name, data):
    gens, order, degrees = GROUPS[name]
    conductor = math.lcm(*(g.conductor() for g in gens))
    alpha, beta = data.draw(st.sampled_from([(0, 1), (2, -1)]))
    x = data.draw(_conjugator_entries(conductor))
    y = data.draw(_conjugator_entries(conductor))
    p = Mat2.of(1, x, y, 1 + x * y)  # determinant 1
    report = theorem03_report(alpha, beta, [p @ g @ mat_inverse(p) for g in gens])
    assert len(report.group) == order
    assert report.hilbert_series == _klein_series(*degrees)
    assert report.hdet_trivial and report.cyclotomic
    assert report.generated_by_bireflections
