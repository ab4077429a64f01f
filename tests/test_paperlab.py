"""The reproduction suites at small parameter ranges."""
import pytest

from duinv import paperlab
from duinv.intpoly import IntPoly, one_minus_t_pow, one_minus_t_pows, x_pow
from duinv.ratfunc import RatFunc


def _assert_all_pass(results):
    failed = [(r.check_id, dict(r.parameters)) for r in results if not r.passed]
    assert not failed, failed


def test_cyclic_diagonal_series():
    _assert_all_pass([r for n in (2, 3, 5) for r in paperlab.check_cyclic_diagonal_series(n)])


def test_cyclic_diagonal_series_other_parameters():
    # the series only depends on the matrices, not on the algebra parameters
    _assert_all_pass(paperlab.check_cyclic_diagonal_series(5, alpha=0, beta=2))


def test_reflection_extended_series():
    _assert_all_pass([r for n in (1, 2, 3) for r in paperlab.check_reflection_extended_series(n)])


def test_odd_reflection_series():
    _assert_all_pass([r for n in (1, 3, 5) for r in paperlab.check_odd_reflection_series(n)])
    with pytest.raises(ValueError):
        paperlab.check_odd_reflection_series(2)


def test_rotated_cyclic_series():
    _assert_all_pass([r for n in (1, 2) for r in paperlab.check_rotated_cyclic_series(n)])


def test_noncyclotomic_families():
    _assert_all_pass(paperlab.sweep_noncyclotomic_families(10))


def test_family_one_base_case_factors():
    results = paperlab.sweep_noncyclotomic_families(2)
    base = [r for r in results if r.check_id == "family-one-base-case"][0]
    assert base.passed
    assert base.computed == ((2, 2), (4, 1), (6, 1))


def test_three_variable_numerator():
    _assert_all_pass([r for n in (3, 5) for r in paperlab.check_three_variable_numerator(n)])
    with pytest.raises(ValueError):
        paperlab.check_three_variable_numerator(4)


def test_jordan_plane():
    _assert_all_pass(paperlab.check_jordan_negation_series())


def test_four_variable_average():
    _assert_all_pass([r for vw in ((1, 1), (1, 2), (2, 3))
                      for r in paperlab.check_four_variable_average(*vw)])


def test_involution_hdets():
    _assert_all_pass(paperlab.check_involution_hdets(a_range=(1, 2), d_range=(4,)))


def test_flag_table_small():
    _assert_all_pass(paperlab.reproduce_flag_table(2))


def test_run_suite_names():
    with pytest.raises(ValueError):
        paperlab.run_suite("nope")
    results = paperlab.run_suite("four-variable")
    assert len(results) == 3
    _assert_all_pass(results)


def test_result_json_round_trippable():
    r = paperlab.check_four_variable_average(1, 1)[0]
    data = paperlab.result_to_json(r)
    assert data["passed"] is True
    assert data["check_id"] == "four-variable-average"
    assert set(data["expected"]) == {"num", "den"}
    assert all(isinstance(c, int) for c in data["expected"]["num"])


def test_check_result_exactness():
    good = paperlab.CheckResult.compare("x", {}, IntPoly((1, 1)), IntPoly((1, 1)))
    bad = paperlab.CheckResult.compare("x", {}, IntPoly((1, 1)), IntPoly((1, 2)))
    assert good.passed and not bad.passed


def test_three_variable_numerator_fails_on_a_remainder(monkeypatch):
    # num/den with num * closed-form den = q * den + remainder, where q is
    # the expected quotient: the remainder alone must fail the check.
    n = 3
    t, one = IntPoly((0, 1)), IntPoly((1,))
    four_term = one + x_pow(n) + x_pow(n + 2) + x_pow(2 * n)
    correction = t * one_minus_t_pow(1) * (one + x_pow(2 * n))
    den = one_minus_t_pows(1, 2, 2 * n, phis=(4, 2))  # times 1 + t^2 = Phi_4 and 1 + t = Phi_2
    wrong = RatFunc((four_term - correction) * (one + t) + one, den)
    monkeypatch.setattr(paperlab, "polyring_molien", lambda gens: wrong)
    results = {r.check_id: r for r in paperlab.check_three_variable_numerator(n)}
    assert not results["three-variable-numerator"].passed
    assert results["three-variable-numerator"].computed == four_term
