"""Acceptance suite: the twelve headline checks, and the golden answers.

Every series identity is verified by exact equality of canonically reduced
rational functions; the oracle suites compare exact routines against
independent numeric computations.  Criteria 9 and 10 share one sweep over
all admissible (algebra, group) pairs, computed once per module; check 13
compares that sweep, the `duinv analyze` requests and the paperlab suite ops
of the benchmark with the answers recorded in perfbench/golden/, and answers
on larger inputs with tests/golden/large.json.
"""
import importlib
import json
import pathlib
import sys

import pytest

from duinv import intpoly, invariants, matgroup, paperlab, ratfunc
from duinv.cli import main
from duinv.cycnum import zeta
from duinv.errors import UnsupportedAutomorphism
from duinv.intpoly import IntPoly, cyclotomic_poly
from duinv.invariants import (AlgebraCtx, downup_trace, theorem03_report)
from duinv.matgroup import Mat2, mat_c, mat_c_minus, mat_d1, mat_s, mat_s1


def _assert_all_pass(results):
    failed = [(r.check_id, dict(r.parameters), r.expected, r.computed)
              for r in results if not r.passed]
    assert not failed, failed


# ---------------------------------------------------------------------------
# 1. cyclic diagonal actions: (1-t^{2n}) / ((1-t^n)^2 (1-t^2)^2)
# ---------------------------------------------------------------------------

def test_01_cyclic_diagonal_series():
    _assert_all_pass([r for n in range(2, 11)
                      for r in paperlab.check_cyclic_diagonal_series(n)])


# ---------------------------------------------------------------------------
# 2. reflection-extended actions, plus the diagonal partial-sum identity
# ---------------------------------------------------------------------------

def test_02_reflection_extended_series():
    _assert_all_pass([r for n in range(1, 7)
                      for r in paperlab.check_reflection_extended_series(n)])


# ---------------------------------------------------------------------------
# 3. odd reflection-extended actions: cyclotomic iff n = 1, with the
#    alternative four-factor closed form at n = 1
# ---------------------------------------------------------------------------

def test_03_odd_reflection_series():
    _assert_all_pass([r for n in range(1, 22, 2)
                      for r in paperlab.check_odd_reflection_series(n)])


# ---------------------------------------------------------------------------
# 4. rotated cyclic actions: series, non-cyclotomic numerator, and the
#    index-2 bireflection subgroup
# ---------------------------------------------------------------------------

def test_04_rotated_cyclic_series():
    _assert_all_pass([r for n in range(1, 11)
                      for r in paperlab.check_rotated_cyclic_series(n)])


# ---------------------------------------------------------------------------
# 5. non-cyclotomic numerator families up to n = 60; the single cyclotomic
#    base case factors as Phi_2^2 Phi_4 Phi_6, confirmed by the root oracle
# ---------------------------------------------------------------------------

def test_05_noncyclotomic_families():
    results = paperlab.sweep_noncyclotomic_families(60)
    _assert_all_pass(results)
    base = [r for r in results if r.check_id == "family-one-base-case"]
    assert len(base) == 1 and base[0].computed == ((2, 2), (4, 1), (6, 1))
    from _oracles import oracle_is_cyclotomic
    product = cyclotomic_poly(2) ** 2 * cyclotomic_poly(4) * cyclotomic_poly(6)
    assert oracle_is_cyclotomic(product)
    for n in (2, 3, 10):
        assert not oracle_is_cyclotomic(paperlab._family_one_numerator(n))
        assert not oracle_is_cyclotomic(paperlab._family_two_numerator(n))


# ---------------------------------------------------------------------------
# 6. three-variable diagonal family: the four-term numerator is reproduced
#    (through the exact correction identity) and is non-cyclotomic
# ---------------------------------------------------------------------------

def test_06_three_variable_numerator():
    _assert_all_pass([r for n in range(3, 22, 2)
                      for r in paperlab.check_three_variable_numerator(n)])


# ---------------------------------------------------------------------------
# 7. negation on the Jordan plane: series and Stanley symmetry
# ---------------------------------------------------------------------------

def test_07_jordan_plane():
    _assert_all_pass(paperlab.check_jordan_negation_series())


# ---------------------------------------------------------------------------
# 8. every tabulated involution has homological determinant -1
# ---------------------------------------------------------------------------

def test_08_involution_hdets():
    _assert_all_pass(paperlab.check_involution_hdets(a_range=range(1, 7),
                                                     d_range=range(4, 9)))


# ---------------------------------------------------------------------------
# 9 & 10. consistency sweep over all admissible (algebra, group) pairs
# ---------------------------------------------------------------------------

PARAMS = ((1, 1), (0, 1), (2, -1), (3, -1))


def _family_generators():
    """Named generator lists: Q1..Q8 (n <= 8), C_m (m <= 12), BD_4m (m <= 6),
    named as in the benchmark's sweep pool (BD(m) is BD_4m)."""
    cases = []
    for n in range(1, 9):
        cases.append((f"Q1({n})", True, [mat_c(zeta(n))]))
        cases.append((f"Q2({n})", True, [mat_d1(), mat_c(zeta(2 * n))]))
        if n % 2 == 1:
            cases.append((f"Q3({n})", True, [mat_d1(), mat_c(zeta(n))]))
        cases.append((f"Q4({n})", True, [mat_c_minus(zeta(4 * n))]))
        cases.append((f"Q5({n})", False, [mat_s1(), mat_c(zeta(2 * n))]))
        cases.append((f"Q6({n})", False, [mat_s(), mat_c(zeta(n))]))
        cases.append((f"Q7({n})", False, [mat_d1(), mat_s(), mat_c(zeta(2 * n))]))
        cases.append((f"Q8({n})", False, [mat_s(), mat_c_minus(zeta(4 * n))]))
    for m in range(1, 13):
        cases.append((f"C({m})", True, [mat_c(zeta(m))]))
    for m in range(1, 7):
        cases.append((f"BD({m})", False, [mat_s1(), mat_c(zeta(2 * m))]))
    return cases


def _sweep():
    """The 274 (algebra, group) reports of the sweep, tagged (alpha, beta, name)."""
    reports = []
    for alpha, beta in PARAMS:
        diagonal_only = AlgebraCtx.down_up(alpha, beta).aut_shape.name == "O"
        for name, diagonal, gens in _family_generators():
            if diagonal_only and not diagonal:
                continue
            reports.append(((alpha, beta, name),
                            theorem03_report(alpha, beta, gens)))
    return reports


@pytest.fixture(scope="module")
def sweep_reports():
    return _sweep()


def test_09_consistency_sweep(sweep_reports):
    bad = []
    for tag, rep in sweep_reports:
        if not (rep.consistent and rep.condition_c2 == rep.condition_c3):
            bad.append(("C2 vs C3", tag))
        if rep.gorenstein_by_hdet != rep.gorenstein_by_stanley:
            bad.append(("hdet vs Stanley", tag))
    assert not bad, bad
    assert len(sweep_reports) > 200  # the sweep really ran at full breadth


def test_09_reports_on_a_cached_group_match_fresh_ones(monkeypatch):
    """Each group analysed first under one admissible algebra, then under
    each of the others, gives the report of an empty cache, ctx aside."""
    params = {}
    for alpha, beta in PARAMS:
        diagonal_only = AlgebraCtx.down_up(alpha, beta).aut_shape.name == "O"
        for name, diagonal, gens in _family_generators():
            if diagonal or not diagonal_only:
                params.setdefault(name, (gens, []))[1].append((alpha, beta))

    def fields(rep):
        return {k: v for k, v in rep._asdict().items() if k != "ctx"}

    def clear():
        monkeypatch.setattr(matgroup, "_closure_cache", {})
        monkeypatch.setattr(invariants, "_molien_cache", {})

    pairs = 0
    for name, (gens, algebras) in params.items():
        fresh = {}
        for ab in algebras:
            clear()
            fresh[ab] = fields(theorem03_report(*ab, gens))
        for first in algebras:
            clear()
            theorem03_report(*first, gens)
            for ab in algebras:
                assert fields(theorem03_report(*ab, gens)) == fresh[ab], (name, first, ab)
        pairs += len(algebras)
    assert pairs == 274


# The functions that compute one element's fact from its CycNum matrix, and
# the gcd over Q: the tests use them as references, and no program path
# reaches them.
REFERENCE_LAYER = ((intpoly, "poly_gcd_q"), (matgroup, "eigenvalues"),
                   (matgroup.Mat2, "order"), (invariants, "plane_trace"),
                   (invariants, "downup_trace"), (invariants, "trace_form"),
                   (invariants, "is_bireflection"), (invariants, "hdet_matrix"),
                   (invariants, "generated_by_bireflections"),
                   (invariants.TraceForm, "pole_order_at_one"))


def _forbid(monkeypatch, targets) -> list:
    """Rebind every binding of each (owner, name) target in every duinv
    module and its classes, found by identity as perfbench/tracing.py finds
    them, to a function that fails the test; return the names reached."""
    originals = [(getattr(owner, name), name) for owner, name in targets]
    reached, bound = [], set()

    def fail(name):
        def forbidden(*args, **kwargs):
            reached.append(name)
            pytest.fail(f"a program path called {name}")
        return forbidden

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "duinv":
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod_name]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                for original, name in originals:
                    if value is original:
                        monkeypatch.setattr(owner, attr, fail(name))
                        bound.add(name)
    assert bound == {name for _, name in targets}
    return reached


def test_09_no_program_path_reaches_the_reference_layer(monkeypatch, capsys):
    """The sweep from cold caches, paperlab up to n = 16, every analyze
    request of the benchmark through the command line, and the two plane
    refusals of molien call neither poly_gcd_q nor any function of the
    per-element reference layer.  RatFunc takes every denominator factored
    and has no binding of the cyclotomic test to reach."""
    assert not hasattr(ratfunc, "is_cyclotomic_product")
    reached = _forbid(monkeypatch, REFERENCE_LAYER)
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    monkeypatch.setattr(invariants, "_molien_cache", {})
    assert len(_sweep()) == 274
    _assert_all_pass(paperlab.run_suite("all", 16))
    for op in _perfbench("pools").analyze_pool():
        assert main(op["argv"]) in op["expect_exit"], op["id"]
    capsys.readouterr()
    refusals = [(AlgebraCtx.skew_plane(zeta(4)), mat_s(),
                 "quantum plane traces need diagonal matrices"),
                (AlgebraCtx.jordan_plane(), Mat2.diag(1, -1),
                 "Jordan plane traces need scalar matrices")]
    for ctx, g, message in refusals:
        with pytest.raises(UnsupportedAutomorphism, match=f"^{message}$"):
            invariants.molien(ctx, matgroup.close_group([g]))
    assert reached == []


def test_10_no_quasi_reflections(sweep_reports):
    seen = set()
    for (alpha, beta, _name), rep in sweep_reports:
        key = (alpha, beta, rep.group.elements)
        if key in seen:
            continue
        seen.add(key)
        ctx = AlgebraCtx.down_up(alpha, beta)
        for g in rep.group:
            if g == Mat2.identity():
                continue
            assert downup_trace(ctx, g).pole_order_at_one() != 2, (alpha, beta, g)


# ---------------------------------------------------------------------------
# 11. oracle suites
# ---------------------------------------------------------------------------

def test_11_cyclotomic_tester_oracle():
    from _oracles import run_cyclotomic_oracle_suite
    run_cyclotomic_oracle_suite(cases=400)


def test_11_series_convolution_oracle():
    from _oracles import run_series_oracle_suite
    run_series_oracle_suite(cases=100, n_terms=32)


def test_11_cyclotomic_arithmetic_embedding():
    from _oracles import run_embedding_suite
    run_embedding_suite(cases=200, depth=5, tol=1e-9)


# ---------------------------------------------------------------------------
# 12. four-variable weighted average: five-factor closed form
# ---------------------------------------------------------------------------

def test_12_four_variable_average():
    _assert_all_pass([r for vw in ((1, 1), (1, 2), (2, 3))
                      for r in paperlab.check_four_variable_average(*vw)])


# ---------------------------------------------------------------------------
# 13. golden answers: the outputs the benchmark judges against, which change
#     only through perfbench/capture_golden.py, and answers on larger inputs,
#     which change only through tests/large_golden.py.
# ---------------------------------------------------------------------------

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    """A module of the benchmark harness (perfbench/ is not a package)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    return importlib.import_module(name)


def _golden(name):
    return json.loads((PERFBENCH / "golden" / f"{name}.json").read_text())


def test_13_sweep_matches_golden(sweep_reports):
    digest = _perfbench("worker")._report_digest
    got = {f"A({alpha},{beta})/{name}": json.loads(json.dumps(digest(rep)))
           for (alpha, beta, name), rep in sweep_reports}
    golden = _golden("sweep")
    assert got.keys() == golden.keys()
    assert [k for k in golden if got[k] != golden[k]] == []


def test_13_analyze_requests_match_golden(capsys):
    """Each request runs through duinv.cli.main in this process; an escaping
    exception fails the test, as a traceback fails the benchmark's op."""
    golden = _golden("analyze")
    ops = _perfbench("pools").analyze_pool()
    assert sorted(op["id"] for op in ops) == sorted(golden)
    for op in ops:
        want = golden[op["id"]]
        code = main(op["argv"])
        out = capsys.readouterr().out
        assert code in want["exit"], (op["id"], code)
        if "report" in want:
            assert json.loads(out) == want["report"], op["id"]


def test_13_paperlab_checks_match_golden():
    """Every suite op of the benchmark's paperlab decks, run and judged by the
    worker: the recorded number of checks, none of them failed."""
    import duinv
    golden = _golden("paperlab")
    ops = _perfbench("pools")._suite_ops()
    assert sorted(op["id"] for op in ops) == sorted(golden)
    paperlab_op = _perfbench("worker")._paperlab_op
    got = {}
    for op in ops:
        run, digest = paperlab_op(duinv, op, None)
        got[op["id"]] = digest(run())[0]
    assert got == {op_id: {"checks": checks, "failed_checks": []}
                   for op_id, checks in golden.items()}


def test_13_large_inputs_match_golden():
    """Molien series and reports on inputs larger than the benchmark's (see
    tests/large_golden.py, which also regenerates the file)."""
    from large_golden import GOLDEN, answers
    golden = json.loads(GOLDEN.read_text())
    got = answers(_perfbench("worker")._report_digest)
    assert got.keys() == golden.keys()
    assert [k for k in golden if got[k] != golden[k]] == []
