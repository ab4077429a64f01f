"""
Source hygiene: checks in the library are real raises, not assert
statements (which python -O strips), importing the package and its
command-line front end loads neither numpy nor dataclasses, the value
classes keep the contract of frozen records, the command line runs as
`python -m duinv` and `python -m duinv.cli` alike, and it answers malformed
input, or a closed stdout, with its documented exit code and no traceback.
Every function the benchmark's tracer wraps is still there to wrap.
"""
import ast
import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from duinv import (AlgebraCtx, CycFactorization, GroupLabel, IntPoly, Mat2,
                   RatFunc, close_group, downup_trace,
                   hdet_from_trace, is_cyclotomic_product, matgroup,
                   theorem03_report, zeta)
from duinv.intpoly import one_minus_t_pows
from duinv.matgroup import classify, generated_subgroup
from duinv._record import Record
from duinv.paperlab import CheckResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "duinv").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_functions_have_no_relative_imports():
    """No library function imports a package module at call time (the lazy
    `import numpy` is absolute), so no module leans on an import cycle."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "duinv").glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level]
    assert found == []


def test_benchmark_trace_targets_resolve():
    """Every function perfbench/tracing.py wraps is still bound by identity
    in its module: a renamed or rebound target would leave its per-layer
    metric without a value."""
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']\n"
            "import duinv, duinv.cli, tracing\n"
            "print(tracing.install(tracing.Tracer()))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_does_not_load_numpy():
    """The start-up of every command-line call, `import duinv, duinv.cli`,
    loads neither numpy nor dataclasses and the inspect module that
    dataclasses imports, and binds the submodules the benchmark reads."""
    code = ("import sys; before = set(sys.modules); import duinv, duinv.cli; "
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before))); "
            "print([name for name in ('paperlab', 'invariants', 'intpoly') "
            "if not hasattr(duinv, name)])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def _value_pairs():
    """Pairs of equal values of every value class, built apart."""
    ctx = AlgebraCtx.down_up(1, 1)
    g = Mat2.diag(zeta(4), zeta(4).inv())
    trace = downup_trace(ctx, g)
    report = theorem03_report(1, 1, [g])
    return [
        (IntPoly((1, -2, 0, 3)), IntPoly([1, -2, 0, 3, 0])),
        (RatFunc.make(IntPoly((1, 1)), one_minus_t_pows(2)),
         RatFunc.make(IntPoly((-1,)), CycFactorization(((1, 1),), 1))),
        (is_cyclotomic_product(IntPoly((1, 0, 0, 0, 0, 0, -1))),  # 1 - t^6
         CycFactorization(((1, 1), (2, 1), (3, 1), (6, 1)), -1)),
        (ctx, AlgebraCtx("down_up", Fraction(1), Fraction(1))),
        (g, Mat2.diag(zeta(4), -zeta(4))),
        (trace, downup_trace(ctx, Mat2.diag(zeta(4), -zeta(4)))),
        (hdet_from_trace(trace, 3), hdet_from_trace(trace, 3)),
        (report.label, GroupLabel("Q1", 4, 4, ("Q1(n=4)", "C4", "BD4"))),
        (report, theorem03_report(1, 1, [Mat2.diag(zeta(4), -zeta(4))])),
        (CheckResult.compare("c", {"n": 2}, 1, 1), CheckResult("c", (("n", 2),), True, 1, 1)),
    ]


def test_value_classes_keep_the_record_contract():
    for x, y in _value_pairs():
        assert x is not y and x == y and not x != y, type(x).__name__
        assert hash(x) == hash(y), type(x).__name__
        field = next(iter(vars(type(x)).get("__annotations__", {})))
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    assert (repr(GroupLabel("Q1", 4, 4, ("Q1(n=4)", "C4")))
            == "GroupLabel(family='Q1', n=4, order=4, all_matches=('Q1(n=4)', 'C4'))")
    assert repr(IntPoly((1, -2, 0, 3))) == "IntPoly('3t^3 - 2t + 1')"
    f = RatFunc.make(IntPoly((1,)), one_minus_t_pows(1))
    assert repr(f) == "RatFunc(num=IntPoly('1'), den=IntPoly('-t + 1'))"
    assert repr(Mat2.of(0, 1, 1, 0)) == ("Mat2(a=CycNum(1, ['0']), b=CycNum(1, ['1']), "
                                         "c=CycNum(1, ['1']), d=CycNum(1, ['0']))")
    assert repr(AlgebraCtx.jordan_plane()) == (
        "AlgebraCtx(kind='jordan_plane', alpha=None, beta=None, q=None)")
    for p in (IntPoly((1, 2)), f):
        assert pickle.loads(pickle.dumps(p)) == p
    # Arithmetic never falls back to tuple repetition or concatenation.
    with pytest.raises(TypeError):
        2 * f
    with pytest.raises(TypeError):
        Mat2.identity() + Mat2.identity()


def _closure_copy(*gens):
    return copy.copy(close_group(gens))


# The six classes built on Record: a builder of a value, called twice for
# two equal values built apart; a field; the methods the class keeps for a
# meaning of its own; and the value's repr and hash as they were before the
# classes shared the base (64-bit hashes).  AlgebraCtx hashes a str and
# None, whose hashes change from run to run, so its pin is the hash of its
# field tuple.
RECORDS = {
    "CycNum": (lambda: zeta(12, 5) + Fraction(1, 3), "coeffs",
               {"__eq__", "__hash__", "__repr__"},
               "CycNum(12, ['1/3', '-1', '0', '1'])", 1537228672809129301),
    "IntPoly": (lambda: IntPoly((1, -2, 0, 3)), "coeffs", {"__repr__"},
                "IntPoly('3t^3 - 2t + 1')", -6510532465580222948),
    "RatFunc": (lambda: RatFunc.make(IntPoly((1, 1)), one_minus_t_pows(2)), "num", set(),
                "RatFunc(num=IntPoly('1'), den=IntPoly('-t + 1'))", 3991686824967421266),
    "Mat2": (lambda: Mat2.diag(zeta(4), -zeta(4)), "a", set(),
             "Mat2(a=CycNum(4, ['0', '1']), b=CycNum(1, ['0']), c=CycNum(1, ['0']), "
             "d=CycNum(4, ['0', '-1']))", -3226225171056353554),
    "AlgebraCtx": (lambda: AlgebraCtx("down_up", Fraction(1), Fraction(1)), "kind", set(),
                   "AlgebraCtx(kind='down_up', alpha=Fraction(1, 1), beta=Fraction(1, 1), "
                   "q=None)", hash(("down_up", Fraction(1), Fraction(1), None))),
    "MatGroup": (lambda: _closure_copy(Mat2.of(-1, 0, 0, -1)), "conductor", set(),
                 "MatGroup(elements=(Mat2(a=CycNum(1, ['1']), b=CycNum(1, ['0']), "
                 "c=CycNum(1, ['0']), d=CycNum(1, ['1'])), Mat2(a=CycNum(1, ['-1']), "
                 "b=CycNum(1, ['0']), c=CycNum(1, ['0']), d=CycNum(1, ['-1']))), "
                 "generators=(Mat2(a=CycNum(1, ['-1']), b=CycNum(1, ['0']), "
                 "c=CycNum(1, ['0']), d=CycNum(1, ['-1'])),), conductor=1)",
                 2931740011269793517),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_share_one_frozen_contract(name):
    make, field, own, text, pinned = RECORDS[name]
    x, y = make(), make()
    cls = type(x)
    assert cls.__name__ == name and issubclass(cls, Record)
    assert own == {m for m in ("__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__")
                   if m in vars(cls)}
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    assert (repr(x), hash(x)) == (text, pinned)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(x, field)
    assert x == y and repr(x) == text
    # Copies and pickles rebuild the value, and recompute any cached hash.
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin is not x and twin == x
        assert (repr(twin), hash(twin)) == (text, pinned)


def test_mat_group_equality_ignores_its_caches():
    group = close_group([Mat2.of(0, 1, 1, 0)])
    twin = copy.copy(group)
    theorem03_report(0, 1, group.generators)  # fills the facts of `group`
    assert group._facts and not twin._facts and "table" not in vars(twin)
    assert group == twin and hash(group) == hash(twin)
    assert repr(twin) == repr(group) == (
        f"MatGroup(elements={group.elements!r}, "
        f"generators={group.generators!r}, conductor=1)")


def test_closures_subgroups_and_reports_round_trip(monkeypatch):
    """A closure comes back as a group with the same elements, generators
    and conductor, a subgroup with a copy of its closure, and a report on
    the binary icosahedral group with every field equal.  A closure in
    exponent form carries its form, basis included, and reads like the
    closure with no closure cached."""
    eps = zeta(5)
    root5 = eps + eps ** 4 - eps ** 2 - eps ** 3
    bi = [Mat2.diag(-eps ** 3, -eps ** 2),
          Mat2.of(-(eps - eps ** 4) / root5, (eps ** 2 - eps ** 3) / root5,
                  (eps ** 2 - eps ** 3) / root5, (eps - eps ** 4) / root5)]
    report = theorem03_report(0, 1, bi)
    group = report.group
    sub = generated_subgroup(group, [1, 2])
    for twin in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert twin == report and twin.group.generators == group.generators
        assert twin.group.conductor == group.conductor and twin.label.family == "BI"
        # a pickle or deep copy carries the closure's form, so classify runs no closure
        assert classify(twin.group).family == "BI"
    for twin in (copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
        assert twin == sub and twin._root == group and twin._root is not group
        assert twin.table == sub.table
    assert copy.copy(sub)._root is group
    closures = [close_group([Mat2.of(0, 2, Fraction(1, 2), 0)]),  # in a rebased basis
                close_group([Mat2.diag(-1, 1), Mat2.of(0, 1, 1, 0),
                             Mat2.diag(zeta(8), zeta(8, 7))])]  # Q7(4)
    pickles = [pickle.dumps(c) for c in closures]
    monkeypatch.setattr(matgroup, "_closure_cache", {})
    for closure, dumped in zip(closures, pickles):
        for twin in (copy.copy(closure), copy.deepcopy(closure), pickle.loads(dumped)):
            assert twin is not closure and twin == closure and repr(twin) == repr(closure)
            assert twin.table == closure.table and classify(twin) == classify(closure)
            assert twin.form.basis == closure.form.basis
    assert closures[0].form.basis is not None and matgroup._closure_cache == {}


ANALYZE = ["analyze", "--alpha", "1", "--beta", "1", "--gen"]


@pytest.mark.parametrize("argv,code", [
    (ANALYZE + ["[[" + "(" * 300 + "1" + ")" * 300 + ",0],[0,1]]"], 1),
    (["classify", "--gen", "[[" + "-" * 1500 + "1,0],[0,1]]"], 1),
    (["paperlab", "--suite", "bogus"], 2),
    (ANALYZE + ["[[zeta(0),0],[0,1]]"], 1),
    (ANALYZE + ["[[1/0,0],[0,1]]"], 1),
    (ANALYZE + ["[[0,1],[1,0]]"], 2),  # not an automorphism of A(1, 1)
], ids=["deep-nesting", "deep-negation", "unknown-suite", "zeta-0", "one-over-zero",
        "not-an-automorphism"])
def test_cli_rejects_malformed_input_without_traceback(argv, code):
    run = [sys.executable, "-c", "import sys; from duinv.cli import main; sys.exit(main())"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(run + argv, env=env, capture_output=True, text=True)
    assert "Traceback" not in out.stderr
    assert out.returncode == code, out.stderr


def test_cli_runs_as_a_module_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ANALYZE + ["[[-1,0],[0,1]]", "--gen", "[[zeta(6),0],[0,zeta(6)^-1]]"]
    outs = [subprocess.run([sys.executable, "-m", module, *argv],
                           env=env, capture_output=True, text=True)
            for module in ("duinv", "duinv.cli")]
    for out in outs:
        assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(outs[0].stdout)["group"]["order"] == 12
    assert outs[0].stdout == outs[1].stdout


@pytest.mark.parametrize("argv", [
    ANALYZE + ["[[-1,0],[0,1]]"],
    ["classify", "--gen", "[[0,1],[1,0]]"],
    ["paperlab", "--suite", "jordan-plane"],
], ids=["analyze", "classify", "paperlab"])
def test_cli_on_a_closed_stdout_exits_141_without_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # nothing will ever read what the command writes
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        out = subprocess.run([sys.executable, "-m", "duinv", *argv], env=env,
                             stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr, out.stderr
    assert out.returncode == 141, out.stderr
