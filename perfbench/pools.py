"""
The fixed input pools of the three workloads, and the seeded decks drawn
from them.

This module is plain data and must not import duinv: run.py imports it in
a process that never loads the library.  A deck is the unit of work a
run repeats.  It holds the same multiset of ops for every seed, apart from
the seeded sample of cyclotomic tests in paperlab, so runs with different
seeds do (about) the same work in a different order.
"""
from __future__ import annotations

import random

WORKLOADS = ("sweep", "analyze-cold", "paperlab")

# ---------------------------------------------------------------------------
# sweep: every admissible (algebra, group) pair of the acceptance sweep
# ---------------------------------------------------------------------------

SWEEP_ALGEBRAS = ((1, 1), (0, 1), (2, -1), (3, -1))
# Down-up algebras whose automorphisms are the diagonal matrices only.
DIAGONAL_ONLY = {(1, 1)}
DIAGONAL_FAMILIES = {"Q1", "Q2", "Q3", "Q4", "C"}


def _sweep_groups():
    """(family, n) for Q1..Q8 with n <= 8, C_m with m <= 12, BD_4m with m <= 6."""
    groups = []
    for n in range(1, 9):
        for fam in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"):
            if fam == "Q3" and n % 2 == 0:
                continue
            groups.append((fam, n))
    groups += [("C", m) for m in range(1, 13)]
    groups += [("BD", m) for m in range(1, 7)]
    return groups


def sweep_pool() -> list[dict]:
    ops = []
    for alpha, beta in SWEEP_ALGEBRAS:
        for fam, n in _sweep_groups():
            if (alpha, beta) in DIAGONAL_ONLY and fam not in DIAGONAL_FAMILIES:
                continue
            ops.append({"id": f"A({alpha},{beta})/{fam}({n})", "kind": "analysis",
                        "family": fam, "n": n, "alpha": alpha, "beta": beta})
    return ops


def _sweep_deck(rng: random.Random) -> list[dict]:
    """
    The first pair of each group, in the fixed group order, then every
    other pair in a seeded order.  A group's first pair fills the closure,
    Molien and eigenvalue caches, so the first pairs are most of the slow
    ops, and their cost depends on which groups were filled before them: a
    seeded order of first pairs moved the latency tail from seed to seed
    by more than its bound.  Every revisit comes after all first pairs, so
    a bounded cache still has to hold every group to pay off.
    """
    ops = sweep_pool()
    first = {}
    for op in ops:
        first.setdefault((op["family"], op["n"]), op)
    cold = [first[g] for g in _sweep_groups()]
    warm = [op for op in ops if op not in cold]
    rng.shuffle(warm)
    return cold + warm


# ---------------------------------------------------------------------------
# analyze-cold: `duinv analyze` requests, each in a fresh interpreter
# ---------------------------------------------------------------------------

def _c(root: str) -> str:
    return f"[[{root},0],[0,{root}^-1]]"


def _cm(root: str) -> str:
    return f"[[-{root},0],[0,{root}^-1]]"


D1, S, S1 = "[[-1,0],[0,1]]", "[[0,1],[1,0]]", "[[0,1],[-1,0]]"
BT_GENS = ["[[i,0],[0,-i]]", "[[1/2*(1+i),1/2*(1+i)],[1/2*(-1+i),1/2*(1-i)]]"]
ZETA8 = _c("zeta(8)")

# (id, family, n, alpha, beta, generators, expected exit codes, known defect)
# Analyses expect exit 0 and the golden JSON report; rejects expect one of
# the documented exit codes (1 bad input, 2 not an automorphism, 3 closure
# failed) and no escaping exception.  `known_defect` marks requests that
# raise an uncaught exception at the commit that introduced this benchmark;
# they stay in the pool and count as failures until the library handles them.
_ANALYZE = (
    ("Q1(24)", "Q1", 24, "1", "1", [_c("zeta(24)")], [0], None),
    ("Q2(6)", "Q2", 6, "1", "1", [D1, _c("zeta(12)")], [0], None),
    ("Q4(8)", "Q4", 8, "1", "1", [_cm("zeta(32)")], [0], None),
    ("Q1(32)", "Q1", 32, "0", "1", [_c("zeta(32)")], [0], None),
    ("Q7(4)", "Q7", 4, "3", "-1", [D1, S, _c("zeta(8)")], [0], None),
    ("Q8(4)", "Q8", 4, "3", "-1", [S, _cm("zeta(16)")], [0], None),
    ("Q5(8)", "Q5", 8, "3", "-1", [S1, _c("zeta(16)")], [0], None),
    ("Q6(16)", "Q6", 16, "3", "-1", [S, _c("zeta(16)")], [0], None),
    ("Q6(14)", "Q6", 14, "3", "-1", [S, _c("zeta(14)")], [0], None),
    ("Q5(7)", "Q5", 7, "3", "-1", [S1, _c("zeta(14)")], [0], None),
    ("Q7(8)", "Q7", 8, "3", "-1", [D1, S, _c("zeta(16)")], [0], None),
    ("BT", "BT", None, "0", "1", BT_GENS, [0], None),
    ("BO", "BO", None, "2", "-1", [BT_GENS[1], ZETA8], [0], None),
    ("reject-parse", None, None, "1", "1", ["[[zeta(,0],[0,1]]"], [1], None),
    ("reject-not-automorphism", None, None, "1", "1", [S], [2], None),
    ("reject-singular", None, None, "1", "1", ["[[1,0],[0,0]]"], [3], None),
    ("reject-infinite-order", None, None, "1", "1", ["[[2,0],[0,1/2]]"], [3], None),
    ("reject-zero-conductor", None, None, "1", "1", ["[[zeta(0),0],[0,1]]"], [1],
     "uncaught ZeroConductor"),
    ("reject-conductor-overflow", None, None, "1", "1",
     ["[[zeta(1000),0],[0,zeta(1001)]]"], [1, 3], "uncaught PromotionOverflow"),
)

# Each deck holds every pool request this many times, so that a deck has
# enough successful samples for a tail percentile above the median.
ANALYZE_COPIES = 2


def analyze_pool() -> list[dict]:
    ops = []
    for rid, fam, n, alpha, beta, gens, exits, defect in _ANALYZE:
        argv = ["analyze", "--alpha", alpha, "--beta", beta]
        for g in gens:
            argv += ["--gen", g]
        ops.append({"id": rid, "kind": "analysis" if exits == [0] else "reject",
                    "family": fam, "n": n, "alpha": alpha, "beta": beta,
                    "argv": argv, "expect_exit": exits, "known_defect": defect})
    return ops


# ---------------------------------------------------------------------------
# paperlab: the ten suites at their default range, one check call per op,
# plus the cyclotomic-product test on the two non-cyclotomic families
# ---------------------------------------------------------------------------

MAX_N = 8


def _suite_ops() -> list[dict]:
    """The calls `paperlab.run_suite("all", 8)` makes, in its order (suites by name)."""
    calls = []
    calls += [("cyclic-diagonal", "check_cyclic_diagonal_series", [n])
              for n in range(2, MAX_N + 1)]
    calls += [("reflection-extended", "check_reflection_extended_series", [n])
              for n in range(1, MAX_N + 1)]
    calls += [("odd-reflection", "check_odd_reflection_series", [n])
              for n in range(1, MAX_N + 1, 2)]
    calls += [("rotated-cyclic", "check_rotated_cyclic_series", [n])
              for n in range(1, MAX_N + 1)]
    calls.append(("noncyclotomic", "sweep_noncyclotomic_families", [max(MAX_N, 8)]))
    calls += [("three-variable", "check_three_variable_numerator", [n])
              for n in range(3, MAX_N + 1, 2)]
    calls.append(("jordan-plane", "check_jordan_negation_series", []))
    calls += [("four-variable", "check_four_variable_average", list(vw))
              for vw in ((1, 1), (1, 2), (2, 3))]
    calls.append(("flag-table", "reproduce_flag_table", [MAX_N]))
    calls.append(("involution-hdet", "check_involution_hdets", []))
    return [{"id": f"{fn}({','.join(map(str, args))})", "kind": "check",
             "suite": suite, "fn": fn, "args": args}
            for suite, fn, args in sorted(calls, key=lambda call: call[0])]


SUITE_CHECKS = 175  # CheckResults that run_suite("all", 8) returns
CYC_N_FIXED = 200  # degree-404 numerators, always sampled
# One n per window and family.  The windows are narrow so that every seed
# costs about the same: the test's cost grows with the square of the degree.
# Below the six slowest ops of a deck (the flag table and both n = 200 tests,
# in each session) the two upper windows give eight tests of similar cost,
# so the deck's tail percentile (its 11th slowest op) falls inside that
# group rather than on a gap between two groups of quite different cost.
CYC_WINDOWS = ((40, 50), (90, 100), (120, 130), (140, 150))


def _cyc_ops(rng: random.Random) -> list[dict]:
    """One seeded n per window and family, plus n = 200 for both families."""
    ops = []
    for family in ("one", "two"):
        ns = [CYC_N_FIXED] + [rng.randrange(lo, hi) for lo, hi in CYC_WINDOWS]
        for n in ns:
            ops.append({"id": f"cyclotomic-family-{family}({n})", "kind": "check",
                        "suite": "cyclotomic-test", "family": family, "n": n,
                        "degree": 2 * n + 4})
    return ops


def _paperlab_session(rng: random.Random) -> list[dict]:
    """
    The suites in run_suite's order, then the cyclotomic tests.  The suites
    share closure and Molien caches, so a seeded order would move cost from
    op to op between seeds; the seed picks the cyclotomic sample and orders
    it.  Family one at n = 200 runs first of the cyclotomic tests: it fills
    the factorize cache that every later test reads.
    """
    cyc = _cyc_ops(rng)
    rest = cyc[1:]
    rng.shuffle(rest)
    return _suite_ops() + cyc[:1] + rest


# ---------------------------------------------------------------------------
# decks
# ---------------------------------------------------------------------------

# Each paperlab deck runs this many sessions, each in a fresh interpreter
# with its own cyclotomic sample, so that a deck's median check samples more
# than one stretch of the host's drifting speed.
PAPERLAB_SESSIONS = 2


def deck(workload: str, seed: int, index: int = 0) -> list[list[dict]]:
    """
    The `index`-th seeded deck of a workload, as its sessions: each session
    is a list of ops that runs in one fresh interpreter.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sweep":
        return [_sweep_deck(rng)]
    if workload == "analyze-cold":
        ops = analyze_pool() * ANALYZE_COPIES
        rng.shuffle(ops)
        return [[op] for op in ops]
    if workload == "paperlab":
        return [_paperlab_session(rng) for _ in range(PAPERLAB_SESSIONS)]
    raise ValueError(f"unknown workload {workload!r}")


def expected_ok(sessions: list[list[dict]]) -> int:
    """Ops of a deck expected to succeed: all but the known defects."""
    return sum(1 for ops in sessions for op in ops if not op.get("known_defect"))
