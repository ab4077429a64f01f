"""
Self-tests of the benchmark harness (not of duinv).  Run from the
repository root:

    python3 perfbench/selftest.py

They cover the tail-percentile rule, self-time arithmetic, golden
comparison, failure accounting, the tracing wrappers and the one-worker
limit.  The few that start workers use tiny inputs and take seconds.
"""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pools  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _record(output=None, raised=None, latency=0.01):
    return {"op": "x", "latency_s": latency, "raised": raised,
            "output": output, "descriptor": {}}


class TailPercentile(unittest.TestCase):
    def test_known_deck_sizes(self):
        self.assertEqual(run.tail_percentile(30), 66)
        self.assertEqual(run.tail_percentile(47), 78)
        self.assertEqual(run.tail_percentile(274), 96)
        self.assertEqual(run.tail_percentile(20), 50)

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(11, 400):
            values = [float(v) for v in range(n)]
            p = run.tail_percentile(n)
            beyond = sum(1 for v in values if v > run.nearest_rank(values, p))
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND, n)
            if p < 100:
                higher = sum(1 for v in values if v > run.nearest_rank(values, p + 1))
                self.assertLess(higher, run.TAIL_BEYOND, n)

    def test_more_decks_keep_at_least_ten_beyond(self):
        for n, decks in ((30, 3), (47, 2), (274, 5)):
            values = [float(v) for v in range(n * decks)]
            p = run.tail_percentile(n)
            beyond = sum(1 for v in values if v > run.nearest_rank(values, p))
            self.assertGreaterEqual(beyond, run.TAIL_BEYOND * decks)

    def test_sample_count_is_reported(self):
        rows = [(0, {"id": str(i)}, {"peak_rss_mb": 1.0, "setup_s": 0.1},
                 _record(latency=float(i))) for i in range(30)]
        outcomes = [("ok", "")] * 30
        metrics, info = run.end_to_end(rows, [0.1], outcomes, 30)
        self.assertEqual((info["tail_percentile"], info["tail_samples"]), (66, 30))
        self.assertEqual(info["tail_beyond"], 10)
        self.assertAlmostEqual(metrics["latency_tail_s"][0], 19.0, delta=0.5)
        self.assertAlmostEqual(metrics["latency_p50_s"][0], 14.5, places=6)

    def test_harrell_davis(self):
        self.assertAlmostEqual(run.harrell_davis([3.0] * 7, 0.9), 3.0)
        self.assertEqual(run.harrell_davis([2.0], 0.5), 2.0)
        values = [float(v) for v in range(101)]
        self.assertAlmostEqual(run.harrell_davis(values, 0.5), 50.0, places=6)
        estimates = [run.harrell_davis(values, q / 100) for q in range(5, 100, 5)]
        self.assertEqual(estimates, sorted(estimates))
        for q, est in zip(range(5, 100, 5), estimates):
            self.assertAlmostEqual(est, run.nearest_rank(values, q), delta=1.5)

    def test_one_noisy_sample_cannot_swap_the_estimate(self):
        # Two ops of cost 1 and 2, ten copies each: the nearest-rank median
        # jumps from 1 to 2 when one copy of the cheap op runs slow.
        values = [1.0] * 10 + [2.0] * 10
        noisy = [1.0] * 9 + [2.1] + [2.0] * 10
        self.assertEqual((run.nearest_rank(values, 50), run.nearest_rank(noisy, 50)), (1.0, 2.0))
        self.assertLess(run.harrell_davis(noisy, 0.5) - run.harrell_davis(values, 0.5), 0.25)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["a", 0.0, 10.0, -1, 1],
            ["b", 1.0, 4.0, 0, 1],
            ["c", 2.0, 3.0, 1, 1],
            ["d", 5.0, 9.0, 0, 1],
            ["a", 6.0, 7.0, 3, 1],  # recursion: a inside d inside a
        ]
        t = tracing.span_totals(spans)
        self.assertAlmostEqual(t["a"]["self_s"], (10 - 3 - 4) + 1)
        self.assertAlmostEqual(t["b"]["self_s"], 2)
        self.assertAlmostEqual(t["c"]["self_s"], 1)
        self.assertAlmostEqual(t["d"]["self_s"], 3)
        self.assertEqual(t["a"]["calls"], 2)
        self.assertAlmostEqual(t["a"]["total_s"], 10)  # the inner a is not added
        self.assertAlmostEqual(t["d"]["total_s"], 4)

    def test_overlapping_children_are_covered_once(self):
        spans = [["p", 0.0, 10.0, -1, 1], ["x", 1.0, 5.0, 0, 1],
                 ["y", 3.0, 7.0, 0, 1], ["z", 9.0, 12.0, 0, 1]]
        self.assertAlmostEqual(tracing.span_totals(spans)["p"]["self_s"], 10 - 6 - 1)

    def test_tracer_records_parents(self):
        ticks = iter(range(100))
        tr = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tr.span("inner", lambda: None)
        outer = tr.span("outer", lambda: inner())
        outer()
        self.assertEqual([s[3] for s in tr.spans], [-1, 0])
        t = tracing.span_totals(tr.spans)
        self.assertAlmostEqual(t["outer"]["self_s"], 2)
        self.assertAlmostEqual(t["inner"]["self_s"], 1)


class Judging(unittest.TestCase):
    def test_corrupted_golden_value_is_a_failure(self):
        golden = run.load_golden("sweep")
        op = pools.sweep_pool()[0]
        out = copy.deepcopy(golden[op["id"]])
        self.assertEqual(run.judge("sweep", op, _record(out), golden)[0], "ok")
        bad = copy.deepcopy(golden)
        bad[op["id"]]["num"][0] += 1
        outcome, why = run.judge("sweep", op, _record(out), bad)
        self.assertEqual(outcome, "mismatch")
        self.assertIn("num", why)

    def test_corrupted_analyze_report_is_a_failure(self):
        golden = run.load_golden("analyze-cold")
        op = next(o for o in pools.analyze_pool() if o["id"] == "BT")
        text = json.dumps(golden["BT"]["report"])
        ok = {"exit": 0, "stdout": text, "traceback": False}
        self.assertEqual(run.judge("analyze-cold", op, _record(ok), golden)[0], "ok")
        bad = copy.deepcopy(golden)
        bad["BT"]["report"]["bireflections"]["count"] += 1
        self.assertEqual(run.judge("analyze-cold", op, _record(ok), bad)[0], "mismatch")

    def test_raising_reject_is_a_failure(self):
        golden = run.load_golden("analyze-cold")
        op = next(o for o in pools.analyze_pool() if o["id"] == "reject-singular")
        rec = _record(raised="ValueError: boom")
        self.assertEqual(run.judge("analyze-cold", op, rec, golden)[0], "raised")
        wrong_exit = _record({"exit": 0, "stdout": "", "traceback": False})
        self.assertEqual(run.judge("analyze-cold", op, wrong_exit, golden)[0], "mismatch")

    def test_only_known_defects_keep_a_run_correct(self):
        ops = [{"id": "a"}, {"id": "b", "known_defect": "uncaught X"}]
        failed, unexpected = run.tally(ops, [("ok", ""), ("raised", "X")])
        self.assertEqual((failed, unexpected), (1, []))
        failed, unexpected = run.tally(ops, [("raised", "Y"), ("raised", "X")])
        self.assertEqual(failed, 2)
        self.assertEqual([u[0] for u in unexpected], ["a"])

    def test_golden_suite_counts_cover_run_suite(self):
        golden = run.load_golden("paperlab")
        self.assertEqual(sum(golden.values()), pools.SUITE_CHECKS)
        self.assertEqual(sorted(golden),
                         sorted(op["id"] for op in pools._suite_ops()))

    def test_decks_are_seeded_and_keep_their_multiset(self):
        for workload in pools.WORKLOADS:
            a, b = pools.deck(workload, 1), pools.deck(workload, 1)
            self.assertEqual(a, b)
        sweep = [pools.deck("sweep", s)[0] for s in (1, 2)]
        self.assertNotEqual([o["id"] for o in sweep[0]], [o["id"] for o in sweep[1]])
        self.assertEqual(sorted(o["id"] for o in sweep[0]),
                         sorted(o["id"] for o in sweep[1]))
        self.assertEqual(len(sweep[0]), 274)

    def test_sweep_touches_each_group_first_in_a_fixed_order(self):
        groups = pools._sweep_groups()
        firsts = [pools.deck("sweep", s)[0][:len(groups)] for s in (1, 2)]
        self.assertEqual(firsts[0], firsts[1])
        self.assertEqual([(o["family"], o["n"]) for o in firsts[0]], groups)


class Tracing(unittest.TestCase):
    SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import duinv, duinv.cli, duinv.matgroup as mg, duinv.invariants as inv
import tracing
original_molien = inv.molien
del mg.classify  # stands for a function a refactor removed
tr = tracing.Tracer()
absent = tracing.install(tr)
wrapped = {
    "package_reexport": duinv.molien is not original_molien,
    "from_import_copy": inv.molien is duinv.molien,
    "cache_info": mg.eigenvalues.cache_info().misses == 0,
    "order_cache_info": hasattr(mg.Mat2.order, "cache_info"),
    "cli_main": hasattr(duinv.cli.main, "__wrapped__"),
}
from duinv.matgroup import mat_c
from duinv.cycnum import zeta
inv.molien(inv.AlgebraCtx.down_up(1, 1), mg.close_group([mat_c(zeta(3))]))
inv.theorem03_report(1, 1, [mat_c(zeta(5))])
names = sorted({s[0] for s in tr.spans})
print(json.dumps({"absent": absent, "wrapped": wrapped, "names": names,
                  "muls": tr.counts["cycnum.mul"], "hits": mg.eigenvalues.cache_info().hits}))
"""

    def test_wrappers_by_identity(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
        out = subprocess.run([sys.executable, "-c", self.SCRIPT, HERE], env=env,
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stderr)
        res = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(res["absent"], ["matgroup.classify"])
        self.assertTrue(all(res["wrapped"].values()), res["wrapped"])
        for name in ("invariants.molien", "invariants.theorem03_report",
                     "matgroup.close_group", "matgroup.eigenvalues",
                     "intpoly.is_cyclotomic_product", "ratfunc.is_cyclotomic_product"):
            self.assertIn(name, res["names"])
        self.assertGreater(res["muls"], 0)
        self.assertGreater(res["hits"], 0)

    def test_absent_metric_is_reported_not_a_crash(self):
        rows = [(0, {}, {"trace": {"totals": {}, "counts": {}, "caches": {},
                                   "absent": ["matgroup.classify"]}}, _record())]
        names = [("matgroup.classify.calls", "count"), ("cycnum.mul.calls", "count")]
        metrics, absent = run.per_layer(rows, 1.0, names)
        self.assertEqual(absent, ["matgroup.classify"])
        self.assertEqual(metrics["matgroup.classify.calls"], (None, "count"))
        self.assertEqual(metrics["cycnum.mul.calls"], (0, "count"))

    def test_every_layer_metric_has_a_target(self):
        targets = {p for _, _, p in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS}
        targets |= set(tracing.SITE_NAMES.values()) | {tracing.CHECK_SPAN}
        targets |= {p for _, _, p in tracing.CACHE_TARGETS} | {"trace"}
        for name, _ in run.layer_metric_names():
            prefix = name.rpartition(".")[0]
            self.assertIn(prefix, targets, name)
            self.assertTrue(prefix in run.LAYER_MAP or prefix.split(".")[0] in run.LAYER_MAP,
                            name)


class Processes(unittest.TestCase):
    def test_never_more_workers_than_cores(self):
        live, peak = [], [0]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            runner = run.Runner("analyze-cold", tmp, time.monotonic() + 120)
            spawn = runner._spawn

            def counting_spawn(argv):
                alive = [p for p in live if p.poll() is None]
                peak[0] = max(peak[0], len(alive) + 1)
                proc = spawn(argv)
                live.append(proc)
                return proc

            runner._spawn = counting_spawn
            ops = [o for o in pools.analyze_pool()
                   if o["id"] in ("reject-parse", "reject-singular")]
            runner.run([])
            rows = run.run_decks(runner, [[[op] for op in ops]], trace=False)
        self.assertEqual(len(rows), 2)
        self.assertEqual(len(live), 3)
        self.assertTrue(all(p.returncode is not None for p in live))
        self.assertEqual(peak[0], 1)
        self.assertLessEqual(peak[0], os.cpu_count())


if __name__ == "__main__":
    unittest.main()
