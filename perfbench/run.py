"""
The duinv benchmark: one closed-loop client, one worker process at a time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see pools.py for the inputs and BENCHMARK.json for why each
exists):

  sweep         every admissible (algebra, group) pair of the acceptance
                sweep through `theorem03_report`, in one fresh process: the
                first pair of each group in a fixed order, the revisits in
                a seeded order; shared caches pay off here.
  analyze-cold  `duinv analyze` requests through `duinv.cli.main`, each in
                a fresh interpreter; no cache survives a request.
  paperlab      the ten reproduction suites, one check call per op, plus
                the cyclotomic-product test on the two non-cyclotomic
                numerator families at seeded n (always n = 200); two
                sessions per deck, each in a fresh process.

A deck is the seeded multiset of a workload's ops, split into sessions that
each run in a fresh interpreter (pools.py).  A run repeats whole decks
while another deck is expected to fit in --seconds, and always runs at
least one.  Every output is compared with the golden files in
perfbench/golden/; an op fails when its output differs, its exit code is
wrong, or an exception escapes.

With --trace 0 the last line of stdout is the end-to-end result:

  setup_s        import of duinv and duinv.cli in a fresh interpreter,
                 median over the run's probe and worker processes
  ops_per_s      ops that succeeded per second of timed op calls
  latency_p50_s  median latency of the ops that succeeded
  latency_tail_s the highest whole percentile with at least 10 successful
                 samples above it in one deck (percentile and sample count
                 are in the run summary)
  ok_ratio       ops that succeeded / ops attempted (1 - fail ratio; the
                 fail ratio itself is `failed` / `attempted`)
  peak_rss_mb    peak resident set size of the workload's worker processes

Both percentiles are Harrell-Davis estimates, a weighted mean of all order
statistics around the percentile's rank: a little timing noise that swaps
two ops of quite different cost at that rank moves the estimate only a
little.

With --trace 1 the same decks run once untraced and once traced, and the
last line holds the per-layer metrics of the traced pass (tracing.py) and
the tracing overhead.  Per-op records, the run summary and the spans are
written to perfbench/out/<workload>-seed<seed>-trace<t>/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pools  # noqa: E402

SETUP_PROBES = 10  # extra fresh interpreters per run that only import duinv
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

# Per-layer metric -> the end-to-end metrics and workloads it should move.
LAYER_MAP = {
    "matgroup.close_group": "ops_per_s/latency_p50_s on sweep; ops_per_s on paperlab (flag-table)",
    "matgroup.eigenvalues": "latency_tail_s/ops_per_s on analyze-cold; ops_per_s on sweep",
    "matgroup.Mat2.order": "latency_tail_s/ops_per_s on analyze-cold; ops_per_s on sweep",
    "matgroup.classify": "latency_p50_s on sweep",
    "invariants.molien": "ops_per_s on analyze-cold and sweep",
    "invariants.is_bireflection": "ops_per_s on sweep",
    "invariants.bireflection_subgroup": "ops_per_s on sweep",
    "invariants.hdet_matrix": "latency_p50_s on sweep (the floor)",
    "ratfunc.stanley_gorenstein_test": "latency_p50_s on sweep (the floor)",
    "invariants.theorem03_report": "root span of sweep and analyze-cold",
    "ratfunc.RatFunc.make": "ops_per_s on paperlab and analyze-cold; unchanged on sweep",
    "intpoly.poly_gcd_q": "ops_per_s on paperlab and analyze-cold; unchanged on sweep",
    "intpoly.is_cyclotomic_product": "ops_per_s/peak_rss_mb on paperlab; unchanged on sweep",
    "ratfunc.is_cyclotomic_product": "ops_per_s on paperlab and analyze-cold (cancellation)",
    "intpoly.factorize": "ops_per_s/peak_rss_mb on paperlab; unchanged on sweep",
    "cycnum": "ops_per_s on sweep and analyze-cold",
    "cli.parse_matrix": "latency_p50_s on analyze-cold",
    "cli.main": "latency_p50_s on analyze-cold",
    "paperlab.check": "ops_per_s on paperlab",
    "trace": "overhead_ratio: traced / untraced timed seconds on the same decks",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(samples_per_deck: int) -> int:
    """Highest whole percentile p with at least TAIL_BEYOND of the samples above it."""
    n = samples_per_deck
    return max(0, 100 * (n - TAIL_BEYOND) // n) if n > 0 else 0


def nearest_rank(values, p: int) -> float:
    """The p-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    idx = max(0, (p * len(ordered) + 99) // 100 - 1)
    return ordered[idx]


def harrell_davis(values, q: float, steps: int = 16) -> float:
    """
    The Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by the Beta(q(n+1), (1-q)(n+1)) mass of each 1/n of [0, 1],
    integrated by the midpoint rule with `steps` points per interval.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

def load_golden(workload: str) -> dict:
    name = {"sweep": "sweep", "analyze-cold": "analyze", "paperlab": "paperlab"}[workload]
    path = os.path.join(HERE, "golden", f"{name}.json")
    if not os.path.isfile(path):
        raise BenchError(f"missing golden file {path}")
    with open(path) as fh:
        return json.load(fh)


def judge(workload: str, op: dict, rec: dict, golden: dict) -> tuple[str, str]:
    """("ok" | "mismatch" | "raised", reason) for one op record."""
    if rec["raised"] is not None:
        return "raised", rec["raised"]
    out = rec["output"]
    if workload == "sweep":
        want = golden.get(op["id"])
        if want is None:
            return "mismatch", "no golden output"
        diff = sorted(k for k in set(want) | set(out) if want.get(k) != out.get(k))
        if diff:
            return "mismatch", "differs in " + ", ".join(diff)
        if not (out["consistent"] and out["condition_c2"] == out["condition_c3"]):
            return "mismatch", "C2 and C3 disagree"
        if out["gorenstein_by_hdet"] != out["gorenstein_by_stanley"]:
            return "mismatch", "hdet and Stanley disagree"
        return "ok", ""
    if workload == "analyze-cold":
        want = golden.get(op["id"])
        if want is None:
            return "mismatch", "no golden output"
        if out["exit"] not in want["exit"]:
            return "mismatch", f"exit {out['exit']}, expected one of {want['exit']}"
        if out["traceback"]:
            return "mismatch", "traceback on stderr"
        if "report" in want:
            try:
                got = json.loads(out["stdout"])
            except ValueError:
                return "mismatch", "stdout is not JSON"
            if got != want["report"]:
                return "mismatch", "report differs from golden"
        return "ok", ""
    if op["suite"] == "cyclotomic-test":
        # Family one is cyclotomic only at n = 1, family two never.
        if out["cyclotomic"]:
            return "mismatch", "non-cyclotomic numerator reported cyclotomic"
        return "ok", ""
    if out["failed_checks"]:
        return "mismatch", f"failed checks {out['failed_checks']}"
    if out["checks"] != golden.get(op["id"]):
        return "mismatch", f"{out['checks']} checks, golden {golden.get(op['id'])}"
    return "ok", ""


def tally(ops, outcomes) -> tuple[int, list]:
    """
    (failed, unexpected): every op that did not come out "ok" has failed;
    those not marked as a known defect of the library are unexpected and
    make the run incorrect.
    """
    failed = sum(1 for o, _ in outcomes if o != "ok")
    unexpected = [(op["id"], o, why) for op, (o, why) in zip(ops, outcomes)
                  if o != "ok" and not op.get("known_defect")]
    return failed, unexpected


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class Runner:
    """
    Starts worker interpreters and collects their results.  Each run() waits
    for its worker to exit, so one worker is alive at a time: a closed loop
    with one client, which leaves the other core of a two-core machine to
    this process.
    """

    def __init__(self, workload: str, out_dir: str, deadline: float):
        self.workload = workload
        self.out_dir = out_dir
        self.deadline = deadline
        self.jobs = 0
        # Bytecode is written next to the sources, so that every import after
        # the first reads it, as an installed package does, even where the
        # caller's environment forbids writing bytecode.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, ops: list[dict], trace: bool = False) -> dict:
        """Run `ops` in a fresh worker; with `trace`, keep its spans in out_dir."""
        self.jobs += 1
        tag = f"job{self.jobs:04d}"
        job = {"workload": self.workload, "src": os.path.join(ROOT, "src"),
               "ops": ops, "trace": trace,
               "out": os.path.join(self.out_dir, f"{tag}.result.json"),
               "spans_out": (os.path.join(self.out_dir, f"spans-{tag}.jsonl.gz")
                             if trace else None)}
        job_path = os.path.join(self.out_dir, f"{tag}.job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        proc = self._spawn([sys.executable, os.path.join(HERE, "worker.py"), job_path])
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} did not finish before the run deadline")
        finally:  # also on SIGTERM (see main): no worker outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not os.path.isfile(job["out"]):
            raise BenchError(f"worker {tag} exited with {proc.returncode}: {err[-2000:]}")
        with open(job["out"]) as fh:
            result = json.load(fh)
        os.remove(job_path)
        os.remove(job["out"])
        return result

    def _spawn(self, argv):
        return subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def run_decks(runner: Runner, decks: list[list[list[dict]]], trace: bool) -> list[tuple]:
    """Run each session of each deck in a fresh worker; (deck, op, worker result, record) per op."""
    rows = []
    for i, sessions in enumerate(decks):
        for ops in sessions:
            res = runner.run(ops, trace)
            rows += [(i, op, res, rec) for op, rec in zip(ops, res["records"])]
    return rows


def plan_decks(runner: Runner, workload: str, seed: int,
               seconds: float) -> tuple[list, list[tuple]]:
    """Untraced whole decks while another is expected to fit in `seconds`; at least one."""
    decks, rows = [], []
    start = time.monotonic()
    while True:
        sessions = pools.deck(workload, seed, len(decks))
        rows += run_decks(runner, [sessions], trace=False)
        decks.append(sessions)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(decks) > seconds:
            return decks, rows


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rows, setup_samples, outcomes, deck_size_ok: int) -> tuple[dict, dict]:
    ok_lat = [rec["latency_s"] for (_, _, _, rec), (o, _) in zip(rows, outcomes) if o == "ok"]
    timed = sum(rec["latency_s"] or 0.0 for _, _, _, rec in rows)
    workers = {id(res): res for _, _, res, _ in rows}
    p = tail_percentile(deck_size_ok)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(ok_lat) / timed if timed > 0 else 0.0, "1/s"),
        "latency_p50_s": (harrell_davis(ok_lat, 0.5) if ok_lat else 0.0, "s"),
        "latency_tail_s": (harrell_davis(ok_lat, p / 100) if ok_lat else 0.0, "s"),
        "ok_ratio": (len(ok_lat) / len(rows), "ratio"),
        "peak_rss_mb": (max(res["peak_rss_mb"] for res in workers.values()), "MB"),
    }
    info = {"tail_percentile": p, "tail_samples": len(ok_lat),
            "tail_beyond": sum(1 for v in ok_lat if v > metrics["latency_tail_s"][0]),
            "setup_samples": len(setup_samples), "timed_s": timed}
    return metrics, info


def per_layer(rows, overhead: float, names) -> tuple[dict, list]:
    """The per-layer metrics `names` ((name, unit) pairs) of traced rows."""
    totals, absent = {}, set()
    eig_hits = eig_seen = fact_entries = 0
    for res in {id(res): res for _, _, res, _ in rows}.values():
        tr = res["trace"]
        absent.update(tr["absent"])
        counted = {name: {"calls": c} for name, c in tr["counts"].items()}
        for name, rec in list(tr["totals"].items()) + list(counted.items()):
            agg = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in rec.items():
                agg[key] += value
        eig = tr["caches"].get("matgroup.eigenvalues")
        if eig:
            eig_hits += eig["hits"]
            eig_seen += eig["hits"] + eig["misses"]
        fact = tr["caches"].get("intpoly.factorize")
        if fact:
            fact_entries = max(fact_entries, fact["entries"])
    derived = {"matgroup.eigenvalues.cache_hit_ratio": eig_hits / eig_seen if eig_seen else 0.0,
               "intpoly.factorize.cache_entries": fact_entries,
               "trace.overhead_ratio": overhead}
    out = {}
    for name, unit in names:
        prefix, _, field = name.rpartition(".")
        if prefix in absent:
            out[name] = (None, unit)
        elif name in derived:
            out[name] = (derived[name], unit)
        else:
            out[name] = (totals.get(prefix, {}).get(field, 0), unit)
    return out, sorted(absent)


def layer_metric_names() -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "duinv", "__init__.py")):
        raise BenchError(f"no duinv sources under {os.path.join(ROOT, 'src')}")
    golden = load_golden(workload)
    out_dir = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(workload, out_dir, time.monotonic() + RUN_DEADLINE_S)

    runner.run([])  # writes bytecode caches; its import time is not a sample
    # Probes before and after the decks, since the host's speed drifts.
    setup_samples = [runner.run([])["setup_s"] for _ in range(SETUP_PROBES // 2)]
    decks, rows = plan_decks(runner, workload, seed, seconds)
    setup_samples += [runner.run([])["setup_s"] for _ in range(SETUP_PROBES // 2)]
    traced_rows = run_decks(runner, decks, trace=True) if trace else []

    all_rows = rows + traced_rows
    outcomes = [judge(workload, op, rec, golden) for _, op, _, rec in all_rows]
    setup_samples += [res["setup_s"] for res in {id(r[2]): r[2] for r in all_rows}.values()]
    failed, unexpected = tally([op for _, op, _, _ in all_rows], outcomes)

    n_plain = len(rows)
    metrics, info = end_to_end(rows, setup_samples, outcomes[:n_plain],
                               pools.expected_ok(decks[0]))
    absent = []
    if trace:
        # Both passes ran the same decks, so their timed totals compare directly.
        traced_s = sum(rec["latency_s"] or 0.0 for _, _, _, rec in traced_rows)
        metrics, absent = per_layer(traced_rows, traced_s / info["timed_s"],
                                    layer_metric_names())

    with open(os.path.join(out_dir, "ops.jsonl"), "w") as fh:
        for i, ((deck_i, op, _, rec), (o, why)) in enumerate(zip(all_rows, outcomes)):
            fh.write(json.dumps({
                "workload": workload, "op": op["id"], "kind": op["kind"],
                "phase": "traced" if i >= n_plain else "untraced", "deck": deck_i,
                "input": {k: op.get(k) for k in ("family", "n", "alpha", "beta", "suite")
                          if op.get(k) is not None} | rec["descriptor"],
                "outcome": o, "reason": why, "known_defect": op.get("known_defect"),
                "latency_s": rec["latency_s"]}) + "\n")
    result = {"correct": not unexpected, "attempted": len(all_rows), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    summary = dict(result, workload=workload, seed=seed, seconds=seconds,
                   trace=trace, decks=len(decks), deck_ops=sum(map(len, decks[0])),
                   unexpected_failures=unexpected, absent=absent,
                   layer_map=LAYER_MAP, **info)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    for op_id, o, why in unexpected[:10]:
        print(f"FAILED {op_id}: {o}: {why}", file=sys.stderr)
    print(f"{workload}: {len(decks)} deck(s) of {summary['deck_ops']} ops; latency_tail_s is "
          f"p{info['tail_percentile']} of {info['tail_samples']} samples", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
