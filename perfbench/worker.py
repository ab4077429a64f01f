"""
Benchmark worker: one fresh interpreter that imports duinv, runs a list of
ops and writes what it observed to a JSON file.

    python3 perfbench/worker.py JOB.json

The job names the workload, the duinv source directory, the ops, whether
to trace, and where to write the result.  The worker only measures and
records; run.py judges every output against the golden files.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import resource
import sys
import time

import tracing


def _sweep_generators(family: str, n: int):
    from duinv.cycnum import zeta
    from duinv.matgroup import mat_c, mat_c_minus, mat_d1, mat_s, mat_s1
    return {
        "Q1": lambda: [mat_c(zeta(n))],
        "Q2": lambda: [mat_d1(), mat_c(zeta(2 * n))],
        "Q3": lambda: [mat_d1(), mat_c(zeta(n))],
        "Q4": lambda: [mat_c_minus(zeta(4 * n))],
        "Q5": lambda: [mat_s1(), mat_c(zeta(2 * n))],
        "Q6": lambda: [mat_s(), mat_c(zeta(n))],
        "Q7": lambda: [mat_d1(), mat_s(), mat_c(zeta(2 * n))],
        "Q8": lambda: [mat_s(), mat_c_minus(zeta(4 * n))],
        "C": lambda: [mat_c(zeta(n))],
        "BD": lambda: [mat_s1(), mat_c(zeta(2 * n))],
    }[family]()


def _report_digest(rep) -> dict:
    """The parts of a theorem03 report the golden sweep file pins down."""
    return {
        "order": len(rep.group),
        "label": [rep.label.family, rep.label.n],
        "num": list(rep.hilbert_series.num.coeffs),
        "den": list(rep.hilbert_series.den.coeffs),
        "hdet_trivial": rep.hdet_trivial,
        "gorenstein_by_hdet": rep.gorenstein_by_hdet,
        "gorenstein_by_stanley": rep.gorenstein_by_stanley,
        "as_index": rep.as_index,
        "cyclotomic": rep.cyclotomic,
        "cyclotomic_factors": ([list(f) for f in rep.cyclotomic_factors]
                               if rep.cyclotomic_factors is not None else None),
        "bireflection_count": rep.bireflection_count,
        "generated_by_bireflections": rep.generated_by_bireflections,
        "condition_c2": rep.condition_c2,
        "condition_c3": rep.condition_c3,
        "consistent": rep.consistent,
    }


def _sweep_op(duinv, op, tracer):
    gens = _sweep_generators(op["family"], op["n"])

    def run():
        return duinv.invariants.theorem03_report(op["alpha"], op["beta"], gens)

    def digest(rep):
        out = _report_digest(rep)
        return out, {"order": out["order"], "conductor": rep.group.conductor,
                     "num_degree": rep.hilbert_series.num.deg()}

    return run, digest


def _analyze_op(duinv, op, tracer):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = duinv.cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def digest(result):
        code, text, err = result
        desc = {}
        if code == 0:
            try:
                report = json.loads(text)
                desc = {"order": report["group"]["order"],
                        "num_degree": len(report["series"]["num"]) - 1}
            except (ValueError, KeyError, TypeError):
                pass
        return {"exit": code, "stdout": text, "traceback": "Traceback" in err}, desc

    return run, digest


def _paperlab_op(duinv, op, tracer):
    if op["suite"] == "cyclotomic-test":
        poly = _family_numerator(op["family"], op["n"])

        def run():
            return duinv.intpoly.is_cyclotomic_product(poly)

        return run, lambda fact: ({"cyclotomic": fact is not None},
                                  {"num_degree": poly.deg()})
    fn = getattr(duinv.paperlab, op["fn"])
    if tracer is not None:
        fn = tracer.span(tracing.CHECK_SPAN, fn)

    def digest(results):
        failed = [[r.check_id, dict(r.parameters)] for r in results if not r.passed]
        return {"checks": len(results), "failed_checks": failed}, {}

    return lambda: fn(*op["args"]), digest


OPS = {"sweep": _sweep_op, "analyze-cold": _analyze_op, "paperlab": _paperlab_op}


def _family_numerator(family: str, n: int):
    """(1+t^n+t^2n)(1+t^4)+2t^(n+2) or (1+t^2n)(1+t^4)+4t^(n+2)."""
    from duinv.intpoly import IntPoly, x_pow
    one_t4 = IntPoly((1, 0, 0, 0, 1))
    if family == "one":
        return (IntPoly((1,)) + x_pow(n) + x_pow(2 * n)) * one_t4 + 2 * x_pow(n + 2)
    return (IntPoly((1,)) + x_pow(2 * n)) * one_t4 + 4 * x_pow(n + 2)


def run_job(job: dict) -> dict:
    start = time.perf_counter()
    import duinv
    import duinv.cli  # noqa: F401  (the CLI user's import)
    setup_s = time.perf_counter() - start
    src = os.path.realpath(job["src"])
    where = os.path.realpath(duinv.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"duinv was imported from {where}, not from {src}")

    tracer = absent = None
    if job["trace"]:
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)

    records = []
    for op in job["ops"]:
        rec = {"op": op["id"], "latency_s": None, "raised": None,
               "output": None, "descriptor": {}}
        if tracer is not None:
            tracer.op = op["id"]
        # Inputs are built before the clock starts and digested after it stops.
        try:
            run, digest = OPS[job["workload"]](duinv, op, tracer)
            start = time.perf_counter()
            try:
                value = run()
            finally:
                rec["latency_s"] = time.perf_counter() - start
            rec["output"], rec["descriptor"] = digest(value)
        except Exception as exc:  # an escaping exception is a failed op
            rec["raised"] = f"{type(exc).__name__}: {exc}"[:300]
        records.append(rec)

    out = {"setup_s": setup_s, "records": records,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["trace"] = {"totals": tracing.span_totals(tracer.spans),
                        "counts": dict(tracer.counts),
                        "caches": tracing.cache_stats(),
                        "absent": absent,
                        "spans": len(tracer.spans)}
        if job.get("spans_out"):
            with gzip.open(job["spans_out"], "wt") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return out


def main(argv) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
