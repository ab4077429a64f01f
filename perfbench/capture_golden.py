"""
Regenerate the golden outputs in perfbench/golden/ from the library as it
stands.  Run from the repository root:

    python3 perfbench/capture_golden.py

Only do this at a commit whose outputs are known to be right: the benchmark
counts every later difference from these files as a failed op.  Reject
requests are judged by their documented exit codes (pools.py), not by what
the library did at capture time; that outcome is kept for the record.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pools  # noqa: E402
from run import HERE, Runner  # noqa: E402


def _write(name: str, data: dict):
    with open(os.path.join(HERE, "golden", name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        deadline = time.monotonic() + 3600

        ops = pools.sweep_pool()
        res = Runner("sweep", tmp, deadline).run(ops)
        sweep = {}
        for op, rec in zip(ops, res["records"]):
            if rec["raised"]:
                raise SystemExit(f"{op['id']} raised {rec['raised']}")
            sweep[op["id"]] = rec["output"]
        _write("sweep.json", sweep)

        analyze = {}
        runner = Runner("analyze-cold", tmp, deadline)
        for op in pools.analyze_pool():
            rec = runner.run([op])["records"][0]
            entry = {"exit": op["expect_exit"]}
            if rec["raised"]:
                entry["captured"] = f"raised {rec['raised']}"
            else:
                entry["captured"] = f"exit {rec['output']['exit']}"
            if op["expect_exit"] == [0]:
                if rec["raised"] or rec["output"]["exit"] != 0:
                    raise SystemExit(f"{op['id']}: {entry['captured']}")
                entry["report"] = json.loads(rec["output"]["stdout"])
            analyze[op["id"]] = entry
        _write("analyze.json", analyze)

        ops = pools._suite_ops()
        res = Runner("paperlab", tmp, deadline).run(ops)
        paperlab = {}
        for op, rec in zip(ops, res["records"]):
            if rec["raised"] or rec["output"]["failed_checks"]:
                raise SystemExit(f"{op['id']}: {rec['raised'] or rec['output']}")
            paperlab[op["id"]] = rec["output"]["checks"]
        if sum(paperlab.values()) != pools.SUITE_CHECKS:
            raise SystemExit(f"suites returned {sum(paperlab.values())} checks")
        _write("paperlab.json", paperlab)
    return 0


if __name__ == "__main__":
    sys.exit(main())
