"""
Golden answers on inputs larger than the benchmark's: Molien series of
Q1(128) on A(1,1) and of Q7(32) and Q8(32) on A(0,1), and full reports on
the binary tetrahedral, octahedral and icosahedral groups.  They guard the
Molien accumulation, the rational-function reduction and the MatForm closure
on sizes the sweep and the analyze requests do not reach.  Reports are
digested as the benchmark digests them (perfbench/worker.py).

Regenerate tests/golden/large.json only at a commit whose answers are known
to be right, from the repository root:

    PYTHONPATH=src python3 tests/large_golden.py
"""
import json
import pathlib
import sys

from duinv.invariants import AlgebraCtx, molien, theorem03_report
from duinv.matgroup import standard_group
from duinv.notation import parse_matrix

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "large.json"

# name: (alpha, beta, family, n) of standard_group(family, n) on A(alpha, beta)
MOLIEN = {
    "Q1(128) on A(1,1)": (1, 1, 1, 128),
    "Q7(32) on A(0,1)": (0, 1, 7, 32),
    "Q8(32) on A(0,1)": (0, 1, 8, 32),
}

_Z5 = "zeta(5)"
_ROOT5 = f"({_Z5}+{_Z5}^4-{_Z5}^2-{_Z5}^3)"  # the Gauss sum, sqrt(5)
_BT = ["[[i,0],[0,-i]]", "[[1/2*(1+i),1/2*(1+i)],[1/2*(-1+i),1/2*(1-i)]]"]
# name: (alpha, beta, generators in the command-line notation)
REPORTS = {
    "BT on A(0,1)": (0, 1, _BT),
    "BO on A(0,1)": (0, 1, [_BT[1], "[[zeta(8),0],[0,zeta(8)^7]]"]),
    "BI on A(0,1)": (0, 1, [
        f"[[-1*{_Z5}^3,0],[0,-1*{_Z5}^2]]",
        # (zeta - zeta^4)/sqrt(5) and (zeta^2 - zeta^3)/sqrt(5), with 1/sqrt(5) = sqrt(5)/5
        f"[[-1/5*({_Z5}-{_Z5}^4)*{_ROOT5},1/5*({_Z5}^2-{_Z5}^3)*{_ROOT5}],"
        f"[1/5*({_Z5}^2-{_Z5}^3)*{_ROOT5},1/5*({_Z5}-{_Z5}^4)*{_ROOT5}]]"]),
}


def answers(report_digest) -> dict:
    """Every golden answer as JSON data; report_digest is worker._report_digest."""
    out = {}
    for name, (alpha, beta, family, n) in MOLIEN.items():
        series = molien(AlgebraCtx.down_up(alpha, beta), standard_group(family, n))
        out[name] = {"num": list(series.num.coeffs), "den": list(series.den.coeffs)}
    for name, (alpha, beta, gens) in REPORTS.items():
        out[name] = report_digest(theorem03_report(alpha, beta, [parse_matrix(g) for g in gens]))
    return json.loads(json.dumps(out))


def main() -> int:
    sys.path.append(str(HERE.parent / "perfbench"))
    from worker import _report_digest
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(answers(_report_digest), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
