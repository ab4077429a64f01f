"""
Command-line front end: parse matrices with cyclotomic entries, analyze a
group action on a down-up algebra, run the reproduction suites, or classify
a matrix group.  JSON goes to stdout, diagnostics to stderr.

Exit codes (analyze and classify; paperlab exits 1 when a check fails):

  0  success
  1  bad input: any error while reading alpha, beta or a matrix (a syntax
     error, zeta(0), beta = 0, ...), or entries whose conductors together
     exceed the supported cap
  2  the matrices do not act on the requested algebra (argparse also exits
     2 on a malformed command line)
  3  group closure failed: singular generator, group too large, or infinite
     order suspected
  4  any other library error (a DuinvError) during the analysis
  141  any command: stdout was closed before the output was written
       (128 + SIGPIPE)
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (DuinvError, GroupTooLarge, InfiniteOrderSuspected,
                     NotAnAutomorphism, PromotionOverflow, SingularGenerator)
from .matgroup import _render_label, classify, close_group
from .invariants import AlgebraCtx, Theorem03Report, theorem03_report
from .notation import parse_matrix, parse_rational, render_matrix
from . import paperlab


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _report_json(report: Theorem03Report) -> dict:
    cyc: dict = {"flag": report.cyclotomic}
    if report.cyclotomic:
        cyc["factors"] = [list(f) for f in report.cyclotomic_factors]
    else:
        cyc["witness"] = list(report.noncyclotomic_witness.coeffs)
    return {
        "schema_version": "1",
        "algebra": {
            "alpha": str(report.ctx.alpha),
            "beta": str(report.ctx.beta),
            "aut_shape": report.ctx.aut_shape.value,
        },
        "group": {
            "order": len(report.group),
            "label": _render_label(report.label.family, report.label.n),
            "all_matches": list(report.label.all_matches),
            "generators": [render_matrix(g) for g in report.group.generators],
        },
        "series": {
            "num": list(report.hilbert_series.num.coeffs),
            "den": list(report.hilbert_series.den.coeffs),
        },
        "hdet_trivial": report.hdet_trivial,
        "gorenstein": {
            "by_hdet": report.gorenstein_by_hdet,
            "by_stanley": report.gorenstein_by_stanley,
            "as_index": report.as_index,
        },
        "cyclotomic": cyc,
        "bireflections": {
            "count": report.bireflection_count,
            "generates": report.generated_by_bireflections,
        },
        "theorem03": {
            "C2": report.condition_c2,
            "C3": report.condition_c3,
            "consistent": report.consistent,
        },
    }


def _report_markdown(report: Theorem03Report) -> str:
    data = _report_json(report)
    rows = [
        ("algebra", f"down-up({data['algebra']['alpha']}, {data['algebra']['beta']})"),
        ("automorphism shape", data["algebra"]["aut_shape"]),
        ("group order", str(data["group"]["order"])),
        ("group label", data["group"]["label"]),
        ("Hilbert series numerator", str(report.hilbert_series.num)),
        ("Hilbert series denominator", str(report.hilbert_series.den)),
        ("hdet trivial", str(data["hdet_trivial"])),
        ("Gorenstein (Stanley test)", str(data["gorenstein"]["by_stanley"])),
        ("AS index", str(data["gorenstein"]["as_index"])),
        ("cyclotomic", str(data["cyclotomic"]["flag"])),
        ("bireflections", str(data["bireflections"]["count"])),
        ("generated by bireflections", str(data["bireflections"]["generates"])),
        ("C2", str(data["theorem03"]["C2"])),
        ("C3", str(data["theorem03"]["C3"])),
        ("C2 == C3", str(data["theorem03"]["consistent"])),
    ]
    width = max(len(k) for k, _ in rows)
    lines = ["| " + "field".ljust(width) + " | value |",
             "|-" + "-" * width + "-|-------|"]
    lines += ["| " + k.ljust(width) + " | " + v + " |" for k, v in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# (error classes, exit code, stderr prefix) for errors raised after the
# input parsed, most specific first; every DuinvError matches the last row.
_EXIT_CODES = (
    ((PromotionOverflow,), 1, "input error"),
    ((NotAnAutomorphism,), 2, "not an automorphism"),
    ((SingularGenerator, GroupTooLarge, InfiniteOrderSuspected), 3,
     "group closure failed"),
    ((DuinvError,), 4, "analysis failed"),
)


def _fail(exc: DuinvError) -> int:
    """Report a library error on stderr; return its documented exit code."""
    code, prefix = next((code, prefix) for classes, code, prefix in _EXIT_CODES
                        if isinstance(exc, classes))
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


def _input_error(exc: Exception) -> int:
    print(f"input error: {exc}", file=sys.stderr)
    return 1


def cmd_analyze(args) -> int:
    try:
        alpha = parse_rational(args.alpha)
        beta = parse_rational(args.beta)
        AlgebraCtx.down_up(alpha, beta)  # rejects beta = 0
        gens = [parse_matrix(g) for g in args.gen]
    except (ValueError, DuinvError) as exc:
        return _input_error(exc)
    try:
        report = theorem03_report(alpha, beta, gens)
    except DuinvError as exc:
        return _fail(exc)
    if args.md:
        print(_report_markdown(report))
    else:
        print(json.dumps(_report_json(report), indent=2))
    return 0


def cmd_paperlab(args) -> int:
    results = paperlab.run_suite(args.suite, max_n=args.max_n)
    print(json.dumps([paperlab.result_to_json(r) for r in results], indent=2))
    failed = [r for r in results if not r.passed]
    for r in failed:
        print(f"FAILED: {r.check_id} {dict(r.parameters)}", file=sys.stderr)
    return 1 if failed else 0


def cmd_classify(args) -> int:
    try:
        gens = [parse_matrix(g) for g in args.gen]
    except DuinvError as exc:
        return _input_error(exc)
    try:
        group = close_group(gens)
        label = classify(group)
    except DuinvError as exc:
        return _fail(exc)
    print(json.dumps({
        "order": len(group),
        "label": _render_label(label.family, label.n),
        "family": label.family,
        "n": label.n,
        "all_matches": list(label.all_matches),
    }, indent=2))
    return 0


def _at_least_one(text: str) -> int:
    if not (text.isascii() and text.strip().isdecimal()) or int(text) < 1:  # digits 0-9 only
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duinv",
        description="Exact invariant theory of finite group actions on "
                    "graded down-up algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a group action")
    p.add_argument("--alpha", required=True, help="rational, e.g. 1 or 3/2")
    p.add_argument("--beta", required=True, help="nonzero rational")
    p.add_argument("--gen", action="append", required=True,
                   help="generator matrix [[e11,e12],[e21,e22]]; repeatable")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--md", action="store_true", help="markdown table output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("paperlab", help="run a reproduction suite")
    p.add_argument("--suite", default="all", choices=["all", *sorted(paperlab.SUITES)],
                   help="suite name or 'all' (see duinv.paperlab.run_suite)")
    p.add_argument("--max-n", type=_at_least_one, default=8, dest="max_n")
    p.set_defaults(func=cmd_paperlab)

    p = sub.add_parser("classify", help="identify the group a set of matrices generates")
    p.add_argument("--gen", action="append", required=True,
                   help="generator matrix; repeatable")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing reads stdout: keep the interpreter's exit flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
