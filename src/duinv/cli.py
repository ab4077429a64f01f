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
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cycnum import CycNum, render_cyc, zeta
from .errors import (DuinvError, GroupTooLarge, InfiniteOrderSuspected,
                     NotAnAutomorphism, ParseError, PromotionOverflow,
                     SingularGenerator)
from .matgroup import Mat2, _render_label, classify, close_group
from .invariants import AlgebraCtx, Theorem03Report, theorem03_report
from . import paperlab


# ---------------------------------------------------------------------------
# expression parser
#
#   expr     := term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := atom ('^' signed-int)?
#   atom     := rational | 'zeta(' uint ')' | 'i' | '(' expr ')' | '-' atom
#   rational := int ('/' uint)?
#
# 'i' is shorthand for zeta(4); whitespace is ignored everywhere.
# ---------------------------------------------------------------------------

_MAX_DEPTH = 100  # nested '(' and '-'; deeper input is a ParseError, not a RecursionError


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.take(token):
            raise ParseError(f"expected {token!r}", self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start:self.pos])

    def signed_int(self) -> int:
        sign = -1 if self.take("-") else (self.take("+"), 1)[1]
        return sign * self.uint()


def _parse_expr(sc: _Scanner, depth: int = 0) -> CycNum:
    value = _parse_term(sc, depth)
    while True:
        if sc.take("+"):
            value = value + _parse_term(sc, depth)
        elif sc.take("-"):
            value = value - _parse_term(sc, depth)
        else:
            return value


def _parse_term(sc: _Scanner, depth: int) -> CycNum:
    value = _parse_factor(sc, depth)
    while sc.take("*"):
        value = value * _parse_factor(sc, depth)
    return value


def _parse_factor(sc: _Scanner, depth: int) -> CycNum:
    value = _parse_atom(sc, depth)
    if sc.take("^"):
        return value ** sc.signed_int()
    return value


def _parse_atom(sc: _Scanner, depth: int) -> CycNum:
    if depth > _MAX_DEPTH:
        raise ParseError(f"expression nested more than {_MAX_DEPTH} deep", sc.pos)
    if sc.take("-"):
        return -_parse_atom(sc, depth + 1)
    if sc.take("zeta"):
        sc.expect("(")
        n = sc.uint()
        sc.expect(")")
        return zeta(n)
    if sc.take("i"):
        return zeta(4)
    if sc.take("("):
        value = _parse_expr(sc, depth + 1)
        sc.expect(")")
        return value
    if sc.peek().isdigit():
        p = sc.uint()
        if sc.take("/"):
            return CycNum.from_rat(Fraction(p, sc.uint()))
        return CycNum.from_rat(p)
    raise ParseError("expected a rational, 'zeta(n)', 'i', '(' or '-'", sc.pos)


def parse_cyc(text: str) -> CycNum:
    """Parse a single cyclotomic scalar expression."""
    sc = _Scanner(text)
    value = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("unexpected trailing input", sc.pos)
    return value


def parse_matrix(text: str) -> Mat2:
    """Parse "[[e11,e12],[e21,e22]]" with cyclotomic entry expressions."""
    sc = _Scanner(text)
    sc.expect("[")
    rows = []
    for r in range(2):
        sc.expect("[")
        row = [_parse_expr(sc)]
        sc.expect(",")
        row.append(_parse_expr(sc))
        sc.expect("]")
        rows.append(row)
        if r == 0:
            sc.expect(",")
    sc.expect("]")
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("unexpected trailing input", sc.pos)
    return Mat2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_matrix(m: Mat2) -> str:
    e = [render_cyc(v) for v in m.entries()]
    return f"[[{e[0]},{e[1]}],[{e[2]},{e[3]}]]"


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
            "label": _label_str(report.label),
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


def _label_str(label) -> str:
    return _render_label(label.family, label.n)


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
        alpha = Fraction(args.alpha)
        beta = Fraction(args.beta)
        AlgebraCtx.down_up(alpha, beta)  # rejects beta = 0
        gens = [parse_matrix(g) for g in args.gen]
    except (ValueError, ZeroDivisionError, DuinvError) as exc:
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
    if failed:
        for r in failed:
            print(f"FAILED: {r.check_id} {dict(r.parameters)}", file=sys.stderr)
        return 1
    return 0


def cmd_classify(args) -> int:
    try:
        gens = [parse_matrix(g) for g in args.gen]
    except (ZeroDivisionError, DuinvError) as exc:
        return _input_error(exc)
    try:
        group = close_group(gens)
        label = classify(group)
    except DuinvError as exc:
        return _fail(exc)
    print(json.dumps({
        "order": len(group),
        "label": _label_str(label),
        "family": label.family,
        "n": label.n,
        "all_matches": list(label.all_matches),
    }, indent=2))
    return 0


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
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.set_defaults(func=cmd_paperlab)

    p = sub.add_parser("classify", help="identify the group a set of matrices generates")
    p.add_argument("--gen", action="append", required=True,
                   help="generator matrix; repeatable")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
