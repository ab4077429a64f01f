"""
The text notation of the command line: cyclotomic scalar expressions and
2x2 matrices "[[e11,e12],[e21,e22]]" of them, parsed to CycNum and Mat2
and rendered back.  Both the package and its command-line front end
import it, so `import duinv` does not load the command line.
"""
from __future__ import annotations

from fractions import Fraction

from .cycnum import CycNum, render_cyc, zeta
from .errors import ParseError
from .matgroup import Mat2


# ---------------------------------------------------------------------------
# expression parser
#
#   expr     := term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := '-' factor | atom ('^' signed-int)?
#   atom     := rational | 'zeta(' uint ')' | 'i' | '(' expr ')'
#   rational := int ('/' uint)?
#
# 'i' is shorthand for zeta(4); whitespace is ignored everywhere.  As in
# Python, '^' binds tighter than a leading '-': -zeta(5)^2 is -(zeta(5)^2).
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
    if depth > _MAX_DEPTH:
        raise ParseError(f"expression nested more than {_MAX_DEPTH} deep", sc.pos)
    if sc.take("-"):
        return -_parse_factor(sc, depth + 1)
    value = _parse_atom(sc, depth)
    if sc.take("^"):
        return value ** sc.signed_int()
    return value


def _parse_atom(sc: _Scanner, depth: int) -> CycNum:
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
