"""
The text notation of the command line: cyclotomic scalar expressions and
2x2 matrices "[[e11,e12],[e21,e22]]" of them, parsed to CycNum and Mat2
and rendered back.  Both the package and its command-line front end
import it, so `import duinv` does not load the command line.
"""
from __future__ import annotations

from fractions import Fraction

from .cycnum import CycNum, render_cyc, zeta  # the renderers invert the parsers
from .errors import ParseError
from .matgroup import Mat2, render_matrix


# ---------------------------------------------------------------------------
# expression parser
#
#   expr     := term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := '-' factor | atom ('^' signed-int)?
#   atom     := rational | 'zeta(' uint ')' | 'i' | '(' expr ')'
#   rational := uint ('/' uint)?
#
# 'i' is shorthand for zeta(4), a power of +-zeta_n^j is read in one step as
# +-zeta_n^(jk mod n), digits are ASCII and whitespace is ignored.  As in
# Python, '^' binds tighter than a leading '-': -zeta(5)^2 is -(zeta(5)^2).
# ---------------------------------------------------------------------------

_MAX_DEPTH = 100  # nested '(' and '-'; deeper input is a ParseError, not a RecursionError
_MAX_DIGITS = 1000  # in one integer; int() refuses more than 4300 digits
# Any other power is refused before it is taken when the bits of its base's largest
# coefficient, times |k|, times the coefficients it can fill, exceed this bound:
_MAX_POWER_BITS = 1 << 13


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, *tokens: str):
        for token in tokens:
            if not self.take(token):
                raise ParseError(f"expected {token!r}", self.pos)

    def uint(self, what: str = "an unsigned integer") -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        if self.pos - start > _MAX_DIGITS:
            raise ParseError(f"integer of more than {_MAX_DIGITS} digits", start)
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
    if not sc.take("^"):
        return value
    at = sc.pos
    k = sc.signed_int()
    nonzero = [(j, c) for j, c in enumerate(value.coeffs) if c]
    if len(nonzero) == 1 and nonzero[0][1] in (1, -1):  # +-zeta_n^j: read in one step
        (j, c), = nonzero
        power = zeta(value.conductor, j * k)
        return -power if c == -1 and k % 2 else power
    bits = max(max(abs(c.numerator), c.denominator).bit_length() for c in value.coeffs)
    if k < 0:  # the inverse's coefficients carry the norm, a product of len(coeffs) conjugates
        bits *= len(value.coeffs)
    fill = min(len(value.coeffs), abs(k) * len(nonzero))
    if bits * abs(k) * fill > _MAX_POWER_BITS:
        raise ParseError(f"power to the {k} of a base with {bits}-bit coefficients "
                         f"may exceed {_MAX_POWER_BITS} bits", at)
    return value ** k


def _parse_atom(sc: _Scanner, depth: int) -> CycNum:
    if sc.take("("):
        value = _parse_expr(sc, depth + 1)
        sc.expect(")")
        return value
    if sc.take("zeta"):
        sc.expect("(")
        n = sc.uint()
        sc.expect(")")
        return zeta(n)
    if sc.take("i"):
        return zeta(4)
    return CycNum.from_rat(_parse_rational(sc, "a rational, 'zeta(n)', 'i', '(' or '-'"))


def _parse_rational(sc: _Scanner, what: str = "an unsigned integer") -> Fraction:
    p = sc.uint(what)
    return Fraction(p, sc.uint() if sc.take("/") else 1)


def _parse_matrix(sc: _Scanner) -> Mat2:
    sc.expect("[", "[")
    e11 = _parse_expr(sc)
    sc.expect(",")
    e12 = _parse_expr(sc)
    sc.expect("]", ",", "[")
    e21 = _parse_expr(sc)
    sc.expect(",")
    e22 = _parse_expr(sc)
    sc.expect("]", "]")
    return Mat2(e11, e12, e21, e22)


def _parse_whole(text: str, read):
    """read(scanner), which must consume all of text."""
    sc = _Scanner(text)
    value = read(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("unexpected trailing input", sc.pos)
    return value


def parse_cyc(text: str) -> CycNum:
    """Parse a single cyclotomic scalar expression."""
    return _parse_whole(text, _parse_expr)


def parse_rational(text: str) -> Fraction:
    """Parse a literal rational "[-]p[/q]", as --alpha and --beta take it."""
    return _parse_whole(text, lambda sc: (-1 if sc.take("-") else 1) * _parse_rational(sc))


def parse_matrix(text: str) -> Mat2:
    """Parse "[[e11,e12],[e21,e22]]" with cyclotomic entry expressions."""
    return _parse_whole(text, _parse_matrix)
