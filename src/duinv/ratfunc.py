"""
Rational functions in one variable over the rationals, stored as coprime
integer polynomials with denominator constant term 1.

The canonical form (num, den coprime over Q, den(0) = 1, both integral) is
unique, so equality of the stored pair is true equality of rational
functions.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import (DenominatorVanishesAtZero, NonNormalizableDenominator,
                     ZeroDenominator, ZeroFunction)
from .intpoly import (IntPoly, cyclotomic_times, is_cyclotomic_product,
                      poly_gcd_q)


class RatFunc(Record):
    """num / den in canonical form; build one with make.  Immutable."""

    __slots__ = _fields = ("num", "den")
    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: IntPoly):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- construction --------------------------------------------------

    @staticmethod
    def make(num: IntPoly, den: IntPoly) -> "RatFunc":
        """Reduce num/den to canonical form."""
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if den[0] == 0:
            raise DenominatorVanishesAtZero("denominator has no constant term")
        if num.is_zero():
            return RatFunc(IntPoly(), IntPoly((1,)))
        num, den = _cancel(num, den)
        c = math.gcd(num.content(), den.content())
        num = IntPoly(x // c for x in num.coeffs)
        den = IntPoly(x // c for x in den.coeffs)
        if den[0] < 0:
            num, den = -num, -den
        if den[0] != 1:
            raise NonNormalizableDenominator(
                f"reduced denominator has constant term {den[0]}")
        return RatFunc(num, den)

    @staticmethod
    def from_frac_polys(num, den) -> "RatFunc":
        """Build from two sequences of Fractions, clearing denominators."""
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = math.lcm(*(c.denominator for c in num + den))
        return RatFunc.make(IntPoly(int(c * scale) for c in num),
                            IntPoly(int(c * scale) for c in den))

    @staticmethod
    def constant(value) -> "RatFunc":
        value = Fraction(value)
        return RatFunc.from_frac_polys([value], [Fraction(1)])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.den - other.num * self.den,
                            self.den * other.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def scale(self, factor) -> "RatFunc":
        factor = Fraction(factor)
        return RatFunc.from_frac_polys(
            [c * factor for c in self.num.coeffs], self.den.coeffs)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- analytic views ------------------------------------------------

    def series_coeffs(self, count: int) -> list[Fraction]:
        """First `count` Taylor coefficients at t = 0."""
        b = self.den.coeffs
        out: list[Fraction] = []
        for k in range(count):
            c = Fraction(self.num[k])
            for j in range(1, min(k, len(b) - 1) + 1):
                c -= b[j] * out[k - j]
            out.append(c)
        return out

    def pole_order_at_one(self) -> int:
        """Order of the pole at t = 1 (negative for a zero there)."""
        return _vanishing_order_at_one(self.den) - _vanishing_order_at_one(self.num)

    def laurent_leading_at_infinity(self) -> tuple[int, Fraction]:
        """Exponent and coefficient of the leading term as t -> infinity."""
        if self.num.is_zero():
            raise ZeroFunction("zero function has no leading term at infinity")
        return (self.num.deg() - self.den.deg(),
                Fraction(self.num.lead(), self.den.lead()))

    def __str__(self):
        return f"({self.num!r}) / ({self.den!r})"


def _vanishing_order_at_one(p: IntPoly) -> int:
    order, coeffs = 0, list(p.coeffs)
    while coeffs and (coeffs := cyclotomic_times(coeffs, 1, -1)) is not None:
        order += 1
    return order


def _cancel(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Divide out the polynomial gcd of num and den over Q."""
    fact = is_cyclotomic_product(den)
    if fact is not None:
        # Cancel shared cyclotomic factors without a big-gcd computation:
        # one exact division of num per shared Phi_d, and the denominator
        # rebuilt from the multiplicities left.
        num_c, den_c = list(num.coeffs), [fact.unit]
        for d, mult in fact.factors:
            while mult:
                quo = cyclotomic_times(num_c, d, -1)
                if quo is None:
                    break
                num_c, mult = quo, mult - 1
            if mult:
                den_c = cyclotomic_times(den_c, d, mult)
        return IntPoly(num_c), IntPoly(den_c)
    g = poly_gcd_q(num, den)
    if g.deg() > 0:
        num, _ = num.divmod_exact(g)
        den, _ = den.divmod_exact(g)
    return num, den


def stanley_gorenstein_test(f: RatFunc):
    """
    Check the functional equation f(1/t) = sigma * t^l * f(t) with
    sigma in {+1, -1}; return (sigma, l) if it holds, None otherwise.
    """
    if f.is_zero():
        raise ZeroFunction("the zero series cannot satisfy the functional equation")
    l = f.den.deg() - f.num.deg()
    lhs = f.num.reverse() * f.den
    rhs = f.num * f.den.reverse()
    if lhs == rhs:
        return (1, l)
    if lhs == -rhs:
        return (-1, l)
    return None

