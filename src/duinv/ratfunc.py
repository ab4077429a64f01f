"""
Rational functions in one variable over the rationals, stored as coprime
integer polynomials with denominator constant term 1.

The canonical form (num, den coprime over Q, den(0) = 1, both integral) is
unique, so equality of the stored pair is true equality of rational
functions.  The class call reduces to it a pair whose denominator, after the
content it shares with the numerator, is +-(a product of cyclotomics), as in
every Hilbert series of a finite group's invariants (Hilbert-Serre), and
refuses any other; RatFunc.make is the same call, and every operation ends in it.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import (DenominatorVanishesAtZero, NonNormalizableDenominator,
                     ZeroDenominator, ZeroFunction)
from .intpoly import (CycFactorization, IntPoly, cyclotomic_times,
                      is_cyclotomic_product)


class RatFunc(Record):
    """num / den, reduced to canonical form on construction.  Immutable."""

    __slots__ = _fields = ("num", "den")
    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if den[0] == 0:
            raise DenominatorVanishesAtZero("denominator has no constant term")
        c = math.gcd(num.content(), den.content())
        fact = is_cyclotomic_product(IntPoly(x // c for x in den.coeffs))
        if fact is None:
            raise NonNormalizableDenominator(
                f"the denominator, of degree {den.deg()}, is not +-(a product of "
                "cyclotomic polynomials) after the content it shares with the numerator")
        # One exact division of num per shared Phi_d, and den rebuilt from the
        # multiplicities left: by Gauss's lemma no common factor is left.
        num_c, left = [x // c for x in num.coeffs], []
        for d, mult in fact.factors:
            while mult and (quo := cyclotomic_times(num_c, d, -1)) is not None:
                num_c, mult = quo, mult - 1
            if mult:
                left.append((d, mult))
        num, den = IntPoly(num_c), CycFactorization(tuple(left), fact.unit).expand()
        if den[0] < 0:  # +-1, as Phi_d(0) = 1 for d > 1 and Phi_1(0) = -1
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def make(num: IntPoly, den: IntPoly) -> "RatFunc":
        """RatFunc(num, den), the name every operation builds through."""
        return RatFunc(num, den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def scale(self, factor) -> "RatFunc":
        """factor * self for a rational factor; NonNormalizableDenominator
        when the product has no canonical form."""
        f = Fraction(factor)
        return RatFunc.make(self.num * f.numerator, self.den * f.denominator)

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

    def __str__(self):
        return f"({self.num!r}) / ({self.den!r})"


def stanley_gorenstein_test(f: RatFunc):
    """
    Check the functional equation f(1/t) = sigma * t^l * f(t) with
    sigma in {+1, -1}; return (sigma, l) if it holds, None otherwise.

    f is in canonical form, as every RatFunc is: then the equation
    holds exactly when num.reverse() = s1 * num and den.reverse() = s2 * den
    with s1, s2 in {+1, -1}, and sigma = s1 * s2, l = deg den - deg num.
    """
    if f.is_zero():
        raise ZeroFunction("the zero series cannot satisfy the functional equation")
    sigma = 1
    for p in (f.num, f.den):
        rev = p.reverse()
        if rev != p:
            if rev != -p:
                return None
            sigma = -sigma
    return (sigma, f.den.deg() - f.num.deg())
