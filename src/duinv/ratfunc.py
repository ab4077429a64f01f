"""
Rational functions in one variable over the rationals, stored as coprime
integer polynomials with denominator constant term 1.

The canonical form (num, den coprime over Q, den(0) = 1, both integral) is
unique, so equality of the stored pair is true equality of rational
functions.  The class call reduces to it a pair whose denominator, after the
content it shares with the numerator, is +-(a product of cyclotomics), as in
every Hilbert series of a finite group's invariants (Hilbert-Serre), and
refuses any other; RatFunc.make is the same call, and every operation ends in it.
The denominator is an IntPoly, which the cyclotomic test factors, or a
CycFactorization, used as given.  The Phi_d multiplicities left after
cancellation are kept beside the pair, so + and scale factor nothing.
"""
from __future__ import annotations

import collections
import math
from fractions import Fraction

from ._record import Record
from .errors import (DenominatorVanishesAtZero, NonNormalizableDenominator,
                     ZeroDenominator, ZeroFunction)
from .intpoly import (CycFactorization, IntPoly, _cyclotomic_at_two,
                      cyclotomic_times, is_cyclotomic_product)


class RatFunc(Record):
    """num / den, reduced to canonical form on construction.  Immutable."""

    __slots__ = ("num", "den", "_factors")
    _fields = ("num", "den")
    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: IntPoly | CycFactorization):
        if isinstance(den, CycFactorization):
            fact = den
        else:
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
            num = IntPoly(x // c for x in num.coeffs)
        # One exact division of num per shared Phi_d, tried when Phi_d(2) divides num(2), and
        # den rebuilt from the multiplicities left: by Gauss's lemma no common factor is left.
        num_c, left, v2 = list(num.coeffs), collections.Counter(), num(2)
        for d, mult in fact.factors:
            p2 = _cyclotomic_at_two(d)
            while mult and v2 % p2 == 0 and (quo := cyclotomic_times(num_c, d, -1)) is not None:
                num_c, mult, v2 = quo, mult - 1, v2 // p2
            left[d] += mult
        fact = CycFactorization(tuple(sorted((+left).items())), fact.unit)
        num, den = IntPoly(num_c), fact.expand()
        if den[0] < 0:  # +-1, as Phi_d(0) = 1 for d > 1 and Phi_1(0) = -1
            num, den, fact = -num, -den, fact._replace(unit=-fact.unit)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_factors", fact)

    @staticmethod
    def make(num: IntPoly, den: IntPoly | CycFactorization) -> "RatFunc":
        """RatFunc(num, den), the name every operation builds through."""
        return RatFunc(num, den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """Over the larger multiplicity of each Phi_d, each numerator times
        the Phi_d its denominator lacks."""
        if not isinstance(other, RatFunc):
            return NotImplemented
        have = [collections.Counter(dict(f._factors.factors)) for f in (self, other)]
        common, num = have[0] | have[1], IntPoly()
        for f, mults in zip((self, other), have):
            coeffs = list(f.num.coeffs)
            for d, m in (common - mults).items():
                coeffs = cyclotomic_times(coeffs, d, m)
            num = num + IntPoly(coeffs) * f._factors.unit
        return RatFunc.make(num, CycFactorization(tuple(sorted(common.items())), 1))

    def scale(self, factor) -> "RatFunc":
        """factor * self for a rational factor; NonNormalizableDenominator
        when the product has no canonical form."""
        f = Fraction(factor)
        num = self.num * f.numerator
        if num.content() % f.denominator:  # no canonical form: the class call refuses it
            return RatFunc.make(num, self.den * f.denominator)
        return RatFunc.make(IntPoly(x // f.denominator for x in num.coeffs), self._factors)

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
