"""
Rational functions in one variable over the rationals, stored as coprime
integer polynomials with denominator constant term 1.

The canonical form (num, den coprime over Q, den(0) = 1, both integral) is
unique, so equality of the stored pair is true equality of rational
functions.  The denominator comes factored, as a CycFactorization, the form
of every Hilbert series of a finite group's invariants (Hilbert-Serre); the
class call, also named RatFunc.make, cancels the Phi_d the numerator shares
and keeps the multiplicities left beside the pair for + and scale to use.
"""
from __future__ import annotations

import collections
from fractions import Fraction

from ._record import Record
from .errors import NonNormalizableDenominator, ZeroFunction
from .intpoly import CycFactorization, IntPoly, _cyclotomic_at_two, cyclotomic_times


class RatFunc(Record):
    """
    num / den, reduced to canonical form on construction.  Immutable.

    >>> from duinv.intpoly import one_minus_t_pows
    >>> RatFunc(IntPoly((1,)), one_minus_t_pows(1, 2))  # 1/((1 - t)(1 - t^2))
    RatFunc(num=IntPoly('1'), den=IntPoly('t^3 - t^2 - t + 1'))
    """

    __slots__ = ("num", "den", "_factors")
    _fields = ("num", "den")
    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: CycFactorization):
        if not isinstance(den, CycFactorization):
            raise TypeError(f"RatFunc takes den as a CycFactorization, not {type(den).__name__}")
        # One exact division of num per shared Phi_d, tried when Phi_d(2) divides num(2), and
        # den rebuilt from the multiplicities left: by Gauss's lemma no common factor is left.
        num_c, left, v2 = list(num.coeffs), collections.Counter(), num(2)
        for d, mult in den.factors:
            p2 = _cyclotomic_at_two(d)
            while mult and v2 % p2 == 0 and (quo := cyclotomic_times(num_c, d, -1)) is not None:
                num_c, mult, v2 = quo, mult - 1, v2 // p2
            left[d] += mult
        sign = den.unit * (-1) ** left[1]  # den(0): Phi_d(0) = 1 for d > 1, Phi_1(0) = -1
        fact = CycFactorization(tuple(sorted((+left).items())), den.unit * sign)
        num, den = IntPoly(c * sign for c in num_c), fact.expand()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_factors", fact)

    @staticmethod
    def make(num: IntPoly, den: CycFactorization) -> "RatFunc":
        """RatFunc(num, den), the name every operation builds through."""
        return RatFunc(num, den)

    def __reduce__(self):
        return RatFunc, (self.num, self._factors)

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
        if num.content() % f.denominator:  # den(0) = 1 keeps every series coefficient integral
            raise NonNormalizableDenominator(f"{f} times the series has a non-integer coefficient")
        return RatFunc.make(IntPoly(x // f.denominator for x in num.coeffs), self._factors)

    def is_zero(self) -> bool:
        return self.num.is_zero()


def stanley_gorenstein_test(f: RatFunc):
    """
    Check the functional equation f(1/t) = sigma * t^l * f(t) with
    sigma in {+1, -1}; return (sigma, l) if it holds, None otherwise.

    f is in canonical form, as every RatFunc is: then the equation holds
    exactly when num.reverse() = s * num with s in {+1, -1}, and then sigma =
    s * (-1)^m1 and l = deg den - deg num, for m1 the multiplicity of Phi_1 in
    den: Phi_d is a palindrome for d >= 2, and Phi_1 reverses to -Phi_1.
    """
    if f.is_zero():
        raise ZeroFunction("the zero series cannot satisfy the functional equation")
    rev = f.num.reverse()
    if rev != f.num and rev != -f.num:
        return None
    sigma = (1 if rev == f.num else -1) * (-1) ** dict(f._factors.factors).get(1, 0)
    return (sigma, f.den.deg() - f.num.deg())
