"""
Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum carries its own conductor n and a coefficient vector of length
phi(n) over the rationals, expressing the value in the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1) reduced modulo the n-th cyclotomic
polynomial.  Each coefficient is an int when it is integral and a Fraction
only when its denominator exceeds 1 (never a float), so roots of unity and
their sums have int vectors and int arithmetic; rational_part() is always a
Fraction.  Binary operations promote both sides to the least common
multiple of the two conductors; promotion is the field embedding
zeta_n -> zeta_m^(m/n), so values compare equal independently of how they
were built.

No floating point enters any result.  A complex embedding proposes the
discrete logarithm of a root of unity (see root_exponent), and the
proposal is verified exactly.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ._record import Record
from .errors import DivisionByZero, PromotionOverflow, ZeroConductor
from .intpoly import _divmod, _euclid, _mul, _power, cyclotomic_poly, factorize, totient

CONDUCTOR_CAP = 10 ** 6

_RatLike = (int, Fraction)


def _reduce(coeffs, n: int) -> list:
    """Reduce a rational polynomial in zeta_n modulo the n-th cyclotomic, on
    the values as given; CycNum.__init__ puts the result in canonical form."""
    return _divmod(coeffs, cyclotomic_poly(n).coeffs)[1]


def _canon(c):
    """A rational as an int when it is integral, else as a Fraction."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


class CycNum(Record):
    """An element of Q(zeta_n) with exact rational coordinates."""

    __slots__ = ("conductor", "coeffs", "_hash")
    _fields = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs, _reduced: bool = False):
        if conductor < 1:
            raise ZeroConductor(f"conductor must be >= 1, got {conductor}")
        if conductor > CONDUCTOR_CAP:
            raise PromotionOverflow(f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")
        vec = tuple(c if type(c) is int else _canon(c)
                    for c in (coeffs if _reduced else _reduce(coeffs, conductor)))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", vec)
        object.__setattr__(self, "_hash", None)

    # -- construction --------------------------------------------------

    @staticmethod
    def from_rat(value) -> "CycNum":
        return CycNum(1, (value,), _reduced=True)

    @staticmethod
    def zero() -> "CycNum":
        return CycNum.from_rat(0)

    @staticmethod
    def one() -> "CycNum":
        return CycNum.from_rat(1)

    # -- promotion -----------------------------------------------------

    def promoted(self, m: int) -> "CycNum":
        """Re-express the value in Q(zeta_m); m must be a multiple of the conductor."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise ValueError(f"{m} is not a multiple of conductor {n}")
        if m > CONDUCTOR_CAP:
            raise PromotionOverflow(f"conductor {m} exceeds cap {CONDUCTOR_CAP}")
        k = m // n
        spread = [0] * (len(self.coeffs) * k)
        for i, c in enumerate(self.coeffs):
            spread[i * k] = c
        return CycNum(m, spread)

    def _pair(self, other: "CycNum"):
        m = math.lcm(self.conductor, other.conductor)
        return self.promoted(m), other.promoted(m)

    @staticmethod
    def _coerce(value):
        if isinstance(value, CycNum):
            return value
        if isinstance(value, _RatLike):
            return CycNum.from_rat(value)
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return CycNum(a.conductor,
                      tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
                      _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, tuple(-c for c in self.coeffs), _reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return CycNum(a.conductor, _mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm against
        Phi_n, which is irreducible, so the gcd is 1."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.conductor
        return CycNum(n, _euclid(cyclotomic_poly(n).coeffs, self.coeffs)[1])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inv() ** (-k)
        return _power(self, k, CycNum.one())

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_part(self) -> Fraction:
        """The value as a Fraction; only meaningful when is_rational()."""
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Weak but conductor-independent: hash the normalized field trace
        # Tr(x)/phi(n), which is preserved by promotion.  Memoized; closures
        # are keyed on integer forms, so no hot path hashes a CycNum.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._normalized_trace()))
        return self._hash

    def _normalized_trace(self) -> Fraction:
        n = self.conductor
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                g = math.gcd(i, n) if i else n
                m = n // g
                total += c * Fraction(_mobius(m), totient(m))
        return total

    def approx(self) -> complex:
        """Float embedding with zeta_n -> exp(2*pi*i/n).  Hint/test use only."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        return f"CycNum({self.conductor}, {[str(c) for c in self.coeffs]})"


def _mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k, with zeta_n = exp(2*pi*i/n)."""
    if n < 1:
        raise ZeroConductor(f"conductor must be >= 1, got {n}")
    k %= n
    return CycNum(n, [0] * k + [1])


def render_cyc(x: CycNum) -> str:
    """Render a CycNum in the surface syntax; parse_cyc(render_cyc(x)) == x."""
    n = x.conductor
    parts = []
    for k, c in enumerate(x.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            power = "zeta(%d)" % n if k == 1 else "zeta(%d)^%d" % (n, k)
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append("-" + power)
            else:
                parts.append(f"{c}*{power}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def root_exponent(x: CycNum):
    """
    (order, e) with x == zeta_order^e when x is a root of unity, else None.

    Every root of unity in Q(zeta_n) is a power of zeta_n' for n' = lcm(2, n).
    The complex embedding proposes which power, and the candidate is
    compared exactly.  A root of unity always matches its candidate, so
    when the candidate does not match, x is not a root of unity.
    """
    n = x.conductor
    big = n if n % 2 == 0 else 2 * n
    guess = round(cmath.phase(x.approx()) * big / (2 * math.pi)) % big
    if _power_at(big, guess, n).coeffs != x.coeffs:
        return None
    order = big // math.gcd(big, guess)
    return order, guess // (big // order)


def _power_at(m: int, k: int, n: int) -> CycNum:
    """zeta_m^k at conductor n, for m | n, or n odd and m | 2n."""
    if n % m == 0:
        return zeta(n, k * (n // m))
    j = k * (2 * n // m)
    # zeta_2n^j = -zeta_2n^(j+n) = -zeta_n^((j+n)/2) for odd j and odd n.
    return zeta(n, j // 2) if j % 2 == 0 else -zeta(n, (j + n) // 2)
