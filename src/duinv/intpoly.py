"""
Integer polynomials in one variable and cyclotomic factorization.

A polynomial is a dense tuple of integer coefficients starting with the
constant term, so 1 - 2t + t^3 is IntPoly((1, -2, 0, 1)).  Everything here
is exact; rational intermediate values use fractions.Fraction.

All functions are pure and the caches are idempotent, so the module is safe
to use from several threads.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import typing
from fractions import Fraction

from ._record import Record
from .errors import ZeroPolynomial


class IntPoly(Record):
    """
    Dense integer polynomial, lowest coefficient first.  Immutable; equal
    polynomials hash equal.  A coefficient that is not an int (no __index__),
    such as a Fraction or a float, even an integral one, raises TypeError.

    >>> IntPoly((1, 0, 1)) * IntPoly((1, 1))
    IntPoly('t^3 + t^2 + t + 1')
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        coeffs = tuple(map(operator.index, coeffs))
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    # -- basic queries -------------------------------------------------

    def deg(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(a + b for a, b in
                       itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(a - b for a, b in
                       itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, IntPoly((1,)))

    def divmod_exact(self, d: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """
        Quotient and remainder over the integers.  Every quotient coefficient
        over the rationals must be an integer (always true for divisors with
        leading coefficient +-1, e.g. cyclotomic polynomials); otherwise
        ValueError is raised.
        """
        if d.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        quo, rem = _divmod(self.coeffs, d.coeffs)
        for c in reversed(quo):
            if type(c) is Fraction:
                raise ValueError(f"quotient coefficient {c} is not an integer")
        return IntPoly(quo), IntPoly(rem)

    # -- structure -----------------------------------------------------

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Divide out the content; the leading coefficient becomes positive."""
        if self.is_zero():
            return self
        c = self.content()
        if self.lead() < 0:
            c = -c
        return IntPoly(x // c for x in self.coeffs)

    def reverse(self) -> "IntPoly":
        """Coefficients reversed with respect to the degree: t^deg * p(1/t)."""
        return IntPoly(reversed(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) \
                else "" if c > 0 else "-"
            term = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            coeff = f"{abs(c)}" if (i == 0 or abs(c) != 1) else ""
            parts.append(sign + coeff + term)
        return "".join(parts)

    def __repr__(self):
        return f"IntPoly('{self}')"


def x_pow(k: int) -> IntPoly:
    """The polynomial t^k for k >= 0 (ValueError otherwise)."""
    if k < 0:
        raise ValueError(f"x_pow needs k >= 0, got {k}")
    return IntPoly((0,) * k + (1,))


def one_minus_t_pow(k: int) -> IntPoly:
    """The polynomial 1 - t^k for k >= 1 (ValueError otherwise)."""
    if k < 1:
        raise ValueError(f"one_minus_t_pow needs k >= 1, got {k}")
    return IntPoly((1,) + (0,) * (k - 1) + (-1,))


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

# Bounds of the number-theory caches.  The first cyclotomic test of degree n
# reads one totients_at_most entry, and one entry of each per-d cache
# (factorize, totient, _binomial_form, _cyclotomic_at_two) per d with
# phi(d) <= n: 790 for n = 404.  Later tests of degree <= n read the
# candidate table of is_cyclotomic_product.
_FACTORIZE_CACHE_SIZE = 4096
_TOTIENTS_CACHE_SIZE = 64
_CYCLOTOMIC_CACHE_SIZE = 512


@functools.lru_cache(maxsize=_FACTORIZE_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@functools.lru_cache(maxsize=_FACTORIZE_CACHE_SIZE)
def totient(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _primes_up_to(n: int) -> list[int]:
    """The primes p <= n, ascending (sieve of Eratosthenes)."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


@functools.lru_cache(maxsize=_TOTIENTS_CACHE_SIZE)
def totients_at_most(n: int) -> tuple[int, ...]:
    """
    Every d >= 1 with phi(d) <= n, ascending.

    A d with phi(d) <= n is a product of prime powers p^e over primes
    p <= n + 1, and phi multiplies by (p - 1) p^(e-1) with each one; the
    walk over such products stops a branch as soon as phi exceeds n.

    >>> totients_at_most(4)
    (1, 2, 3, 4, 5, 6, 8, 10, 12)
    """
    if n < 1:
        return ()
    primes = _primes_up_to(n + 1)
    out = []

    def walk(start: int, d: int, phi: int) -> None:
        out.append(d)
        for i in range(start, len(primes)):
            p = primes[i]
            step = p - 1
            if phi * step > n:
                break
            dd, pphi = d * p, phi * step
            while pphi <= n:
                walk(i + 1, dd, pphi)
                dd, pphi = dd * p, pphi * p

    walk(0, 1, 1)
    return tuple(sorted(out))


@functools.lru_cache(maxsize=_FACTORIZE_CACHE_SIZE)
def _binomial_form(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The e | d with mu(d/e) = +1 and those with mu(d/e) = -1, 2^(omega(d) - 1)
    each for d > 1: Phi_d(t) = prod (t^e - 1)^mu(d/e) (Stanley, Bull. AMS
    1979), the same product of the (1 - t^e) for d > 1; Phi_1 = -(1 - t).
    """
    plus, minus = [d], []
    for p, _ in factorize(d):
        plus, minus = plus + [e // p for e in minus], minus + [e // p for e in plus]
    return tuple(plus), tuple(minus)


@functools.lru_cache(maxsize=_FACTORIZE_CACHE_SIZE)
def _cyclotomic_at_two(d: int) -> int:
    """Phi_d(2) in integers, by the binomial form, without building Phi_d."""
    plus, minus = _binomial_form(d)
    return (math.prod([(1 << e) - 1 for e in plus])
            // math.prod([(1 << e) - 1 for e in minus]))


def cyclotomic_times(coeffs: list[int], d: int, power: int) -> list[int] | None:
    """
    coeffs * Phi_d^power, lowest coefficient first, in 2^omega(d) passes of
    integer additions per power over the binomial form of Phi_d.  A negative
    power multiplies by the (1 - t^e) with mu(d/e) = -1, then divides by
    each of the others in one pass, q_i = c_i + q_(i-e): the division is
    exact when the top e coefficients of the pass cancel, and None is
    returned as soon as one is not.
    """
    plus, minus = _binomial_form(d)
    up, down = (plus, minus) if power > 0 else (minus, plus)
    coeffs = list(coeffs)
    for _ in range(abs(power)):
        for e in up:
            pad = [0] * e
            coeffs = [a - b for a, b in zip(coeffs + pad, pad + coeffs)]
        for e in down:
            for i in range(e, len(coeffs)):
                coeffs[i] += coeffs[i - e]
            if any(coeffs[-e:]):
                return None
            del coeffs[-e:]
    return [-c for c in coeffs] if d == 1 and power % 2 else coeffs


# The one product, long division, extended Euclid and repeated squaring of
# IntPoly, CycNum and MatForm (von zur Gathen and Gerhard, Modern Computer
# Algebra, ch. 2-4), on dense lists, lowest coefficient first, of ints or Fractions.

def _trim(c: list) -> list:
    """c without its trailing zeros, in place."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul_into(out: list, p, q) -> list:
    """out += p q, in place, for len(out) >= len(p) + len(q) - 1."""
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q, i):
                if y:
                    out[j] += x * y
    return out


def _mul(p, q) -> list:
    """The product p q; [] when either is empty."""
    return _mul_into([0] * (len(p) + len(q) - 1), p, q) if p and q else []


def _divmod(num, den) -> tuple[list, list]:
    """(quotient, remainder) of num by den over the rationals, for den[-1] != 0,
    the remainder len(den) - 1 long.  A lead of +-1 divides by multiplication,
    so ints stay ints; any other gives Fraction(top) / lead, an int when integral."""
    rem, low, lead = list(num), den[:-1], den[-1]
    n, unit = len(low), lead in (1, -1)
    quo = [0] * max(len(rem) - n, 0)
    for i in range(len(quo) - 1, -1, -1):
        top = rem[i + n]
        if top:
            if unit:
                q = top * lead
            else:
                q = Fraction(top) / lead
                q = q.numerator if q.denominator == 1 else q
            quo[i] = q
            for j, c in enumerate(low, i):
                rem[j] -= q * c
    return quo, (rem + [0] * n)[:n]


def _euclid(a, b) -> tuple[list, list]:
    """(g, s) for b != 0: g the monic gcd of a and b over the rationals and
    g = s b mod a, by the extended Euclidean algorithm, each remainder made monic."""
    r0, s0, r1, s1 = a, [], _trim(list(b)), [1]
    while True:
        if r1[-1] != 1:
            inv = 1 / Fraction(r1[-1])
            r1, s1 = [c * inv for c in r1[:-1]] + [1], [c * inv for c in s1]
        quo, rem = _divmod(r0, r1)
        if not _trim(rem):
            return r1, s1
        s = s0 + [0] * (len(quo) + len(s1) - 1 - len(s0))
        r0, s0, r1, s1 = r1, s1, rem, _mul_into(s, [-c for c in quo], s1)


def _power(x, k: int, one):
    """x ** k for k >= 0 by repeated squaring, `one` for k = 0."""
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


@functools.lru_cache(maxsize=_CYCLOTOMIC_CACHE_SIZE)
def cyclotomic_poly(d: int) -> IntPoly:
    """
    The d-th cyclotomic polynomial, built by cyclotomic_times.

    >>> cyclotomic_poly(6)
    IntPoly('t^2 - t + 1')
    """
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    return IntPoly(cyclotomic_times([1], d, 1))


class CycFactorization(typing.NamedTuple):
    """A factorization unit * prod Phi_d^multiplicity with unit in {+1, -1}."""

    factors: tuple[tuple[int, int], ...]
    unit: int

    def expand(self) -> IntPoly:
        coeffs = [self.unit]
        for d, m in self.factors:
            coeffs = cyclotomic_times(coeffs, d, m)
        return IntPoly(coeffs)


def one_minus_t_pows(*ks: int, phis=()) -> CycFactorization:
    """prod (1 - t^k) over ks times prod Phi_d over phis, factored: each
    1 - t^k is -prod Phi_e over the e | k."""
    mult = collections.Counter(e for k in ks for e in divisors(k))
    mult.update(phis)
    return CycFactorization(tuple(sorted(mult.items())), (-1) ** len(ks))


# (n, rows): the candidates of the cyclotomic test, rows (phi(d), d, Phi_d(2))
# sorted by phi for every d with phi(d) <= n, grown when a larger degree
# arrives and replaced as one tuple.  A cache bounded at _FACTORIZE_CACHE_SIZE
# rows (n = 2111): a larger degree builds its rows for the one call.
_cyc_table: tuple[int, list[tuple[int, int, int]]] = (0, [])


def is_cyclotomic_product(p: IntPoly):
    """
    Decide whether p equals +-(a product of cyclotomic polynomials); return
    the CycFactorization, factors sorted by d, if so, None otherwise.

    Only Phi_d with phi(d) <= deg p can divide p, so the candidates are the
    rows of _cyc_table, tried while their degree fits the residue.  Phi_d(2)
    must divide the residue's value at 2 before cyclotomic_times tries the
    exact division; the value at 2 is then divided by Phi_d(2) along with
    the residue.  A residue of positive degree left after the last candidate
    has a factor that is not cyclotomic.
    """
    global _cyc_table
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if abs(p.lead()) != 1 or abs(p[0]) != 1:
        return None
    covered, rows = _cyc_table
    if p.deg() > covered:
        rows = sorted(rows + [(totient(d), d, _cyclotomic_at_two(d))
                              for d in totients_at_most(p.deg()) if totient(d) > covered])
        if len(rows) <= _FACTORIZE_CACHE_SIZE:
            _cyc_table = (p.deg(), rows)
    residue, val2, factors = list(p.coeffs), p(2), []
    for phi, d, pval in rows:
        if phi >= len(residue):
            break
        mult = 0
        while phi < len(residue) and val2 % pval == 0:
            quo = cyclotomic_times(residue, d, -1)
            if quo is None:
                break
            residue, val2 = quo, val2 // pval
            mult += 1
        if mult:
            factors.append((d, mult))
    if len(residue) > 1 or residue[0] not in (1, -1):
        return None
    return CycFactorization(tuple(sorted(factors)), residue[0])


def poly_gcd_q(p: IntPoly, q: IntPoly) -> IntPoly:
    """
    Greatest common divisor of p and q as polynomials over the rationals,
    returned as a primitive integer polynomial with positive leading
    coefficient (1 when the polynomials are coprime).
    """
    if q.is_zero():
        return p.primitive()
    g, _ = _euclid(p.coeffs, q.coeffs)
    lcm_den = math.lcm(*(c.denominator for c in g))
    return IntPoly([int(c * lcm_den) for c in g]).primitive()
