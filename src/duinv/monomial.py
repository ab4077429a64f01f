"""
Finite groups of monomial matrices with root-of-unity entries, in exponent
form.

Column j of an n x n monomial matrix sends e_j to s_j e_perm[j].  When every
scalar s_j of every generator is a root of unity, the whole group lives over
one modulus M with s_j = zeta_M^k_j, so an element is the pair (perm, k) of
integer tuples and all group work is integer arithmetic:

- the matrix product (p, k) @ (q, l) is (p o q, l_j + k_q[j] mod M);
- on a cycle of length l whose exponents sum to s, the element acts with the
  l-th roots of zeta_M^s as eigenvalues, zeta_(lM)^(s + rM) for r = 0..l-1;
- the determinant is sign(perm) * zeta_M^(sum of k).

Cyclotomic numbers enter only at the edges: `root_exponent` turns one
generator entry into an exponent, and `root_table` turns exponents back
into CycNum entries.
"""
from __future__ import annotations

import cmath
import functools
import math

from .cycnum import CycNum, root_of_unity_order, root_power_exponent, zeta
from .errors import GroupTooLarge, InfiniteOrderSuspected

Elem = tuple[tuple[int, ...], tuple[int, ...]]


def closure(identity, generators, mul, key, cap: int) -> list:
    """
    Breadth-first multiplicative closure from `identity`: every frontier
    element times every generator, in that order, so the element order is
    deterministic.  `key` maps an element to its exact hashable form.
    Raises GroupTooLarge when the closure exceeds `cap` elements.
    """
    elements = [identity]
    seen = {key(identity)}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                p = mul(x, g)
                k = key(p)
                if k not in seen:
                    if len(elements) >= cap:
                        raise GroupTooLarge(f"closure exceeded cap of {cap} elements")
                    seen.add(k)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    return elements


def mul(x: Elem, y: Elem, modulus: int) -> Elem:
    """The matrix product x @ y."""
    xp, xk = x
    yp, yk = y
    return (tuple(xp[q] for q in yp),
            tuple((l + xk[q]) % modulus for q, l in zip(yp, yk)))


def cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """The cycles j -> perm[j], each listed from its smallest index."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        if cycle:
            out.append(cycle)
    return out


def close_exponents(generators, modulus: int, size: int, cap: int) -> "ExpForm":
    """The closure of size x size exponent-form generators over one modulus."""
    identity = (tuple(range(size)), (0,) * size)
    elements = closure(identity, generators,
                       functools.partial(mul, modulus=modulus), lambda x: x, cap)
    return ExpForm(modulus, tuple(elements))


class ExpForm:
    """
    Monomial matrices of one size as (perm, exponents mod modulus), usually
    the elements of a finite group, with their determinants and
    eigenvalues.  Eigenvalues and determinants are exponents of zeta at
    `eigen_modulus`, a multiple of l * modulus for every possible cycle
    length l.
    """

    # A plain class, not a dataclass: nothing compares or prints it, and
    # building a dataclass would add about a millisecond to `import duinv`.
    def __init__(self, modulus: int, elements: tuple[Elem, ...]):
        self.modulus = modulus
        self.elements = elements

    @functools.cached_property
    def eigen_modulus(self) -> int:
        return self.modulus * math.lcm(*range(1, len(self.elements[0][0]) + 1))

    @functools.cached_property
    def eigenvalues(self) -> tuple[tuple[int, ...], ...]:
        """Per element, cycle by cycle in cycles() order: the l-th roots of the
        cycle product, zeta_(lM)^(s + rM) for r = 0..l-1."""
        m, big = self.modulus, self.eigen_modulus
        out = []
        for perm, k in self.elements:
            vals = []
            for c in cycles(perm):
                s = sum(k[j] for j in c) % m
                step = big // (len(c) * m)
                vals.extend((s + r * m) * step for r in range(len(c)))
            out.append(tuple(vals))
        return tuple(out)

    @functools.cached_property
    def dets(self) -> tuple[int, ...]:
        """Per element, sign(perm) * zeta_M^(sum of k), read off the matrix
        itself rather than its eigenvalues."""
        m, big = self.modulus, self.eigen_modulus
        out = []
        for perm, k in self.elements:
            odd = (len(perm) - len(cycles(perm))) % 2
            out.append((sum(k) * (big // m) + odd * (big // 2)) % big)
        return tuple(out)


def lift(roots_per_generator) -> tuple[int, list[tuple[int, ...]]]:
    """
    One modulus M for lists of (order, exponent) roots, and every list as
    exponents mod M.  M is the lcm of the orders.
    """
    m = math.lcm(*(o for roots in roots_per_generator for o, _ in roots))
    return m, [tuple(e * (m // o) for o, e in roots) for roots in roots_per_generator]


def root_exponent(x: CycNum):
    """
    (order, e) with x == zeta_order^e when x is a root of unity, else None.

    Every root of unity in Q(zeta_n) is a power of zeta_n' for n' = lcm(2, n).
    The complex embedding proposes which power; the candidate is compared
    exactly, and when it does not match, the exact search of
    root_of_unity_order decides.
    """
    n = x.conductor
    big = n if n % 2 == 0 else 2 * n
    guess = round(cmath.phase(x.approx()) * big / (2 * math.pi)) % big
    if _power_at(big, guess, n).coeffs == x.coeffs:
        order = big // math.gcd(big, guess)
        return order, guess // (big // order)
    order = root_of_unity_order(x)
    if order is None:
        return None
    return order, root_power_exponent(x, order)


def scalar_roots(perm, scalars):
    """
    (order, exponent) of each scalar as a root of unity, or None when some
    scalar is not one although every cycle product is (the matrix then has
    finite order, but no exponent form).  Raises InfiniteOrderSuspected when
    a cycle product is not a root of unity: a power of the matrix is then
    diagonal with that product on its diagonal.
    """
    roots = [root_exponent(s) for s in scalars]
    if None not in roots:
        return roots
    for cycle in cycles(perm):
        product = CycNum.one()
        for j in cycle:
            product = product * scalars[j]
        if root_exponent(product) is None:
            raise InfiniteOrderSuspected("cycle product is not a root of unity")
    return None


def root_table(modulus: int, conductor: int) -> list[CycNum]:
    """zeta_modulus^k for k in range(modulus), as CycNums at `conductor`.

    The roots of unity of Q(zeta_n) have orders dividing lcm(2, n), so
    `modulus` divides `conductor`, or `conductor` is odd and `modulus`
    divides twice it."""
    return [_power_at(modulus, k, conductor) for k in range(modulus)]


def _power_at(m: int, k: int, n: int) -> CycNum:
    """zeta_m^k at conductor n, for m | n, or n odd and m | 2n."""
    if n % m == 0:
        return zeta(n, k * (n // m))
    j = k * (2 * n // m)
    # zeta_2n^j = -zeta_2n^(j+n) = -zeta_n^((j+n)/2) for odd j and odd n.
    return zeta(n, j // 2) if j % 2 == 0 else -zeta(n, (j + n) // 2)
