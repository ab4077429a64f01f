"""
Finite groups of monomial matrices with root-of-unity entries, in exponent
form.

An n x n monomial matrix is given as (perm, scalars): column j sends e_j to
scalars[j] e_perm[j].  When every scalar s_j of every generator is a root of
unity, the whole group lives over one modulus M with s_j = zeta_M^k_j, so an
element is the pair (perm, k) of integer tuples and all group work is
integer arithmetic:

- the matrix product (p, k) @ (q, l) is (p o q, l_j + k_q[j] mod M);
- on a cycle of length l whose exponents sum to s, the element acts with the
  l-th roots of zeta_M^s as eigenvalues, zeta_(lM)^(s + rM) for r = 0..l-1;
- the determinant is sign(perm) * zeta_M^(sum of k).

Cyclotomic numbers enter only at the edges: `exponent_form` turns generator
scalars into exponents, `ExpForm.monomials` turns elements back into CycNum
scalars, and `eigenvalue_exponents` reads the eigenvalues of matrices that
have no exponent form off their CycNum cycle products.
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


def exponent_form(generators) -> "ExpForm | None":
    """
    Generators (perm, scalars) with CycNum scalars, over one modulus M, the
    lcm of the scalars' orders.  None when a generator is None (not
    monomial) or has a scalar that is not a root of unity.  Every generator
    is checked first: InfiniteOrderSuspected when a cycle product is not a
    root of unity, as a power of that matrix is then diagonal with the
    product on its diagonal.
    """
    roots = [None if g is None else [root_exponent(s) for s in g[1]] for g in generators]
    for g, r in zip(generators, roots):
        if r is not None and None in r and any(
                root_exponent(p) is None for _, p in _cycle_products(*g)):
            raise InfiniteOrderSuspected("cycle product is not a root of unity")
    if any(r is None or None in r for r in roots):
        return None
    m, exps = lift(roots)
    return ExpForm(m, tuple((perm, k) for (perm, _), k in zip(generators, exps)))


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

    def closure(self, cap: int) -> "ExpForm":
        """The group the elements generate, in the order of closure()."""
        size = len(self.elements[0][0])
        identity = (tuple(range(size)), (0,) * size)
        return ExpForm(self.modulus, tuple(closure(
            identity, self.elements, functools.partial(mul, modulus=self.modulus),
            lambda x: x, cap)))

    def subgroup(self, indices, cap: int) -> "ExpForm":
        """The group generated by the elements at the given indices."""
        gens = tuple(self.elements[i] for i in indices)
        return ExpForm(self.modulus, gens).closure(cap)

    @property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(perm for perm, _ in self.elements)

    def monomials(self, conductor: int) -> list[tuple[tuple[int, ...], tuple]]:
        """Every element as (perm, scalars) with CycNum scalars at `conductor`:
        the roots of unity of Q(zeta_n) have orders dividing lcm(2, n), so
        the modulus divides `conductor`, or twice it when `conductor` is odd."""
        table = [_power_at(self.modulus, k, conductor) for k in range(self.modulus)]
        return [(perm, tuple(table[k] for k in ks)) for perm, ks in self.elements]

    @functools.cached_property
    def eigen_modulus(self) -> int:
        return self.modulus * math.lcm(*range(1, len(self.elements[0][0]) + 1))

    @functools.cached_property
    def eigenvalues(self) -> tuple[tuple[int, ...], ...]:
        """Per element, cycle by cycle in cycles() order: the l-th roots of the
        cycle product (see _cycle_roots)."""
        m, big = self.modulus, self.eigen_modulus
        out = []
        for perm, k in self.elements:
            vals = []
            for c in cycles(perm):
                roots = _cycle_roots(len(c), m, sum(k[j] for j in c) % m)
                vals.extend(e * (big // o) for o, e in roots)
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


def _cycle_roots(length: int, order: int, e: int) -> list[tuple[int, int]]:
    """The length-th roots of zeta_order^e, 0 <= e < order, as (order, exponent)
    roots: zeta_(length*order)^(e + r*order) for r = 0..length-1."""
    return [(length * order, e + r * order) for r in range(length)]


def eigenvalue_exponents(matrices) -> tuple[int, list[tuple[int, ...]]]:
    """
    (M, eigenvalues as exponents of zeta_M) of finite-order monomial
    matrices given as (perm, CycNum scalars), cycle by cycle as in
    ExpForm.eigenvalues, for matrices without an exponent form.
    """
    rows = []
    for perm, scalars in matrices:
        row = []
        for c, product in _cycle_products(perm, scalars):
            row.extend(_cycle_roots(len(c), *root_exponent(product)))
        rows.append(row)
    return lift(rows)


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


def _cycle_products(perm, scalars):
    """Each cycle of perm with the CycNum product of its scalars."""
    for c in cycles(perm):
        product = CycNum.one()
        for j in c:
            product = product * scalars[j]
        yield c, product


def _power_at(m: int, k: int, n: int) -> CycNum:
    """zeta_m^k at conductor n, for m | n, or n odd and m | 2n."""
    if n % m == 0:
        return zeta(n, k * (n // m))
    j = k * (2 * n // m)
    # zeta_2n^j = -zeta_2n^(j+n) = -zeta_n^((j+n)/2) for odd j and odd n.
    return zeta(n, j // 2) if j % 2 == 0 else -zeta(n, (j + n) // 2)
