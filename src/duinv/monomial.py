"""
Finite groups of monomial matrices in exponent form.

An n x n monomial matrix is given as (perm, scalars): column j sends e_j to
scalars[j] e_perm[j], as `from_rows` reads it off a matrix's rows.  A
finite group of such matrices is diagonally conjugate to one whose scalars
are all roots of unity (see `exponent_form`).  There the whole group lives
over one modulus M with s_j = zeta_M^k_j, so an element is the pair (perm, k)
of integer tuples and all group work is integer arithmetic:

- the matrix product (p, k) @ (q, l) is (p o q, l_j + k_q[j] mod M);
- on a cycle of length l whose exponents sum to s, the element acts with the
  l-th roots of zeta_M^s as eigenvalues, zeta_(lM)^(s + rM) for r = 0..l-1;
- the determinant is sign(perm) * zeta_M^(sum of k).

Cyclotomic numbers enter only at the edges: `exponent_form` turns generator
scalars into exponents, and `ExpForm.monomials` turns elements back into
CycNum scalars in the original basis.
"""
from __future__ import annotations

import functools
import math

from .cycnum import CycNum, _power_at, root_exponent
from .errors import GroupTooLarge, InfiniteOrderSuspected, SingularGenerator

Elem = tuple[tuple[int, ...], tuple[int, ...]]


def closure(identity, generators, mul, cap: int, size=None) -> list:
    """
    Breadth-first multiplicative closure from `identity`: every element, in
    the order found, times every generator, in that order, so the element
    order is deterministic.  Elements are their own exact keys.  Raises
    GroupTooLarge when the closure exceeds `cap` elements.  Given the group
    order as `size`, the walk ends once it has found that many elements.
    """
    elements, found = [identity], {identity}
    for x in elements:  # grows while it is walked
        if len(elements) == size:
            break
        for g in generators:
            p = mul(x, g)
            if p not in found:
                if len(elements) >= cap:
                    raise GroupTooLarge(f"closure exceeded cap of {cap} elements")
                found.add(p)
                elements.append(p)
    return elements


def subgroup(identity, generators, mul, cap: int) -> list:
    """
    The closure of the hashable `generators`, in the order of closure() on
    all of them, by way of a generating subset S that takes each generator
    the closure of S so far misses: at most log2 |G| members, and at most
    |G| |S|^2 products to close <S> anew after each.  The walk over all the
    generators then stops once it has found |<S>|, mostly within a few of
    the |G| rows a full closure on them would take.
    """
    chosen, found = [], {identity}
    for g in generators:
        if g not in found:
            chosen.append(g)
            found = set(closure(identity, chosen, mul, cap))
    return closure(identity, generators, mul, cap, len(found))


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


def from_rows(rows) -> "tuple[tuple[int, ...], tuple] | None":
    """(perm, scalars) of a square matrix, given as rows of CycNum entries,
    with exactly one nonzero entry in every row and every column; None for
    any other matrix, singular or not square."""
    n = len(rows)
    perm, scalars = [None] * n, [None] * n
    for i, row in enumerate(rows):
        if len(row) != n:
            return None
        j = None  # the column of the row's one nonzero entry
        for k, x in enumerate(row):
            if not x.is_zero():
                if j is not None:
                    return None
                j = k
        if j is None or perm[j] is not None:
            return None
        perm[j], scalars[j] = i, row[j]
    return tuple(perm), tuple(scalars)


def exponent_form(generators) -> "ExpForm | None":
    """
    Generators (perm, scalars) with CycNum scalars in exponent form, over one
    modulus M, in the basis of `_rebased`.  None when a generator is None
    (not monomial); every other generator is then checked on its own.
    InfiniteOrderSuspected when the group cannot be finite.
    """
    if None in generators:
        for g in generators:
            if g is not None:
                _rebased([g])
        return None
    basis, roots = _rebased(generators)
    m = math.lcm(*(o for gen_roots in roots for o, _ in gen_roots))
    exps = [tuple(e * (m // o) for o, e in gen_roots) for gen_roots in roots]
    return ExpForm(m, tuple((perm, k) for (perm, _), k in zip(generators, exps)), basis)


def _rebased(generators):
    """
    (d, roots): a basis d_j e_j, None for the standard basis when every
    scalar is a root of unity, and every scalar in it, s_j d_j / d_perm[j],
    as an (order, exponent) root of unity.  A walk over the orbits of the
    permutations sets d_j = 1 where it enters an orbit and makes the scalar
    1 on each step j -> perm[j] that first reaches perm[j].  Every other
    scalar is then the one by which some group element scales a basis vector
    it fixes, so the group is finite exactly when all of them are roots of
    unity; InfiniteOrderSuspected otherwise.
    """
    roots = [[root_exponent(s) for s in scalars] for _, scalars in generators]
    if all(None not in r for r in roots):
        return None, roots
    # from_rows reads no zero scalar; pairs passed to exponent_form directly can hold one.
    if any(s.is_zero() for _, scalars in generators for s in scalars):
        raise SingularGenerator("monomial generator has a zero scalar")
    d = [None] * len(roots[0])
    for start in range(len(d)):
        if d[start] is None:
            d[start], todo = CycNum.one(), [start]
            while todo:
                j = todo.pop()
                for perm, scalars in generators:
                    if d[perm[j]] is None:
                        d[perm[j]] = d[j] * scalars[j]
                        todo.append(perm[j])
    roots = [[root_exponent(s * d[j] / d[p]) for j, (p, s) in enumerate(zip(perm, scalars))]
             for perm, scalars in generators]
    if any(None in r for r in roots):
        raise InfiniteOrderSuspected(
            "a group element scales a basis vector by a non-root of unity")
    return tuple(d), roots


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
    def __init__(self, modulus: int, elements: tuple[Elem, ...], basis=None):
        self.modulus = modulus
        self.elements = elements
        self.mul = functools.partial(mul, modulus=modulus)  # the matrix product x @ y
        # The CycNum d_j of the basis d_j e_j the elements are written in,
        # None for the standard basis; only monomials() reads it, as
        # determinants and eigenvalues do not depend on the basis.
        self.basis = basis

    @property
    def identity(self) -> Elem:
        n = len(self.elements[0][0])
        return tuple(range(n)), (0,) * n

    def closure(self, cap: int) -> "ExpForm":
        """The group the elements generate, in the order of closure()."""
        return ExpForm(self.modulus, tuple(closure(self.identity, self.elements, self.mul, cap)),
                       self.basis)

    def monomials(self, conductor: int) -> list[tuple[tuple[int, ...], tuple]]:
        """Every element as (perm, scalars) in the standard basis, with CycNum
        scalars at `conductor`, a multiple of the conductor of every basis
        entry: the roots of unity of Q(zeta_n) have orders dividing
        lcm(2, n), so the modulus divides `conductor`, or twice it when
        `conductor` is odd."""
        table = [_power_at(self.modulus, k, conductor) for k in range(self.modulus)]
        d = self.basis
        if d is None:
            return [(perm, tuple(table[k] for k in ks)) for perm, ks in self.elements]
        # In the standard basis, column j of an element scales by d_perm[j] / d_j.
        ratios = functools.cache(lambda perm: [d[p] / d[j] for j, p in enumerate(perm)])
        return [(perm, tuple(table[k] * x for k, x in zip(ks, ratios(perm))))
                for perm, ks in self.elements]

    @functools.cached_property
    def eigen_modulus(self) -> int:
        return self.modulus * math.lcm(*range(1, len(self.elements[0][0]) + 1))

    @functools.cached_property
    def eigenvalues(self) -> tuple[tuple[int, ...], ...]:
        """Per element, cycle by cycle in cycles() order: the l-th roots of the
        cycle product zeta_M^s, zeta_(lM)^(s + rM) for r = 0..l-1."""
        m, big = self.modulus, self.eigen_modulus
        out = []
        for perm, k in self.elements:
            vals = []
            for c in cycles(perm):
                s, step = sum(k[j] for j in c) % m, big // (len(c) * m)
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
