"""Independent numeric oracles shared by the unit tests and the acceptance
suite.

Each suite cross-checks an exact routine against a computation that shares no
code with it: complex root finding, Graeffe root squaring and trial division
by Phi_d for the cyclotomic tester, the gcd over Q for cancellation, the
polynomial-product form of the functional equation for the Stanley test,
truncated geometric-series convolution for power-series coefficients, the
complex embedding for cyclotomic arithmetic, CycNum matrix products for
group closures and eigenvalues, and lattice counts for the Molien series of
2x2 monomial groups.

It also holds the per-element reference layer the library no longer calls:
the trace series, pole order and bireflection rule of one matrix at a time,
the homological determinant read off a trace series at infinity, the matrix
inverse, the determinant-one subgroup, two named matrices and the Taylor
coefficients of a rational function, each the reference for a table or
integer path of the library.  Molien series on down-up algebras are also
checked by evaluation in a prime field, from the matrix entries alone.
"""
import cmath
import functools
import math
import operator
import random
import typing
from fractions import Fraction

import numpy as np

from duinv import monomial
from duinv.cycnum import CycNum, root_exponent, zeta
from duinv.errors import (GroupTooLarge, InfiniteOrderSuspected,
                          NonNormalizableDenominator, NonRationalCollapse,
                          SingularGenerator, UnsupportedAutomorphism, ZeroFunction)
from duinv.intpoly import CycFactorization, IntPoly, cyclotomic_poly, \
    is_cyclotomic_product, poly_gcd_q, totient, totients_at_most
from duinv.matgroup import (DEFAULT_CAP, Mat2, MatGroup, _shape, eigenvalues,
                            generated_subgroup)
from duinv.ratfunc import RatFunc


# ---------------------------------------------------------------------------
# cyclotomic-product tester vs complex roots
# ---------------------------------------------------------------------------

def squarefree_part(p: IntPoly) -> IntPoly:
    g = poly_gcd_q(p, IntPoly(i * c for i, c in enumerate(p.coeffs) if i))  # p'
    if g.deg() <= 0:
        return p
    quo, rem = p.divmod_exact(g) if g.lead() in (1, -1) else (None, None)
    if quo is None:
        # fall back to rational division
        fp = [Fraction(c) for c in p.coeffs]
        fg = [Fraction(c) for c in g.coeffs]
        from duinv.intpoly import _divmod, _trim
        fq, fr = _divmod(fp, fg)
        assert not _trim(fr)
        scale = 1
        for c in fq:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
        return IntPoly(int(c * scale) for c in fq)
    assert rem.is_zero()
    return quo


def oracle_is_cyclotomic(p: IntPoly) -> bool:
    """Numeric oracle: every root of the squarefree part is a root of unity."""
    if abs(p.lead()) != 1 or abs(p[0]) != 1:
        return False
    sf = squarefree_part(p)
    roots = np.roots(list(reversed(sf.coeffs)))
    bound = 2 * p.deg() ** 2 + 2
    for r in roots:
        if abs(abs(r) - 1) > 1e-8:
            return False
        # must be an m-th root of unity with phi(m) <= deg
        phase = cmath.phase(r) / (2 * math.pi)
        ok = False
        for m in range(1, bound + 1):
            if totient(m) > p.deg():
                continue
            k = round(phase * m)
            if abs(r - cmath.exp(2j * cmath.pi * k / m)) < 1e-8:
                ok = True
                break
        if not ok:
            return False
    return True


def run_cyclotomic_oracle_suite(cases: int = 400, seed: int = 8141) -> None:
    rng = random.Random(seed)
    done = 0
    while done < cases:
        if rng.random() < 0.5:
            # genuine product of cyclotomics, possibly with multiplicity
            p = IntPoly((rng.choice((1, -1)),))
            for _ in range(rng.randint(1, 4)):
                p = p * cyclotomic_poly(rng.randint(1, 16))
        else:
            deg = rng.randint(1, 8)
            coeffs = [rng.choice((1, -1))] + \
                [rng.randint(-2, 2) for _ in range(deg - 1)] + [rng.choice((1, -1))]
            p = IntPoly(coeffs)
            if p.deg() < 1:
                continue
        done += 1
        got = is_cyclotomic_product(p)
        assert (got is not None) == oracle_is_cyclotomic(p), repr(p)
        if got is not None:
            assert got.expand() == p


def graeffe_is_cyclotomic(p: IntPoly) -> bool:
    """
    Exact oracle by Kronecker's theorem: an integer polynomial with leading
    and constant coefficient +-1 is +-(a product of cyclotomics) exactly
    when all its roots lie on the unit circle.  The Graeffe map
    f -> f1, f1(y) = e(y)^2 - y o(y)^2 for f(t) = e(t^2) + t o(t^2), squares
    every root.  With all roots on the unit circle each coefficient of a
    degree-n iterate is at most binom(n, n // 2) in absolute value, so the
    bounded integer iterates must repeat; a root off the circle makes the
    coefficients grow past that bound.
    """
    if abs(p.lead()) != 1 or abs(p[0]) != 1:
        return False
    n = p.deg()
    bound = math.comb(n, n // 2)
    seen = set()
    f = p.coeffs
    while True:
        if f[-1] < 0:
            f = tuple(-c for c in f)
        if f in seen:
            return True
        if max(abs(c) for c in f) > bound:
            return False
        seen.add(f)
        even, odd = IntPoly(f[0::2]), IntPoly(f[1::2])
        f = (even * even - IntPoly((0,) + (odd * odd).coeffs)).coeffs


def run_high_degree_cyclotomic_suite(seed: int = 404) -> None:
    """
    is_cyclotomic_product against graeffe_is_cyclotomic up to and above
    degree 400: the two numerator families of the paper (degree 2n + 4) at
    n = 200 and at seeded n in 100..250, seeded products of Phi_d with
    d <= 1700 of degree above 400, and each product with one inner
    coefficient moved by one.
    """
    from duinv.paperlab import _family_one_numerator, _family_two_numerator
    rng = random.Random(seed)
    polys = []
    for n in [200] + rng.sample(range(100, 251), 3):
        polys += [_family_one_numerator(n), _family_two_numerator(n)]
    for _ in range(6):
        # one Phi_d with d <= 1700 and degree at most 600, then small ones,
        # repeats allowed, past degree 400
        big = rng.choice([d for d in range(1, 1701) if totient(d) <= 600])
        p = cyclotomic_poly(big) * rng.choice((1, -1))
        while p.deg() <= 400:
            p = p * cyclotomic_poly(rng.randint(1, 60))
        coeffs = list(p.coeffs)
        coeffs[rng.randrange(1, len(coeffs) - 1)] += rng.choice((1, -1))
        polys += [p, IntPoly(coeffs)]
    for p in polys:
        got = is_cyclotomic_product(p)
        assert (got is not None) == graeffe_is_cyclotomic(p), repr(p)
        if got is not None:
            assert got.expand() == p


@functools.lru_cache(maxsize=None)
def cyclotomic_by_division(d: int) -> IntPoly:
    """Phi_d as t^d - 1 divided by every Phi_e with e a proper divisor of d."""
    p = IntPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            p, rem = p.divmod_exact(cyclotomic_by_division(e))
            assert rem.is_zero()
    return p


@functools.lru_cache(maxsize=None)
def cyclotomic_at_two_by_division(d: int) -> int:
    """Phi_d(2) as 2^d - 1 divided by every Phi_e(2), e a proper divisor of d."""
    value = 2 ** d - 1
    for e in range(1, d):
        if d % e == 0:
            value //= cyclotomic_at_two_by_division(e)
    return value


def cyclotomic_product_by_trial_division(p: IntPoly):
    """
    (factors, unit) when p is +-(a product of cyclotomic polynomials), None
    otherwise, by trial division: for each d with phi(d) <= deg p,
    ascending, divide by cyclotomic_by_division(d) while its value at 2
    divides the residue's and the remainder is zero.  is_cyclotomic_product
    computed it this way before it divided by the binomial form of Phi_d;
    the reference for its factor tuples and unit.
    """
    if abs(p.lead()) != 1 or abs(p[0]) != 1:
        return None
    residue, val2, factors = p, p(2), []
    for d in totients_at_most(p.deg()):
        mult = 0
        while totient(d) <= residue.deg() and val2 % cyclotomic_at_two_by_division(d) == 0:
            quo, rem = residue.divmod_exact(cyclotomic_by_division(d))
            if not rem.is_zero():
                break
            residue, val2, mult = quo, quo(2), mult + 1
        if mult:
            factors.append((d, mult))
    if residue.deg() > 0 or residue[0] not in (1, -1):
        return None
    return tuple(factors), residue[0]


def ratfunc_by_trial_division(num: IntPoly, den: IntPoly) -> RatFunc:
    """RatFunc(num, den) for an expanded den: the content num and den share
    divided out, then den factored by cyclotomic_product_by_trial_division;
    NonNormalizableDenominator when den is not +-(a product of cyclotomic
    polynomials).  How an oracle that expands a denominator hands it in."""
    c = math.gcd(num.content(), den.content())
    fact = cyclotomic_product_by_trial_division(IntPoly(x // c for x in den.coeffs))
    if fact is None:
        raise NonNormalizableDenominator(f"{den!r} is not +-(a product of cyclotomics)")
    return RatFunc(IntPoly(x // c for x in num.coeffs), CycFactorization(*fact))


def cancel_by_gcd(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """num and den divided by their gcd over Q, the primitive one with a
    positive leading coefficient: the reference for the cancellation of RatFunc."""
    g = poly_gcd_q(num, den)
    return num.divmod_exact(g)[0], den.divmod_exact(g)[0]


def stanley_by_products(f: RatFunc):
    """The functional equation f(1/t) = sigma t^l f(t) checked by comparing
    num.reverse() * den with sigma * num * den.reverse(), for any f with
    den(0) != 0: the reference for ratfunc.stanley_gorenstein_test."""
    l = f.den.deg() - f.num.deg()
    lhs = f.num.reverse() * f.den
    rhs = f.num * f.den.reverse()
    if lhs == rhs:
        return (1, l)
    if lhs == -rhs:
        return (-1, l)
    return None


# ---------------------------------------------------------------------------
# series expansion vs convolution
# ---------------------------------------------------------------------------

def run_series_oracle_suite(cases: int = 100, n_terms: int = 32,
                            seed: int = 77) -> None:
    """1/den equals the truncated expansion sum_k (1 - den)^k by convolution,
    in ints: den(0) = 1, so every term of the expansion is an integer.  Each
    den is +-(a product of cyclotomic polynomials) of degree at most 5."""
    rng = random.Random(seed)
    N = n_terms
    small = [d for d in range(1, 13) if totient(d) <= 5]
    for _ in range(cases):
        num = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
        if num.is_zero():
            num = IntPoly((1,))
        den, room = IntPoly((1,)), rng.randint(0, 5)
        while fits := [d for d in small if totient(d) <= room]:
            d = rng.choice(fits)
            den, room = den * cyclotomic_by_division(d), room - totient(d)
        den = den * den[0]  # den(0) was +-1, now 1
        f = ratfunc_by_trial_division(num, den)  # reduced; the series is the same
        got = series_coeffs(f, N)
        # oracle: inv = sum_{k} g^k truncated, with g = 1 - den
        g = [-c for c in den.coeffs]
        g[0] += 1
        inv = [0] * N
        inv[0] = 1
        powg = [1] + [0] * (N - 1)
        for _k in range(1, N):
            powg = [sum(powg[i] * (g[j - i] if 0 <= j - i < len(g) else 0)
                        for i in range(j + 1)) for j in range(N)]
            inv = [a + b for a, b in zip(inv, powg)]
        expected = [sum(num[i] * inv[k - i] for i in range(k + 1))
                    for k in range(N)]
        assert got == expected


# ---------------------------------------------------------------------------
# cyclotomic arithmetic vs the complex embedding
# ---------------------------------------------------------------------------

def random_cyc_expr(rng, depth):
    """Return (CycNum, complex) built by identical random operations."""
    if depth == 0:
        if rng.random() < 0.5:
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            return CycNum.from_rat(q), complex(q)
        # conductors from divisors of 24 keep the promoted field small
        n = rng.choice((1, 2, 3, 4, 6, 8, 12, 24))
        k = rng.randint(0, n - 1)
        return zeta(n, k), cmath.exp(2j * cmath.pi * k / n)
    a, fa = random_cyc_expr(rng, depth - 1)
    b, fb = random_cyc_expr(rng, depth - 1)
    op = rng.choice("+-*/")
    if op == "/" and (b.is_zero() or abs(fb) < 1e-12):
        op = "+"
    if op == "+":
        return a + b, fa + fb
    if op == "-":
        return a - b, fa - fb
    if op == "*":
        return a * b, fa * fb
    return a / b, fa / fb


def run_embedding_suite(cases: int = 200, depth: int = 5, tol: float = 1e-9,
                        seed: int = 20240817) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        x, fx = random_cyc_expr(rng, depth)
        if abs(fx) > 1e6:  # the oracle itself loses precision on huge values
            continue
        assert abs(x.approx() - fx) < tol * max(1.0, abs(fx))


# ---------------------------------------------------------------------------
# group closure and eigenvalues by CycNum matrix products
# ---------------------------------------------------------------------------

def _close_by_products(gens, conductor: int, cap: int, size=None) -> tuple[Mat2, ...]:
    """
    The breadth-first closure of the generators by CycNum matrix products at
    `conductor`, frontier by frontier, each frontier element times each
    generator in order; GroupTooLarge beyond `cap` elements.  Given the
    order of a finite group that holds the generators as `size`, it stops
    once it has found that many elements, as a subgroup that large is the
    whole group.  The reference for close_group and generated_subgroup on
    any generators.
    """
    lifted = [Mat2(*(e.promoted(conductor) for e in g.entries())) for g in gens]
    ident = Mat2(*(e.promoted(conductor) for e in Mat2.identity().entries()))
    elements, seen, frontier = [ident], {ident.key(conductor)}, [ident]
    while frontier and len(elements) != size:
        nxt = []
        for x in frontier:
            for g in lifted:
                p = x @ g
                if p.key(conductor) not in seen:
                    if len(elements) >= cap:
                        raise GroupTooLarge(f"closure exceeded cap of {cap} elements")
                    seen.add(p.key(conductor))
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    return tuple(elements)


def _order_by_products(g: Mat2, conductor: int, cap: int) -> int:
    """The order of g, as the size of its cyclic closure by products."""
    return len(_close_by_products([g], conductor, cap))


def _eigen_exponents_by_search(g: Mat2, m: int) -> tuple[int, int]:
    """
    The sorted exponents k, as powers of zeta_m, of the eigenvalues of a
    matrix of order m: the roots of t^2 - tr t + det among the m-th roots of
    unity.  The reference for any matrix.
    """
    tr, det = g.trace(), g.det()
    pair = []
    for k in range(m):
        lam = zeta(m, k)
        if lam * lam - tr * lam + det == 0:
            pair.append(k)
            if len(pair) == 2:
                break
    if len(pair) == 1:  # double eigenvalue
        pair.append(pair[0])
    if len(pair) != 2:
        raise InfiniteOrderSuspected("could not locate eigenvalues among roots of unity")
    return tuple(pair)


def _subgroup_by_all_generators(form, indices, cap: int) -> tuple:
    """
    The breadth-first closure of the elements of an exponent form at the
    given indices, with every one of them as a generator, as subgroups were
    computed before monomial.subgroup grew a generating subset: |<S>|
    len(indices) products.  The reference for monomial.subgroup and, on
    exponent-form groups, generated_subgroup.
    """
    n = len(form.elements[0][0])
    return tuple(monomial.closure((tuple(range(n)), (0,) * n),
                                  [form.elements[i] for i in indices],
                                  functools.partial(monomial.mul, modulus=form.modulus), cap))


# ---------------------------------------------------------------------------
# monomial matrices by CycNum products
# ---------------------------------------------------------------------------

def _cyc(x) -> CycNum:
    return x if isinstance(x, CycNum) else CycNum.from_rat(x)


class Monomial(typing.NamedTuple):
    """An n x n monomial matrix as duinv.monomial writes it: column j sends
    e_j to scalars[j] e_perm[j]."""

    perm: tuple[int, ...]
    scalars: tuple[CycNum, ...]

    @staticmethod
    def diag(entries) -> "Monomial":
        return Monomial(tuple(range(len(entries))), tuple(_cyc(x) for x in entries))

    @staticmethod
    def of_rows(rows) -> "Monomial":
        """The matrix with these rows, read column by column; each column must
        hold exactly one nonzero entry."""
        cols = list(zip(*rows))
        perm = tuple(next(i for i, x in enumerate(col) if x != 0) for col in cols)
        return Monomial(perm, tuple(_cyc(col[i]) for col, i in zip(cols, perm)))

    def rows(self) -> list[list[CycNum]]:
        """The matrix as rows, the form polyring_molien takes."""
        n = len(self.perm)
        out = [[CycNum.zero()] * n for _ in range(n)]
        for j, (i, s) in enumerate(zip(self.perm, self.scalars)):
            out[i][j] = s
        return out


def _monomial_product(x: Monomial, y: Monomial) -> Monomial:
    """The matrix product x @ y, scalar by scalar."""
    perm = tuple(x.perm[p] for p in y.perm)
    scalars = tuple(y.scalars[j] * x.scalars[y.perm[j]] for j in range(len(x.perm)))
    return Monomial(perm, scalars)


def _monomial_key(m: Monomial) -> tuple:
    """The permutation and every scalar's coefficients at the lcm of their
    conductors: equal exactly for equal matrices."""
    lcm = math.lcm(*(s.conductor for s in m.scalars))
    return (m.perm, tuple(s.promoted(lcm).coeffs for s in m.scalars), lcm)


def _monomial_eigenvalues(m: Monomial) -> tuple[CycNum, ...]:
    """
    The eigenvalues cycle by cycle, by exact CycNum search: the l-th roots of
    the product of the scalars along each cycle of length l.  The reference
    for the eigenvalues of ExpForm.
    """
    out = []
    for cycle in monomial.cycles(m.perm):
        product = CycNum.one()
        for j in cycle:
            product = product * m.scalars[j]
        root = root_exponent(product)
        if root is None:
            raise InfiniteOrderSuspected("cycle product is not a root of unity")
        ell, (o, e) = len(cycle), root
        mu = zeta(ell * o, e)
        out.extend(mu * zeta(ell, r) for r in range(ell))
    return tuple(out)


# ---------------------------------------------------------------------------
# Molien series of 2x2 monomial groups by lattice counts
# ---------------------------------------------------------------------------

def _lattice_molien_coeffs(modulus: int, generators, count: int) -> list[Fraction]:
    """
    The first `count` coefficients of the Molien series on a down-up algebra
    of the group generated by 2x2 monomial matrices (anti, x, y): column 0
    holds zeta_modulus^x and column 1 holds zeta_modulus^y, on the diagonal,
    or off it when `anti` is 1.  Integers only, and no duinv code:

    - diag(zeta^x, zeta^y) has the trace series sum over a, b, c of
      zeta^(p x + q y) t^(a + b + 2c) with p = a + c and q = b + c.  Over the
      diagonal subgroup D the character zeta^(p x + q y) sums to |D| when it
      is trivial on D and to 0 otherwise, and min(p, q) + 1 triples (a, b, c)
      give p and q;
    - an antidiagonal g with entries b and c has the trace series
      1 / (1 - (bc)^2 t^4).  Over its coset sD, bc is bc(s) det(d), so the
      coset adds bc(s)^(k/2) |D| at t^k when 4 | k and det^(k/2) is trivial
      on D; then bc(s)^(k/2) = +-1, as s^2 = bc(s) I lies in D.
    """
    m = modulus

    def mul(g, h):
        # h sends e_0 to zeta^u e_t and e_1 to zeta^v e_(1-t); g scales
        # e_j by its column-j exponent and sends it to e_(j xor s).
        s, x, y = g
        t, u, v = h
        col = (x, y)
        return s ^ t, (u + col[t]) % m, (v + col[1 - t]) % m

    group, todo = {(0, 0, 0)}, [(0, 0, 0)]
    while todo:
        g = todo.pop()
        for h in generators:
            p = mul(g, h)
            if p not in group:
                group.add(p)
                todo.append(p)
    diag = [(x, y) for s, x, y in group if s == 0]
    anti = [(x, y) for s, x, y in group if s == 1]

    @functools.cache
    def trivial(p: int, q: int) -> bool:
        return all((p * x + q * y) % m == 0 for x, y in diag)

    out = []
    for k in range(count):
        total = sum(min(p, k - p) + 1 for p in range(k + 1) if trivial(p % m, (k - p) % m))
        if anti and k % 4 == 0 and trivial(k // 2 % m, k // 2 % m):
            e = sum(anti[0]) * (k // 2) % m
            assert 2 * e % m == 0, "bc(s)^(k/2) is not +-1"
            total += 1 if e == 0 else -1
        out.append(Fraction(total * len(diag), len(group)))
    return out


# ---------------------------------------------------------------------------
# Molien series on a down-up algebra, evaluated in F_p
# ---------------------------------------------------------------------------

FP_FLOOR = 10 ** 6


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _prime_one_mod(m: int) -> int:
    """The least prime p > FP_FLOOR with p = 1 mod m, by trial division."""
    p = FP_FLOOR // m * m + 1
    while p <= FP_FLOOR or _prime_factors(p) != [p]:
        p += m
    return p


def _root_of_unity_mod(m: int, p: int) -> int:
    """An element of order exactly m in F_p^*, for m dividing p - 1."""
    for g in range(2, p):
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in _prime_factors(m)):
            return w
    raise ValueError(f"no element of order {m} mod {p}")


def _poly_mod(coeffs, t: int, p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value * t + c) % p
    return value


def molien_agrees_mod_p(elements, num: IntPoly, den: IntPoly, points: int = 3,
                        seed: int = 0) -> bool:
    """
    Whether num/den is the Molien series of the finite group with these Mat2
    elements on a down-up algebra, tested at `points` random t0 of F_p: the
    average of 1 / (det(I - t0 g) (1 - det(g) t0^2)) over the group must equal
    num(t0) / den(t0).  p is the least prime above FP_FLOOR that is 1 mod the
    conductor M of the entries, and zeta_M goes to an element of order M, so
    each entry maps to F_p through its coefficient vector alone.  A t0 at a
    pole of either side is drawn again.  Needs no eigenvalue, element table,
    Molien code or numpy (Kemper, J. Symb. Comp. 1996, evaluates invariant-
    ring computations the same way).
    """
    entries = [g.entries() for g in elements]
    m = math.lcm(*(x.conductor for row in entries for x in row))
    p = _prime_one_mod(m)
    omega = _root_of_unity_mod(m, p)

    def image(x: CycNum) -> int:
        w = pow(omega, m // x.conductor, p)
        return sum(c.numerator * pow(c.denominator, -1, p) * pow(w, k, p)
                   for k, c in enumerate(x.coeffs)) % p

    mats = [tuple(map(image, row)) for row in entries]
    rng = random.Random(seed)
    checked = 0
    while checked < points:
        t = rng.randrange(p)
        traces = [((1 - t * a) * (1 - t * d) - t * t * b * c) * (1 - (a * d - b * c) * t * t) % p
                  for a, b, c, d in mats]
        den_t = _poly_mod(den.coeffs, t, p)
        if den_t == 0 or 0 in traces:
            continue
        average = sum(pow(x, -1, p) for x in traces) * pow(len(mats), -1, p) % p
        if average != _poly_mod(num.coeffs, t, p) * pow(den_t, -1, p) % p:
            return False
        checked += 1
    return True


# ---------------------------------------------------------------------------
# trace series in factored form, and the homological determinant at infinity
# ---------------------------------------------------------------------------

class TraceForm(typing.NamedTuple):
    """
    A trace series prod(1 - lam t^d) [numerator] / prod(1 - lam t^d)
    [denominator], with cyclotomic scalars.  Factors are (degree, scalar).
    """

    den_factors: tuple[tuple[int, CycNum], ...]
    num_factors: tuple[tuple[int, CycNum], ...] = ()

    def laurent_leading_at_infinity(self) -> tuple[int, CycNum]:
        exponent = (sum(d for d, _ in self.num_factors)
                    - sum(d for d, _ in self.den_factors))
        coeff = CycNum.one()
        for _, lam in self.num_factors:
            coeff = coeff * (-lam)
        for _, lam in self.den_factors:
            coeff = coeff / (-lam)
        if coeff.is_zero():
            raise ZeroFunction("trace has a zero factor")
        return exponent, coeff


def normal_sequence_trace(steps) -> TraceForm:
    """
    Trace of an automorphism acting by scalar lam_i on the i-th member of a
    regular normal sequence of degrees d_i: 1 / prod (1 - lam_i t^(d_i)).
    `steps` is a sequence of (degree, scalar) pairs; a degree must be an int
    (TypeError otherwise, as for a float) and at least 1, and a scalar
    nonzero (ValueError).
    """
    return TraceForm(tuple(_factor(d, lam) for d, lam in steps))


def hypersurface_trace(steps, relation) -> TraceForm:
    """
    Trace on a graded hypersurface: generators as in normal_sequence_trace,
    with one relation of degree d scaled by lam, contributing the numerator
    factor (1 - lam t^d).  `relation` is a (degree, scalar) pair, checked as
    the steps are.
    """
    return TraceForm(tuple(_factor(d, lam) for d, lam in steps),
                     (_factor(*relation),))


def _factor(d, lam) -> tuple[int, CycNum]:
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"factor degrees must be positive, got {d}")
    lam = _cyc(lam)
    if lam.is_zero():
        raise ValueError("factor scalars must be nonzero")
    return d, lam


class HdetResult(typing.NamedTuple):
    value: CycNum
    laurent_exponent: int


def hdet_from_trace(tr: TraceForm, injective_dim: int) -> HdetResult:
    """
    Read the homological determinant off the trace series: at infinity,
    Tr(g, t) = (-1)^d * hdet(g)^-1 * t^l + lower order terms.  The reference
    for paperlab's sign count of the involution hdets.
    """
    exponent, coeff = tr.laurent_leading_at_infinity()
    sign = CycNum.from_rat((-1) ** injective_dim)
    return HdetResult(sign / coeff, exponent)


# ---------------------------------------------------------------------------
# trace series expanded by CycNum products, and monomial closures as matrices
# ---------------------------------------------------------------------------

def trace_to_ratfunc(tr: TraceForm) -> RatFunc:
    """
    The trace series with both products of (1 - lam t^d) expanded as plain
    lists of CycNum, collapsed to an integer rational function;
    NonRationalCollapse if a coefficient is not rational.  The reference for
    a Molien series as the average of the trace series of the elements.
    """
    products = []
    for factors in (tr.num_factors, tr.den_factors):
        coeffs = [CycNum.one()]
        for d, lam in factors:  # times 1 - lam t^d
            if d < 1:
                raise ValueError(f"factor degrees must be positive, got {d}")
            out = [CycNum.zero()] * (len(coeffs) + d)
            for i, c in enumerate(coeffs):
                if not c.is_zero():
                    out[i], out[i + d] = out[i] + c, out[i + d] + c * -lam
            coeffs = out
        products.append(coeffs)
    for coeffs in products:
        for i, c in enumerate(coeffs):
            if not c.is_rational():
                raise NonRationalCollapse(f"coefficient of t^{i} is irrational: {c!r}")
    rationals = [[c.rational_part() for c in p] for p in products]
    scale = math.lcm(*(c.denominator for p in rationals for c in p))
    return ratfunc_by_trial_division(*(IntPoly(int(c * scale) for c in p) for p in rationals))


def close_monomial_group(generators, cap: int = DEFAULT_CAP) -> tuple[Monomial, ...]:
    """The closure of Monomial generators in exponent form, as Monomials with
    every scalar at the lcm of the generators' conductors.  Overflowing the
    cap raises InfiniteOrderSuspected, as polyring_molien does."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    conductor = math.lcm(*(s.conductor for g in gens for s in g.scalars))
    try:
        form = monomial.exponent_form(gens).closure(cap)
    except GroupTooLarge as exc:
        raise InfiniteOrderSuspected(f"monomial closure exceeded cap of {cap}") from exc
    return tuple(Monomial(*m) for m in form.monomials(conductor))


# ---------------------------------------------------------------------------
# the per-element reference layer
# ---------------------------------------------------------------------------

def pole_order_at_one(tr: TraceForm) -> int:
    """Each factor 1 - lam t^d has a simple zero at t=1 iff lam == 1."""
    den = sum(1 for _, lam in tr.den_factors if lam == 1)
    num = sum(1 for _, lam in tr.num_factors if lam == 1)
    return den - num


def downup_trace(ctx, g: Mat2) -> TraceForm:
    """Trace series of g acting on a down-up algebra."""
    if ctx.kind != "down_up":
        raise ValueError("downup_trace requires a down-up context")
    ctx.check_shapes([mat_shape(g)])
    lam, mu = eigenvalues(g)
    return TraceForm(((1, lam), (1, mu), (2, lam * mu)))


def plane_trace(ctx, g: Mat2) -> TraceForm:
    """Trace series of g on a quantum plane (diagonal g) or Jordan plane
    (scalar g)."""
    if ctx.kind == "skew_plane":
        if not g.is_diagonal():
            raise UnsupportedAutomorphism("quantum plane traces need diagonal matrices")
        return TraceForm(((1, g.a), (1, g.d)))
    if ctx.kind == "jordan_plane":
        if not (g.is_diagonal() and g.a == g.d):
            raise UnsupportedAutomorphism("Jordan plane traces need scalar matrices")
        return TraceForm(((1, g.a), (1, g.a)))
    raise ValueError("plane_trace requires a plane context")


def trace_form(ctx, g: Mat2) -> TraceForm:
    if ctx.kind == "down_up":
        return downup_trace(ctx, g)
    return plane_trace(ctx, g)


def is_bireflection_by_trace(ctx, g: Mat2) -> bool:
    """Pole order gkdim - 2 or gkdim - 1 at t = 1 of g's own trace series.
    The reference for invariants.is_bireflection and its table flags."""
    return pole_order_at_one(trace_form(ctx, g)) in (ctx.gkdim - 2, ctx.gkdim - 1)


def generated_by_bireflections(ctx, group: MatGroup) -> bool:
    """Whether the elements is_bireflection_by_trace accepts generate the
    group, closed by CycNum products.  The reference for the report's flag."""
    gens = [g for g in group if is_bireflection_by_trace(ctx, g)]
    return len(_close_by_products(gens, group.conductor, len(group), len(group))) == len(group)


def mat_shape(g: Mat2) -> str:
    """"diagonal", "antidiagonal" or "other" (see matgroup._shape)."""
    return _shape(*(not e.is_zero() for e in g.entries()))


def mat_inverse(g: Mat2) -> Mat2:
    """The inverse by the adjugate; SingularGenerator for det 0."""
    det = g.det()
    if det.is_zero():
        raise SingularGenerator("matrix is not invertible")
    inv = det.inv()
    return Mat2(g.d * inv, -g.b * inv, -g.c * inv, g.a * inv)


def sl2_part(group: MatGroup) -> MatGroup:
    """The subgroup of determinant-one elements, in the order of `group`."""
    return generated_subgroup(group, [i for i, det in enumerate(group.table.dets) if det == 0])


def mat_s2() -> Mat2:
    return Mat2.of(0, -1, 1, 0)


def mat_d2() -> Mat2:
    return Mat2.diag(1, -1)


def series_coeffs(f: RatFunc, count: int) -> list[Fraction]:
    """First `count` Taylor coefficients of f at t = 0."""
    b = f.den.coeffs
    out: list[Fraction] = []
    for k in range(count):
        c = Fraction(f.num[k])
        for j in range(1, min(k, len(b) - 1) + 1):
            c -= b[j] * out[k - j]
        out.append(c)
    return out
