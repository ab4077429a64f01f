"""
2x2 matrices over cyclotomic fields, finite multiplicative closures, and
recognition of the standard families of finite subgroups of GL_2.

A group stores one integer form of its elements; no CycNum matrix is stored
eagerly.  A closure is breadth-first from the identity, so element order is
deterministic for a given generator list.  Invertible diagonal and
antidiagonal generators (every Q1..Q8, C_n and BD_4n group, and any diagonal
conjugate of one) close in the exponent form of `duinv.monomial`; all others
(the binary polyhedral groups, a group in a conjugated basis) in MatForm,
integer coefficient vectors over one denominator.  In both forms an element
is its own exact key and a product is integer arithmetic, so every closure
has one index product, and a subgroup is the list of its element indices in
its closure.  Classification and the invariants read every group through its
ElementTable: the shape, determinant, eigenvalues and order of each element
as integers.  CycNum stays at the edges: the generators, one exactly checked
eigenvalue per element of a MatForm closure, and `MatGroup.elements`, built
on demand.
"""
from __future__ import annotations

import cmath
import functools
import math
import typing
from fractions import Fraction

from . import monomial
from ._record import Record
from .cycnum import CycNum, _reduce, check_conductor, render_cyc, root_exponent, zeta
from .errors import GroupTooLarge, InfiniteOrderSuspected, SingularGenerator
from .intpoly import _mul, _mul_into, totient, totients_at_most

DEFAULT_CAP = 10_000


class Mat2(Record):
    """A 2x2 matrix with CycNum entries (row-major).  Immutable; `@` is the
    matrix product."""

    __slots__ = _fields = ("a", "b", "c", "d")
    a: CycNum
    b: CycNum
    c: CycNum
    d: CycNum

    def __init__(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @staticmethod
    def of(a, b, c, d) -> "Mat2":
        conv = lambda x: x if isinstance(x, CycNum) else CycNum.from_rat(x)
        return Mat2(conv(a), conv(b), conv(c), conv(d))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2.of(1, 0, 0, 1)

    @staticmethod
    def diag(x, y) -> "Mat2":
        return Mat2.of(x, 0, 0, y)

    def entries(self) -> tuple[CycNum, CycNum, CycNum, CycNum]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def det(self) -> CycNum:
        return self.a * self.d - self.b * self.c

    def trace(self) -> CycNum:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        if det.is_zero():
            raise SingularGenerator("matrix is not invertible")
        inv = det.inv()
        return Mat2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def is_diagonal(self) -> bool:
        return self.b.is_zero() and self.c.is_zero()

    def conductor(self) -> int:
        return math.lcm(*(e.conductor for e in self.entries()))

    def key(self, conductor: int) -> tuple:
        """Hashable exact form of the matrix at the given conductor."""
        return tuple(e.promoted(conductor).coeffs for e in self.entries())

    def shape(self) -> str:
        """"diagonal", "antidiagonal" or "other" (see _shape)."""
        return _shape(*(not e.is_zero() for e in self.entries()))

    def monomial(self):
        """(perm, scalars) as in duinv.monomial for an invertible diagonal or
        antidiagonal matrix, else None (see monomial.from_rows)."""
        return monomial.from_rows(((self.a, self.b), (self.c, self.d)))

    @staticmethod
    def from_monomial(perm, scalars, zero: CycNum) -> "Mat2":
        """The inverse of monomial(), with `zero` in the other two entries."""
        x, y = scalars
        return Mat2(x, zero, zero, y) if perm == (0, 1) else Mat2(zero, y, x, zero)

    def order(self) -> int:
        """The multiplicative order (see _finite_order)."""
        return _finite_order(self)


def render_matrix(m: Mat2) -> str:
    """Render a Mat2 in the surface syntax "[[e11,e12],[e21,e22]]" of duinv.notation."""
    e = [render_cyc(v) for v in m.entries()]
    return f"[[{e[0]},{e[1]}],[{e[2]},{e[3]}]]"


class MatForm:
    """
    2x2 matrices over Q(zeta_n), n the conductor, as integers; usually a
    finite group.  An element is (den, a, b, c, d): the entries as int
    coefficient vectors in the power basis of duinv.cycnum, over one
    positive denominator with no factor common to all of them, so it is the
    matrix's one exact key.  The product multiplies the vectors (duinv.intpoly's
    kernel) and reduces them modulo Phi_n, a monic integer polynomial.
    """

    def __init__(self, conductor: int, elements: tuple):
        self.conductor, self.elements = conductor, elements
        one, zero = tuple(_reduce([1], conductor)), tuple(_reduce([], conductor))
        self.identity = (1, one, zero, zero, one)

    @staticmethod
    def of(conductor: int, mats) -> "MatForm":
        """The matrices over the lcm of their coefficients' denominators, whose
        prime powers each divide one denominator exactly, so no factor is
        common to all the scaled numerators."""
        elements = []
        for g in mats:
            vecs = [e.promoted(conductor).coeffs for e in g.entries()]
            den = math.lcm(*(c.denominator for v in vecs for c in v))
            elements.append((den, *(tuple(c.numerator * (den // c.denominator) for c in v)
                                    for v in vecs)))
        return MatForm(conductor, tuple(elements))

    def _cyc(self, v: tuple, den: int) -> CycNum:
        return CycNum(self.conductor, [Fraction(c, den) for c in v], _reduced=True)

    def mat(self, x) -> Mat2:
        return Mat2(*(self._cyc(v, x[0]) for v in x[1:]))

    def mul(self, x, y):
        """The matrix product x @ y."""
        (dx, a, b, c, d), (dy, e, f, g, h), n = x, y, self.conductor
        out = [tuple(_reduce(_mul_into(_mul(p, q), r, s), n))
               for p, q, r, s in ((a, e, b, g), (a, f, b, h), (c, e, d, g), (c, f, d, h))]
        den = dx * dy
        k = math.gcd(den, *(v for vec in out for v in vec)) if den > 1 else 1
        return (den // k, *(tuple(v // k for v in vec) for vec in out)) if k > 1 else (den, *out)

    def closure(self, cap: int) -> "MatForm":
        """The group the elements generate, in the order of monomial.closure."""
        return MatForm(self.conductor,
                       tuple(monomial.closure(self.identity, self.elements, self.mul, cap)))

    def table(self) -> "ElementTable":
        """The ElementTable of elements that form a group, in one pass: every
        order divides |G| (Lagrange), so each det and eigenvalue is a power of
        zeta_|G|, and |G| over its gcd with all the exponents is the lcm of the orders."""
        size, rows = len(self.elements), []
        for den, a, b, c, d in self.elements:
            det = self._cyc(_reduce(_mul_into(_mul(a, d), b, [-v for v in c]), self.conductor),
                            den * den)
            tr = self._cyc(tuple(u + v for u, v in zip(a, d)), den)
            rows.append(_eigen_exponents(size, det, tr))
        g = math.gcd(size, *(e for row in rows for e in row))
        return ElementTable(size // g, tuple(_shape(*map(any, x[1:])) for x in self.elements),
                            tuple(det // g for det, _, _ in rows),
                            tuple((k // g, j // g) for _, k, j in rows))


def _shape(a: bool, b: bool, c: bool, d: bool) -> str:
    """The shape of [[a, b], [c, d]] from whether each entry is nonzero."""
    return "diagonal" if not (b or c) else "antidiagonal" if b and c and not (a or d) else "other"


# Named matrices used throughout: reflections, rotations and the diagonal
# one-parameter families.

def mat_s() -> Mat2:
    return Mat2.of(0, 1, 1, 0)


def mat_s1() -> Mat2:
    return Mat2.of(0, 1, -1, 0)


def mat_s2() -> Mat2:
    return Mat2.of(0, -1, 1, 0)


def mat_d1() -> Mat2:
    return Mat2.diag(-1, 1)


def mat_d2() -> Mat2:
    return Mat2.diag(1, -1)


def mat_c(eps: CycNum) -> Mat2:
    """diag(eps, eps^-1)."""
    return Mat2.diag(eps, eps.inv())


def mat_c_minus(eps: CycNum) -> Mat2:
    """diag(-eps, eps^-1)."""
    return Mat2.diag(-eps, eps.inv())


def standard_group(family: int, n: int) -> "MatGroup":
    """
    The families Q1..Q8 of finite subgroups of diagonal/antidiagonal
    matrices, by their standard generators:

      Q1 = <c_eps>, eps primitive n-th root           (order n,  det 1)
      Q2 = <d1, c_eps>, eps primitive 2n-th root      (order 4n, det +-1)
      Q3 = <d1, c_eps>, eps primitive n-th, n odd     (order 2n, det +-1)
      Q4 = <c_{eps,-}>, eps primitive 4n-th root      (order 4n, det +-1)
      Q5 = <s1, c_eps>, eps primitive 2n-th root      (order 4n, det 1)
      Q6 = <s, c_eps>, eps primitive n-th root        (order 2n, det +-1)
      Q7 = <d1, s, c_eps>, eps primitive 2n-th root   (order 8n, det +-1)
      Q8 = <s, c_{eps,-}>, eps primitive 4n-th root   (order 8n, det +-1)
    """
    if family == 1:
        gens = [mat_c(zeta(n))]
    elif family == 2:
        gens = [mat_d1(), mat_c(zeta(2 * n))]
    elif family == 3:
        if n % 2 == 0:
            raise ValueError("Q3 requires odd n")
        gens = [mat_d1(), mat_c(zeta(n))]
    elif family == 4:
        gens = [mat_c_minus(zeta(4 * n))]
    elif family == 5:
        gens = [mat_s1(), mat_c(zeta(2 * n))]
    elif family == 6:
        gens = [mat_s(), mat_c(zeta(n))]
    elif family == 7:
        gens = [mat_d1(), mat_s(), mat_c(zeta(2 * n))]
    elif family == 8:
        gens = [mat_s(), mat_c_minus(zeta(4 * n))]
    else:
        raise ValueError(f"unknown family Q{family}")
    return close_group(gens)


class ElementTable(typing.NamedTuple):
    """
    The elements of a finite group of 2x2 matrices as integers, in group
    order: the shape of each (see Mat2.shape), and its determinant and its
    eigenvalues, sorted, as exponents of zeta_modulus.
    """

    modulus: int
    shapes: tuple[str, ...]
    dets: tuple[int, ...]
    eigenvalues: tuple[tuple[int, int], ...]

    @property
    def orders(self) -> tuple[int, ...]:
        """A finite-order matrix has the order of its eigenvalues."""
        return tuple(self.modulus // math.gcd(self.modulus, *eig)
                     for eig in self.eigenvalues)

    @staticmethod
    def of_form(form: monomial.ExpForm) -> "ElementTable":
        return ElementTable(form.eigen_modulus,
                            tuple(_PERM_SHAPES[perm] for perm, _ in form.elements),
                            form.dets, tuple(tuple(sorted(e)) for e in form.eigenvalues))


_PERM_SHAPES = {(0, 1): "diagonal", (1, 0): "antidiagonal"}


class MatGroup(Record):
    """
    A finite group of 2x2 matrices at a common conductor.  A closure, built
    by close_group only, stores its elements in one integer form, `form`:
    the exponent form of duinv.monomial for diagonal and antidiagonal
    generators, else MatForm.  A subgroup, built by generated_subgroup only,
    stores the indices of its elements and generators among those of its
    closure, `_root`, and has no form of its own.
    `elements`, and a subgroup's `generators`, are built on first read;
    len() and `table` never build one.  Equality, hash and repr use the
    elements, the generators and the conductor only.  A copy or a pickle
    of a closure keeps its generators, conductor and form, and one of a
    subgroup its closure and generator indices.
    """

    _fields = ("elements", "generators", "conductor")
    elements: tuple[Mat2, ...]
    generators: tuple[Mat2, ...]
    conductor: int
    form: "monomial.ExpForm | MatForm"
    _root: "MatGroup"
    _indices: typing.Sequence[int]
    _generator_indices: tuple[int, ...]
    # The fields of invariants.theorem03_report that depend on the group alone.
    _facts: dict

    def __init__(self, generators: tuple[Mat2, ...], conductor: int,
                 form: "monomial.ExpForm | MatForm"):
        # A closure.  The instance dict, where cached_property also stores
        # its values, because __setattr__ refuses.
        vars(self).update(generators=generators, conductor=conductor, form=form, _root=self,
                          _facts={}, _indices=range(len(form.elements)))

    def __reduce__(self):
        if self._root is self:
            return MatGroup, (self.generators, self.conductor, self.form)
        return generated_subgroup, (self._root, self._generator_indices)

    def __len__(self):
        return len(self._indices)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m) -> bool:
        if not isinstance(m, Mat2):
            return False
        if self.conductor % m.conductor():
            root, table = root_exponent(m.det()), self.table
            if root is None or table.modulus % root[0]:
                return False
            det = root[1] * (table.modulus // root[0])
            return any(d == det and self.elements[i] == m for i, d in enumerate(table.dets))
        return m.key(self.conductor) in self._keys

    @functools.cached_property
    def _keys(self) -> frozenset:
        """The elements' exact forms at the group's conductor (see Mat2.key)."""
        return frozenset(e.key(self.conductor) for e in self.elements)

    @functools.cached_property
    def elements(self) -> tuple[Mat2, ...]:
        if self._root is not self:
            return tuple(self._root.elements[i] for i in self._indices)
        form = self.form
        if isinstance(form, MatForm):
            return tuple(map(form.mat, form.elements))
        zero = CycNum.zero().promoted(self.conductor)
        return tuple(Mat2.from_monomial(*m, zero) for m in form.monomials(self.conductor))

    @functools.cached_property
    def generators(self) -> tuple[Mat2, ...]:
        return tuple(self._root.elements[i] for i in self._generator_indices)

    @functools.cached_property
    def table(self) -> ElementTable:
        """Shapes, determinants, eigenvalues and orders of the elements: a
        subgroup's are its closure's rows at its indices."""
        if self._root is not self:
            modulus, *columns = self._root.table
            return ElementTable(modulus, *(tuple(column[i] for i in self._indices)
                                           for column in columns))
        form = self.form
        return form.table() if isinstance(form, MatForm) else ElementTable.of_form(form)

    @functools.cached_property
    def shapes(self) -> frozenset[str]:
        """The shapes that occur among the elements (see Mat2.shape)."""
        return frozenset(self.table.shapes)

    def _product(self, i: int, j: int) -> int:
        """On a closure, the index of elements[i] @ elements[j]."""
        form = self.form
        return self._index[form.mul(form.elements[i], form.elements[j])]

    @functools.cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.form.elements)}


# Closures, Molien series and down-up algebra contexts are memoized by their
# exact inputs.  Each cache drops its oldest entry beyond this size; the 274
# reports of the acceptance sweep fill 64 closure, 59 Molien and 4 context
# entries.
_CACHE_SIZE = 1024
_closure_cache: dict = {}


def close_group(generators, cap: int = DEFAULT_CAP) -> MatGroup:
    """
    Breadth-first multiplicative closure of the generators and the identity.
    Raises PromotionOverflow first, when the entries' conductors have an lcm
    above CONDUCTOR_CAP.  Raises SingularGenerator for non-invertible input,
    GroupTooLarge when the closure exceeds `cap` elements, and
    InfiniteOrderSuspected before the closure runs when the group cannot be
    finite: diagonal and antidiagonal generators that no diagonal change of
    basis turns into roots of unity (see monomial.exponent_form), or, among
    generators not all monomial, one that _finite_order refuses, named by
    its position.
    Non-monomial generators are closed up to the smaller of `cap` and
    _group_order_bound; GroupTooLarge at that bound names it, and means the
    group is infinite.  Closures are memoized by each generator entry's own
    conductor and coefficients: equal keys mean equal matrices, so a hit
    returns the same group and runs none of these checks, and the same value
    written at another conductor only misses and is closed anew.
    """
    gens = list(generators) or [Mat2.identity()]
    # Each entry's conductor and canonical coefficients: equal exactly when the entries are.
    cache_key = (tuple([(e.conductor, e.coeffs) for g in gens for e in g.entries()]), cap)
    cached = _closure_cache.get(cache_key)
    if cached is not None:
        return cached
    conductor = math.lcm(*(g.conductor() for g in gens))
    check_conductor(conductor)
    form, limit = monomial.exponent_form([g.monomial() for g in gens]), cap
    if form is None:
        for i, g in enumerate(gens):
            try:
                _finite_order(g)
            except InfiniteOrderSuspected as exc:
                raise InfiniteOrderSuspected(f"generator {i + 1} of {len(gens)}, {exc}") from None
        form, limit = MatForm.of(conductor, gens), min(cap, _group_order_bound(conductor))
    try:
        group = MatGroup(tuple(gens), conductor, form.closure(limit))
    except GroupTooLarge:
        if limit == cap:
            raise
        raise GroupTooLarge(f"closure exceeded {limit} elements, the most a finite "
                            f"subgroup of GL_2(Q(zeta_{conductor})) has") from None
    return remember(_closure_cache, cache_key, group)


def remember(cache: dict, key, value):
    """cache[key] = value, dropping the oldest entry beyond _CACHE_SIZE."""
    if len(cache) >= _CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


def _order_bound(conductor: int) -> int:
    """
    An upper bound on the order m of any finite-order 2x2 matrix over
    Q(zeta_conductor).  Its eigenvalues are roots of unity whose orders have
    lcm m, so zeta_m lies in their field, of degree at most 2 phi(conductor);
    hence phi(m) <= 2 phi(conductor), and m is at most the largest such index.
    """
    return totients_at_most(2 * totient(conductor))[-1]


def _group_order_bound(conductor: int) -> int:
    """
    B(n) = max(R^2, lcm(2, n) max(60, 2R)) with R = _order_bound(n): an upper
    bound on the order of a finite subgroup G of GL_2(Q(zeta_n)), whose
    elements all have order at most R.  If G is reducible over C, it is
    diagonalizable (Maschke), so abelian, and it embeds in the product of
    its two eigenvalue characters.  The image of each is cyclic, generated
    by the image of one element, so of order at most R.  If G is
    irreducible, the kernel of G -> PGL_2 is its scalar matrices, roots of
    unity in Q(zeta_n), of which there are lcm(2, n).  The image is cyclic,
    dihedral of order 2k, A_4, S_4 or A_5, and k <= R, as an element's image
    has the order of its eigenvalue ratio.
    """
    r = _order_bound(conductor)
    return max(r * r, math.lcm(2, conductor) * max(60, 2 * r))


def generated_subgroup(group: MatGroup, indices) -> MatGroup:
    """
    The closure of the elements of `group` at the given indices, in the order
    of close_group on them (see monomial.subgroup), with no finite-order
    check: on indices into the closure of `group`, by its index product.
    """
    root = group._root
    gens = tuple(group._indices[i] for i in indices)
    sub = MatGroup.__new__(MatGroup)
    vars(sub).update(conductor=root.conductor, _root=root, _generator_indices=gens,
                     _indices=tuple(monomial.subgroup(root._index[root.form.identity], gens,
                                                      root._product, DEFAULT_CAP)))
    return sub


def sl2_part(group: MatGroup) -> MatGroup:
    """The subgroup of determinant-one elements, in the order of `group`."""
    return generated_subgroup(group, [i for i, det in enumerate(group.table.dets) if det == 0])


def eigenvalues(g: Mat2) -> tuple[CycNum, CycNum]:
    """The eigenvalue pair of a finite-order matrix g of order m (see
    _finite_order), m-th roots of unity sorted by exponent (_eigen_exponents)."""
    m = _finite_order(g)
    return tuple(zeta(m, k) for k in _eigen_exponents(m, g.det(), g.trace())[1:])


def _finite_order(g: Mat2) -> int:
    """The order of g, at most R = _order_bound(conductor): for a monomial g,
    the order of the eigenvalues of its exponent form, else the size of its
    cyclic closure in MatForm.  SingularGenerator for a zero determinant, and
    InfiniteOrderSuspected when the determinant is not a root of unity, when
    g is not scalar and has a repeated eigenvalue (trace^2 = 4 det, so it is
    not diagonalizable), when a power of a monomial g scales a basis vector
    by a non-root of unity, or when no power of another g up to R is the identity."""
    det, tr, n = g.det(), g.trace(), g.conductor()
    if det.is_zero():
        raise SingularGenerator(f"{render_matrix(g)}, has zero determinant")
    if root_exponent(det) is None:
        problem = "has a determinant that is not a root of unity"
    elif not (g.is_diagonal() and g.a == g.d) and tr * tr == 4 * det:
        problem = "is not scalar and has a repeated eigenvalue"
    else:
        try:
            form = monomial.exponent_form([g.monomial()])
            if form is not None:
                return ElementTable.of_form(form).orders[0]
            return len(MatForm.of(n, [g]).closure(_order_bound(n)).elements)
        except InfiniteOrderSuspected:
            problem = "has a power that scales a basis vector by a non-root of unity"
        except GroupTooLarge:
            problem = f"has no power up to R = {_order_bound(n)} equal to the identity"
    raise InfiniteOrderSuspected(f"{render_matrix(g)}, {problem}, so it has infinite order")


def _eigen_exponents(m: int, det: CycNum, tr: CycNum) -> tuple[int, int, int]:
    """The exponents of det = zeta_m^d and of the sorted eigenvalues of a
    matrix with trace tr whose order divides m, as powers of zeta_m.  A complex
    root of t^2 - tr t + det, its phase rounded to a multiple of 2 pi / m,
    proposes zeta_m^k; zeta_m^k + zeta_m^(d - k) = tr, each root built at its
    least conductor (zeta_m^j as zeta_(m/g)^(j/g), g = gcd(m, j)), checks it."""
    order, e = root_exponent(det)
    d, t = e * (m // order), tr.approx()
    root = (t + cmath.sqrt(t * t - 4 * det.approx())) / 2
    k = round(cmath.phase(root) * m / (2 * math.pi)) % m
    g, h = math.gcd(m, k), math.gcd(m, d - k)
    if zeta(m // g, k // g) + zeta(m // h, (d - k) // h) != tr:
        raise InfiniteOrderSuspected(f"the eigenvalues are not {m}-th roots of unity")
    return (d, *sorted((k, (d - k) % m)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class GroupLabel(typing.NamedTuple):
    family: str
    n: int | None
    order: int
    all_matches: tuple[str, ...]


def classify(group: MatGroup) -> GroupLabel:
    """
    Recognize a closed group against the standard families: the diagonal and
    diagonal/antidiagonal families Q1..Q8 and, for determinant-one groups,
    the cyclic / binary dihedral / binary polyhedral alternatives.  Groups
    presented in a conjugated basis come back as "Unrecognized".
    """
    order = len(group)
    table = group.table
    half = table.modulus // 2 if table.modulus % 2 == 0 else None  # -1 = zeta^half
    signs = [{0: 1, half: -1}.get(det) for det in table.dets]  # None: neither
    shapes = table.shapes
    # diag(-1, 1) or diag(1, -1)
    reflections = [s == "diagonal" and eig == (0, half)
                   for s, eig in zip(shapes, table.eigenvalues)]
    det_one = set(signs) == {1}
    det_pm1 = set(signs) == {1, -1}
    orders = table.orders
    cyclic = order in orders
    cyclic_index_two = order % 2 == 0 and order // 2 in orders

    matches: list[tuple[str, int | None]] = []

    if set(shapes) == {"diagonal"}:
        m = signs.count(1)  # order of the SL_2 part
        has_refl = any(reflections)
        if det_one and cyclic:
            matches.append(("Q1", order))
        if det_pm1 and has_refl and m % 2 == 0:
            matches.append(("Q2", m // 2))
        if det_pm1 and has_refl and m % 2 == 1:
            matches.append(("Q3", m))
            if m == 1:
                matches.append(("A1", None))
            matches.append(("A3", m))
        if det_pm1 and not has_refl and cyclic and m % 2 == 0:
            matches.append(("Q4", m // 2))
            matches.append(("A4", m // 2))
        if det_pm1 and has_refl and m % 2 == 0:
            matches.append(("A2", m // 2))
    elif set(shapes) <= {"diagonal", "antidiagonal"}:
        diag = [i for i, s in enumerate(shapes) if s == "diagonal"]
        anti_dets = {sign for sign, s in zip(signs, shapes) if s == "antidiagonal"}
        diag_dets = {signs[i] for i in diag}
        if det_one and anti_dets:
            if order % 4 == 0:
                matches.append(("Q5", order // 4))
        if det_pm1 and anti_dets == {-1} and diag_dets == {1}:
            matches.append(("Q6", order // 2))
            matches.append(("D", order // 2))
            matches.append(("A5", None))
        if det_pm1 and anti_dets == {1, -1} and diag_dets == {1, -1}:
            has_refl = any(reflections[i] for i in diag)
            diag_cyclic = any(orders[i] == len(diag) for i in diag)
            if has_refl and order % 8 == 0:
                matches.append(("Q7", order // 8))
            if not has_refl and diag_cyclic and order % 8 == 0:
                matches.append(("Q8", order // 8))

    if det_one:
        if cyclic:
            matches.append(("C", order))
        if order % 4 == 0 and order > 4 and not cyclic and cyclic_index_two:
            matches.append(("BD", order // 4))
        if order == 4 and cyclic:
            matches.append(("BD", 1))
        if order == 24 and not cyclic and not cyclic_index_two:
            matches.append(("BT", None))
        if order == 48 and not cyclic_index_two:
            matches.append(("BO", None))
        if order == 120 and not cyclic_index_two:
            matches.append(("BI", None))

    # The label is the least of Q1..Q8 that matched, else the first match.
    family, n = min(matches, key=lambda m: m[0] if m[0][0] == "Q" else "R",
                    default=("Unrecognized", None))
    return GroupLabel(family, n, order, tuple(_render_label(*m) for m in matches))


def _render_label(family: str, n: int | None) -> str:
    if family in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"):
        return f"{family}(n={n})"
    if family == "C":
        return f"C{n}"
    if family == "BD":
        return f"BD{4 * n}"
    if family == "D":
        return f"D{2 * n}"
    if family.startswith("A"):
        return f"A{family[1]}-type" if n is None else f"A{family[1]}-type(n={n})"
    return family

