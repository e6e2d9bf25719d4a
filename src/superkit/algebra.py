"""Finite dimensional supercommutative superalgebras over an exact field.

An algebra is a graded basis (labels with parities in {0,1}) together with
sparse structure constants.  Construction eagerly checks the axioms:
parity additivity of products, supercommutativity ab = (-1)^{|a||b|} ba,
associativity and the unit law.  Derived constructions (tensor products,
quotients) that are correct by construction skip the cubic associativity
sweep but everything user-supplied is verified.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .linalg import Subspace, kron, solve, transpose


class AlgebraError(ValueError):
    pass


class AxiomReport:
    def __init__(self):
        self.holds = True
        self.failures = []

    def fail(self, msg):
        self.holds = False
        self.failures.append(msg)

    def __repr__(self):
        return "AxiomReport(holds=%s, failures=%r)" % (self.holds, self.failures)


class SuperVectorSpace:
    def __init__(self, labels, parities):
        labels = tuple(labels)
        parities = tuple(int(p) % 2 for p in parities)
        if len(labels) != len(parities):
            raise AlgebraError("labels and parities disagree in length")
        if len(set(labels)) != len(labels):
            raise AlgebraError("duplicate basis labels")
        self.labels = labels
        self.parities = parities
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label):
        if label not in self._index:
            raise AlgebraError("unknown basis label %r" % (label,))
        return self._index[label]


class Element:
    """Element of a SuperAlgebra: dense coordinate tuple over the basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _check_same(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")

    # Most coordinates are zero: the arithmetic below does no scalar
    # operation on a zero coordinate.

    def __add__(self, other):
        self._check_same(other)
        return Element(
            self.algebra, [a + b if b else a for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check_same(other)
        return Element(
            self.algebra, [a - b if b else a for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return Element(self.algebra, [-a if a else a for a in self.coords])

    def scale(self, c):
        return Element(self.algebra, [c * a if a else a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return self.algebra.multiply(self, other)
        return self.scale(self.algebra.field.from_int(other) if isinstance(other, int) else other)

    def __rmul__(self, other):
        return self.scale(self.algebra.field.from_int(other) if isinstance(other, int) else other)

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def coeff(self, label):
        return self.coords[self.algebra.space.index(label)]

    def homogeneous_part(self, parity):
        zero = self.algebra.field.zero
        par = self.algebra.space.parities
        return Element(
            self.algebra,
            [c if par[i] == parity else zero for i, c in enumerate(self.coords)],
        )

    def parity(self):
        """0 or 1 for homogeneous elements (0 for zero), None if mixed."""
        seen = {self.algebra.space.parities[i] for i, c in enumerate(self.coords) if c}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

    def support(self):
        return [i for i, c in enumerate(self.coords) if c]

    def invert(self):
        """Multiplicative inverse, or raise AlgebraError.

        Let s be the coordinate of self on the unit, when the unit is a
        basis vector.  Local case: if s != 0 and m = 1 - self/s is
        nilpotent (always so over a local algebra such as a Grassmann
        algebra), the inverse is the finite Neumann series
        s^-1 (1 + m + m^2 + ...).  Nilpotent case: if s = 0 and self is
        nilpotent, there is no inverse.  Every other case (an algebra that
        is not local, a unit that is not a basis vector) falls back to the
        linear solve of invert_by_solve."""
        A = self.algebra
        u = A.unit_index
        if u is not None:
            s = self.coords[u]
            if s:
                s_inv = A.field.one / s
                powers = A.nilpotent_powers(A.unit - self.scale(s_inv))
                if powers is not None:
                    return reduce(add, powers, A.unit).scale(s_inv)
            elif A.nilpotent_powers(self) is not None:
                raise AlgebraError("element is not invertible")
        return self.invert_by_solve()

    def invert_by_solve(self):
        """Multiplicative inverse via a linear solve, or raise AlgebraError."""
        A = self.algebra
        n = A.space.dim
        cols = [A.multiply(self, A.basis_element(j)).coords for j in range(n)]
        sol = solve(transpose(cols), A.unit.coords, A.field)
        if sol is None:
            raise AlgebraError("element is not invertible")
        return Element(A, sol)

    def __repr__(self):
        A = self.algebra
        terms = []
        for i in self.support():
            terms.append("%s*%s" % (A.field.render(self.coords[i]), A.space.labels[i]))
        return " + ".join(terms) if terms else "0"


class SuperAlgebra:
    def __init__(self, field, labels, parities, unit_coords, products, *, check=True, name=None):
        self.field = field
        self.space = SuperVectorSpace(labels, parities)
        self.name = name
        self._prod = {}
        for (i, j), terms in products.items():
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                self._prod[(i, j)] = terms
        self._unit_coords = tuple(unit_coords)
        support = self.unit.support()
        self.unit_index = (
            support[0] if len(support) == 1 and self.unit.coords[support[0]] == field.one
            else None
        )
        if check:
            self._validate(full=True)
        else:
            self._validate(full=False)

    @property
    def dim(self):
        return self.space.dim

    @property
    def unit(self):
        # built on each use: an Element kept here would refer back to the
        # algebra, and the cycle would hold every discarded algebra and its
        # product table until the cyclic collector runs
        return Element(self, self._unit_coords)

    def basis_element(self, i):
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return Element(self, coords)

    def zero(self):
        return Element(self, [self.field.zero] * self.dim)

    def element(self, data):
        """Build an element from {label: scalar-or-int-or-str}."""
        coords = [self.field.zero] * self.dim
        for label, c in data.items():
            if isinstance(c, int):
                c = self.field.from_int(c)
            elif isinstance(c, str):
                c = self.field.parse(c)
            coords[self.space.index(label)] = c
        return Element(self, coords)

    def product_coords(self, i, j):
        return self._prod.get((i, j), {})

    def multiply(self, a, b):
        field = self.field
        out = [field.zero] * self.dim
        b_terms = [(j, b.coords[j]) for j in b.support()]
        for i in a.support():
            ca = a.coords[i]
            for j, cb in b_terms:
                c = ca * cb
                for k, s in self.product_coords(i, j).items():
                    out[k] = out[k] + c * s
        return Element(self, out)

    def nilpotent_powers(self, x):
        """The nonzero powers x, x^2, ... of x if x is nilpotent, else None.

        Takes at most dim - 1 multiplies: if x^k is the first zero power,
        1, x, ..., x^(k-1) are independent, so k <= dim."""
        powers, p = [], x
        while not p.is_zero():
            if len(powers) == self.dim - 1:
                return None
            powers.append(p)
            p = self.multiply(p, x)
        return powers

    # -- axioms ---------------------------------------------------------

    def _validate(self, full):
        n = self.dim
        par = self.space.parities
        field = self.field
        for (i, j), terms in self._prod.items():
            want = (par[i] + par[j]) % 2
            for k in terms:
                if par[k] != want:
                    raise AlgebraError(
                        "product %s*%s is not parity additive"
                        % (self.space.labels[i], self.space.labels[j])
                    )
        for i in range(n):
            for j in range(i, n):
                sign = field.one if par[i] * par[j] == 0 else -field.one
                pij = self.product_coords(i, j)
                pji = self.product_coords(j, i)
                keys = set(pij) | set(pji)
                for k in keys:
                    lhs = pji.get(k, field.zero)
                    rhs = sign * pij.get(k, field.zero)
                    if lhs != rhs:
                        raise AlgebraError(
                            "not supercommutative at %s,%s"
                            % (self.space.labels[i], self.space.labels[j])
                        )
        if self.unit.parity() not in (0,):
            raise AlgebraError("unit must be even")
        for i in range(n):
            b = self.basis_element(i)
            if self.multiply(self.unit, b) != b or self.multiply(b, self.unit) != b:
                raise AlgebraError("unit law fails at %s" % (self.space.labels[i],))
        if full:
            for i in range(n):
                bi = self.basis_element(i)
                for j in range(n):
                    bij = self.multiply(bi, self.basis_element(j))
                    for k in range(n):
                        bk = self.basis_element(k)
                        lhs = self.multiply(bij, bk)
                        rhs = self.multiply(bi, self.multiply(self.basis_element(j), bk))
                        if lhs != rhs:
                            raise AlgebraError(
                                "not associative at (%s,%s,%s)"
                                % tuple(self.space.labels[t] for t in (i, j, k))
                            )

    def __repr__(self):
        return "SuperAlgebra(%s, dim %d)" % (self.name or "?", self.dim)


class LinearMap:
    """Linear map between algebra carriers: rows of the matrix index the target."""

    def __init__(self, source, target, rows):
        self.source = source
        self.target = target
        self.rows = [tuple(r) for r in rows]
        if len(self.rows) != target.dim or any(len(r) != source.dim for r in self.rows):
            raise AlgebraError("map matrix has wrong shape")

    def apply(self, elem):
        if elem.algebra is not self.source:
            raise AlgebraError("element not in the source algebra")
        f = self.source.field
        return Element(
            self.target,
            [f.sum(r[j] * elem.coords[j] for j in range(self.source.dim)) for r in self.rows],
        )


class SuperIdeal:
    """A graded two-sided ideal, stored as an echelon Subspace."""

    def __init__(self, algebra, generators, *, close=True):
        self.algebra = algebra
        vectors = []
        for g in generators:
            for p in (0, 1):
                part = g.homogeneous_part(p)
                if not part.is_zero():
                    vectors.append(part.coords)
        sub = Subspace(algebra.field, algebra.dim, vectors)
        if close:
            sub = self._close(sub)
        self.sub = sub
        self._check_ideal()

    def _close(self, sub):
        A = self.algebra
        while True:
            new = []
            for row in sub.rows:
                v = Element(A, row)
                for i in range(A.dim):
                    prod = A.multiply(A.basis_element(i), v)
                    if not sub.contains(prod.coords):
                        new.append(prod.coords)
            if not new:
                return sub
            sub = sub.add_vectors(new)

    def _check_ideal(self):
        A = self.algebra
        for row in self.sub.rows:
            v = Element(A, row)
            if v.parity() is None:
                raise AlgebraError("ideal basis is not homogeneous")
            for i in range(A.dim):
                if not self.sub.contains(A.multiply(A.basis_element(i), v).coords):
                    raise AlgebraError("subspace is not an ideal")

    @property
    def dim(self):
        return self.sub.dim

    def contains(self, elem):
        return self.sub.contains(elem.coords)


# -- constructors -------------------------------------------------------


def grassmann(field, generators):
    """Grassmann algebra on odd generators; basis ordered by (degree, mask)."""
    generators = list(generators)
    k = len(generators)
    masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
    pos = {m: i for i, m in enumerate(masks)}

    def label(m):
        if m == 0:
            return "1"
        return "*".join(generators[i] for i in range(k) if m >> i & 1)

    labels = [label(m) for m in masks]
    parities = [bin(m).count("1") % 2 for m in masks]
    products = {}
    for ia, ma in enumerate(masks):
        for ib, mb in enumerate(masks):
            if ma & mb:
                continue
            inv = 0
            for s in range(k):
                if ma >> s & 1:
                    inv += bin(mb & ((1 << s) - 1)).count("1")
            sign = field.one if inv % 2 == 0 else -field.one
            products[(ia, ib)] = {pos[ma | mb]: sign}
    unit = [field.one if i == 0 else field.zero for i in range(1 << k)]
    return SuperAlgebra(
        field, labels, parities, unit, products, check=False,
        name="Lambda(%s)" % ",".join(generators),
    )


def tensor(A, B):
    """Tensor product superalgebra with the Koszul sign rule."""
    if A.field != B.field:
        raise AlgebraError("tensor factors over different fields")
    field = A.field
    dimB = B.dim
    labels = ["%s⊗%s" % (la, lb) for la in A.space.labels for lb in B.space.labels]
    parities = [
        (pa + pb) % 2 for pa in A.space.parities for pb in B.space.parities
    ]
    products = {}
    for (i, k), pa in A._prod.items():
        for (j, l), pb in B._prod.items():
            sign = field.one if B.space.parities[j] * A.space.parities[k] == 0 else -field.one
            terms = {}
            for u, cu in pa.items():
                for v, cv in pb.items():
                    terms[u * dimB + v] = sign * cu * cv
            products[(i * dimB + j, k * dimB + l)] = terms
    unit = kron(A.unit.coords, B.unit.coords, field)
    return SuperAlgebra(
        field, labels, parities, unit, products, check=False,
        name="%s⊗%s" % (A.name or "?", B.name or "?"),
    )


def tensor_pure(T, a, b):
    """The element a⊗b of the tensor product algebra T = tensor(A, B)."""
    return Element(T, kron(a.coords, b.coords, T.field))


def lift_matrix(R, mat):
    """A matrix over the field as a matrix over R."""
    return [[R.unit.scale(x) for x in row] for row in mat]


def ground_algebra(field):
    """The one dimensional algebra K."""
    return SuperAlgebra(
        field, ["1"], [0], [field.one], {(0, 0): {0: field.one}},
        check=False, name="K",
    )


class DualSuperNumbers:
    """R[eps0, eps1]: free rank 3 extension with one even and one odd square-zero
    generator; comes with the projection p and inclusion i along R."""

    def __init__(self, R):
        field = R.field
        D = SuperAlgebra(
            field,
            ["1", "eps0", "eps1"],
            [0, 0, 1],
            [field.one, field.zero, field.zero],
            {
                (0, 0): {0: field.one},
                (0, 1): {1: field.one},
                (1, 0): {1: field.one},
                (0, 2): {2: field.one},
                (2, 0): {2: field.one},
            },
            check=True,
            name="K[eps0,eps1]",
        )
        self.base = R
        self.factor = D
        self.algebra = tensor(R, D)

    def include(self, r):
        return tensor_pure(self.algebra, r, self.factor.basis_element(0))

    def project(self, x):
        R, D = self.base, self.factor
        coords = [x.coords[i * D.dim + 0] for i in range(R.dim)]
        return Element(R, coords)

    def eps0(self):
        return tensor_pure(self.algebra, self.base.unit, self.factor.basis_element(1))

    def eps1(self):
        return tensor_pure(self.algebra, self.base.unit, self.factor.basis_element(2))


def odd_ideal(A):
    """The ideal A·A_1 generated by the odd part."""
    gens = []
    for x in range(A.dim):
        if A.space.parities[x] == 1:
            gens.append(A.basis_element(x))
    return SuperIdeal(A, gens)


def ideal_generated_by(A, elements):
    return SuperIdeal(A, elements)


def quotient_by_ideal(A, ideal):
    """Quotient algebra with the echelon-complement basis.

    Returns (Q, projection LinearMap, section list of A-Elements)."""
    field = A.field
    sub = ideal.sub
    comp = [i for i in range(A.dim) if i not in sub.pivots]
    labels = [A.space.labels[i] for i in comp]
    parities = [A.space.parities[i] for i in comp]

    def project_coords(coords):
        red = sub.reduce(coords)
        return [red[i] for i in comp]

    products = {}
    for a, i in enumerate(comp):
        for b, j in enumerate(comp):
            prod = A.multiply(A.basis_element(i), A.basis_element(j))
            terms = {}
            for t, c in zip(range(len(comp)), project_coords(prod.coords)):
                if c:
                    terms[t] = c
            if terms:
                products[(a, b)] = terms
    unit = project_coords(A.unit.coords)
    Q = SuperAlgebra(
        field, labels, parities, unit, products, check=False,
        name="%s/I" % (A.name or "?"),
    )
    rows = []
    for t, i in enumerate(comp):
        row = []
        for j in range(A.dim):
            e = [field.zero] * A.dim
            e[j] = field.one
            row.append(project_coords(e)[t])
        rows.append(row)
    proj = LinearMap(A, Q, rows)
    section = [A.basis_element(i) for i in comp]
    return Q, proj, section


def polynomial_truncation(field, var, bound):
    """K[var]/(var^bound) with basis 1, var, ..., var^{bound-1} (even)."""
    labels = ["1"] + ["%s^%d" % (var, j) if j > 1 else var for j in range(1, bound)]
    products = {}
    for i in range(bound):
        for j in range(bound):
            if i + j < bound:
                products[(i, j)] = {i + j: field.one}
    unit = [field.one] + [field.zero] * (bound - 1)
    return SuperAlgebra(
        field, labels, [0] * bound, unit, products, check=False,
        name="K[%s]/(%s^%d)" % (var, var, bound),
    )
