"""Finite dimensional supercommutative superalgebras over an exact field.

An algebra is a graded basis (labels with parities in {0,1}) together with
sparse structure constants.  Construction eagerly checks the axioms:
parity additivity of products, supercommutativity ab = (-1)^{|a||b|} ba,
associativity and the unit law.  Derived constructions that are correct
by construction skip the cubic associativity sweep (graded companions),
or every check (tensor products of built algebras); everything
user-supplied is verified.

An element stores only its nonzero coordinates, {basis index: coefficient};
a product contracts the terms of its factors through the product table, so
its cost follows the number of nonzero terms, not the dimension.  The
dense coordinate tuple stays available as Element.coords.  Sums of
products (sum_products, and through it mat_mul_over for matrices over the
algebra) contract every product into one terms dict per sum through the
same loop.  span_products is the one place where products of two spans
are formed for a Subspace test ("U·V ⊆ W"): ideals, filtration pieces,
coinvariants and the hyperalgebra filtration all close through it.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .linalg import (
    Subspace, add_scaled, apply_columns, dense, identity_matrix, solve, sparse, transpose,
)


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
    """Element of a SuperAlgebra: the sparse dict terms = {basis index:
    coefficient}.  A zero coefficient is never stored, so equal elements
    have equal dicts and zero has none.  Elements are immutable: no
    operation changes the terms of an existing element."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, coords):
        """The element with the dense coordinate sequence coords."""
        self.algebra = algebra
        self.terms = sparse(coords)

    @classmethod
    def _from_terms(cls, algebra, terms):
        """The element with the given terms, all of them nonzero; the dict
        is kept, not copied."""
        el = object.__new__(cls)
        el.algebra = algebra
        el.terms = terms
        return el

    @property
    def coords(self):
        """Dense coordinate tuple over the basis, zeros included."""
        A = self.algebra
        return tuple(dense(self.terms, A.dim, A.field.zero))

    def _check_same(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._check_same(other)
        return Element._from_terms(self.algebra, _add_terms(self.terms, other.terms, 1))

    def __sub__(self, other):
        self._check_same(other)
        return Element._from_terms(self.algebra, _add_terms(self.terms, other.terms, -1))

    def __neg__(self):
        return Element._from_terms(self.algebra, {i: -c for i, c in self.terms.items()})

    def scale(self, c):
        return Element._from_terms(
            self.algebra, {i: v for i, a in self.terms.items() if (v := c * a)}
        )

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def homogeneous_part(self, parity):
        par = self.algebra.space.parities
        return Element._from_terms(
            self.algebra, {i: c for i, c in self.terms.items() if par[i] == parity}
        )

    def involution(self):
        """The grade involution: the even part minus the odd part."""
        par = self.algebra.space.parities
        return Element._from_terms(
            self.algebra, {i: -c if par[i] else c for i, c in self.terms.items()}
        )

    def parity(self):
        """0 or 1 for homogeneous elements (0 for zero), None if mixed."""
        par = self.algebra.space.parities
        seen = {par[i] for i in self.terms}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

    def support(self):
        """Indices of the nonzero coordinates, ascending."""
        return sorted(self.terms)

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
            s = self.terms.get(u)
            if s:
                s_inv = A.field.inv(s)
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
        terms = [
            "%s*%s" % (A.field.render(self.terms[i]), A.space.labels[i]) for i in self.support()
        ]
        return " + ".join(terms) if terms else "0"


def _add_terms(x, y, sign):
    """The terms of x + sign·y (sign 1 or -1), cancelled sums dropped."""
    # not linalg.add_scaled: this merge, which cancels as it goes, was 2.2x faster
    out = dict(x)
    for i, c in y.items():
        v = out.get(i)
        if v is None:
            out[i] = c if sign == 1 else -c
        else:
            v = v + c if sign == 1 else v - c
            if v:
                out[i] = v
            else:
                del out[i]
    return out


def _contract(prod, x, y, out=None):
    """The terms of x·y for a product table prod {(i, j): {k: s}}: one
    table lookup per pair of terms.  Alone it drops cancelled sums at the
    end; given an accumulator dict out, it adds x·y into out, keeps the
    cancelled sums, and the caller drops them once, after the last
    contraction."""
    acc = {} if out is None else out
    get = acc.get
    y_items = list(y.items())
    for i, a in x.items():
        for j, b in y_items:
            t = prod.get((i, j))
            if t is None:
                continue
            c = a * b
            # linalg.add_scaled inline: a call per table entry cost 5-14 % here
            for k, s in t.items():
                v = get(k)
                acc[k] = c * s if v is None else v + c * s
    if out is None:
        return {k: v for k, v in acc.items() if v}


def sum_products(R, pieces):
    """The sums of products of Elements of R, one per caller key: {key:
    the sum of x·y over the pieces (key, x, y)}.

    Each product goes into one terms dict per key, so no Element is made
    for a single product or a partial sum: _contract adds it, or, when x
    or y is a multiple c·1 of the unit, linalg.add_scaled adds c times the
    other factor (most entries of the matrices in normalize and the
    oracles are such multiples).  Cancelled sums are dropped once, at the
    end, and a key whose sum is zero is left out."""
    prod, u = R._prod, R.unit_index
    acc = {}
    for key, x, y in pieces:
        out = acc.get(key)
        if out is None:
            out = acc[key] = {}
        xt, yt = x.terms, y.terms
        if len(xt) == 1 and u in xt:
            add_scaled(out, xt[u], yt)
        elif len(yt) == 1 and u in yt:
            add_scaled(out, yt[u], xt)
        else:
            _contract(prod, xt, yt, out)
    sums = {}
    for key, out in acc.items():
        terms = {k: v for k, v in out.items() if v}
        if terms:
            sums[key] = Element._from_terms(R, terms)
    return sums


def mat_mul_over(R, A, B):
    """The product of two matrices whose entries are Elements of R.

    Entry (i, k) is sum_products over the pairs A[i][j]·B[j][k] of nonzero
    entries: one terms dict per output entry.  Each row of B lists its
    nonzero entries once, so zero entries cost nothing.  linalg.mat_mul
    stays the product for matrices over a field or of Polys."""
    rows_b = [[(k, y) for k, y in enumerate(row) if y.terms] for row in B]
    sums = sum_products(R, (
        ((i, k), x, y)
        for i, row in enumerate(A)
        for x, row_b in zip(row, rows_b) if x.terms
        for k, y in row_b
    ))
    width, zero = len(B[0]) if B else 0, R.zero()
    return [
        [sums[i, k] if (i, k) in sums else zero for k in range(width)]
        for i in range(len(A))
    ]


def span_products(A, left, right):
    """The dense coordinates of x·y for each dense row x of left and y of
    right, in that order, for the Subspace tests that take dense vectors;
    each product is one sparse contraction on the table of A."""
    prod, n, zero = A._prod, A.dim, A.field.zero
    right = [sparse(y) for y in right]
    for x in left:
        x = sparse(x)
        for y in right:
            yield tuple(dense(_contract(prod, x, y), n, zero))


def first_non_multiplicative(source, target, images):
    """The first basis pair (i, j), row by row, with phi(e_i e_j) !=
    phi(e_i) phi(e_j), or None if there is none.  phi: source -> target is
    the linear map with images[k] = the sparse image {index: c} of e_k;
    both sides are contracted on the product tables."""
    prod, tprod = source._prod, target._prod
    n = source.dim
    for i in range(n):
        x = images[i]
        for j in range(n):
            if apply_columns(images, prod.get((i, j), {})) != _contract(tprod, x, images[j]):
                return i, j
    return None


class SuperAlgebra:
    def __init__(self, field, labels, parities, unit_coords, products, *, check=True, name=None):
        prod = {key: t for key, terms in products.items()
                if (t := {k: c for k, c in terms.items() if c})}
        self._assemble(field, SuperVectorSpace(labels, parities), prod, sparse(unit_coords), name)
        self._validate(full=check)

    def _assemble(self, field, space, prod, unit_terms, name):
        """Set the fields from a table {(i, j): {k: c}} of nonzero terms and
        the unit's terms, with no check; tensor assembles its product so."""
        self.field, self.space, self.name = field, space, name
        self._prod, self._unit_terms = prod, unit_terms
        support = list(unit_terms)
        self.unit_index = (
            support[0] if len(support) == 1 and unit_terms[support[0]] == field.one else None
        )

    @property
    def dim(self):
        return self.space.dim

    @property
    def unit(self):
        # built on each use: an Element kept here would refer back to the
        # algebra, and the cycle would hold every discarded algebra and its
        # product table until the cyclic collector runs
        return Element._from_terms(self, self._unit_terms)

    def basis_element(self, i):
        return Element._from_terms(self, {i: self.field.one})

    def zero(self):
        return Element._from_terms(self, {})

    def element(self, data):
        """Build an element from {label: scalar-or-int}."""
        terms = {}
        for label, c in data.items():
            if isinstance(c, int):
                c = self.field.from_int(c)
            if c:
                terms[self.space.index(label)] = c
        return Element._from_terms(self, terms)

    def product_coords(self, i, j):
        return self._prod.get((i, j), {})

    def multiply(self, a, b):
        return Element._from_terms(self, _contract(self._prod, a.terms, b.terms))

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
        # a pair with no product either way commutes; the others in the
        # order i <= j, lexicographically
        for i, j in sorted({(min(key), max(key)) for key in self._prod}):
            sign = field.one if par[i] * par[j] == 0 else -field.one
            pij = self.product_coords(i, j)
            pji = self.product_coords(j, i)
            for k in set(pij) | set(pji):
                if pji.get(k, field.zero) != sign * pij.get(k, field.zero):
                    raise AlgebraError(
                        "not supercommutative at %s,%s"
                        % (self.space.labels[i], self.space.labels[j])
                    )
        if self.unit.parity() not in (0,):
            raise AlgebraError("unit must be even")
        prod, one, unit = self._prod, field.one, self._unit_terms
        for i in range(n):
            b = {i: one}
            if _contract(prod, unit, b) != b or _contract(prod, b, unit) != b:
                raise AlgebraError("unit law fails at %s" % (self.space.labels[i],))
        if full:
            # (e_i e_j) e_k = e_i (e_j e_k), contracted on the table; both
            # sides vanish when (i, j) and (j, k) have no product
            for i in range(n):
                for j in range(n):
                    pij = prod.get((i, j))
                    for k in range(n):
                        pjk = prod.get((j, k))
                        if pij is None and pjk is None:
                            continue
                        lhs = _contract(prod, pij or {}, {k: one})
                        rhs = _contract(prod, {i: one}, pjk or {})
                        if lhs != rhs:
                            raise AlgebraError(
                                "not associative at (%s,%s,%s)"
                                % tuple(self.space.labels[t] for t in (i, j, k))
                            )

    def __repr__(self):
        return "SuperAlgebra(%s, dim %d)" % (self.name or "?", self.dim)


class SuperIdeal:
    """A graded two-sided ideal, stored as an echelon Subspace."""

    def __init__(self, algebra, generators):
        self.algebra = algebra
        vectors = []
        for g in generators:
            for p in (0, 1):
                part = g.homogeneous_part(p)
                if not part.is_zero():
                    vectors.append(part.coords)
        self.sub = self._close(Subspace(algebra.field, algebra.dim, vectors))
        self._check_ideal()

    def _close(self, sub):
        A = self.algebra
        basis = identity_matrix(A.dim, A.field)
        while True:
            new = [p for p in span_products(A, basis, sub.rows) if not sub.contains(p)]
            if not new:
                return sub
            # each round must grow the span, so at most dim A rounds run
            grown = sub.add_vectors(new)
            if grown.dim <= sub.dim:
                raise AlgebraError("ideal closure added vectors but did not grow")
            sub = grown

    def _check_ideal(self):
        # the last round of _close found every product e_i·v inside the span
        A = self.algebra
        for row in self.sub.rows:
            if Element(A, row).parity() is None:
                raise AlgebraError("ideal basis is not homogeneous")


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
    """Tensor product superalgebra with the Koszul sign rule
    (a⊗b)(a'⊗b') = (-1)^{|b||a'|} aa'⊗bb'.

    The result is assembled, not validated: A and B passed parity
    additivity, supercommutativity and the unit law when they were built,
    and their Koszul-sign tensor has all three by construction (the sign
    is what makes it supercommutative, and 1⊗1 is even), so those checks
    could not fail here."""
    if A.field != B.field:
        raise AlgebraError("tensor factors over different fields")
    field = A.field
    dimB = B.dim
    par_a, par_b = A.space.parities, B.space.parities
    space = SuperVectorSpace(
        ["%s⊗%s" % (la, lb) for la in A.space.labels for lb in B.space.labels],
        [(pa + pb) % 2 for pa in par_a for pb in par_b],
    )
    one, minus_one = field.one, -field.one
    products = {}
    for (i, k), pa in A._prod.items():
        for (j, l), pb in B._prod.items():
            sign = minus_one if par_b[j] and par_a[k] else one
            products[(i * dimB + j, k * dimB + l)] = {
                u * dimB + v: sign * cu * cv for u, cu in pa.items() for v, cv in pb.items()
            }
    unit = {u * dimB + v: x * y
            for u, x in A._unit_terms.items() for v, y in B._unit_terms.items()}
    T = object.__new__(SuperAlgebra)
    T._assemble(field, space, products, unit, "%s⊗%s" % (A.name or "?", B.name or "?"))
    return T


def tensor_pure(T, a, b):
    """The element a⊗b of the tensor product algebra T = tensor(A, B)."""
    n = b.algebra.dim
    return Element._from_terms(
        T, {u * n + v: x * y for u, x in a.terms.items() for v, y in b.terms.items()}
    )


def lift_matrix(R, mat):
    """A matrix over the field as a matrix over R."""
    one = R.unit
    return [[one.scale(x) for x in row] for row in mat]


def ground_algebra(field):
    """The one dimensional algebra K."""
    return SuperAlgebra(
        field, ["1"], [0], [field.one], {(0, 0): {0: field.one}},
        check=False, name="K",
    )


def dual_numbers(field):
    """K[eps0, eps1]: one even and one odd square-zero generator, with
    eps0·eps1 = 0; basis 1, eps0, eps1."""
    one = field.one
    return SuperAlgebra(
        field,
        ["1", "eps0", "eps1"],
        [0, 0, 1],
        [one, field.zero, field.zero],
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (0, 2): {2: one}, (2, 0): {2: one}},
        check=True,
        name="K[eps0,eps1]",
    )


def odd_ideal(A):
    """The ideal A·A_1 generated by the odd part."""
    gens = []
    for x in range(A.dim):
        if A.space.parities[x] == 1:
            gens.append(A.basis_element(x))
    return SuperIdeal(A, gens)


def ideal_generated_by(A, elements):
    return SuperIdeal(A, elements)


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
