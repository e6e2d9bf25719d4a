"""Filtrations by super-ideals, adapted bases and the associated graded algebra.

A filtration is a chain A = I_0 >= I_1 >= ... >= I_N = 0 of graded ideals
with I_k I_l <= I_{k+l} (pieces beyond the end of the chain are zero).
The graded companion gr A = (+)_k I_k/I_{k+1} is realized concretely on a
deterministic adapted basis.

An AdaptedBasis serves a chain of subspaces in either direction: degree k
holds the echelon basis vectors of piece k that are new modulo piece k+1
(a descending chain, the classes I_k/I_{k+1}) or modulo piece k-1 (an
increasing chain such as the hyperalgebra filtration, hyp_k/hyp_{k-1}),
selected in echelon order.  Coordinates on it come from one inverse
matrix, and the class of a vector in degree k drops its other components;
vectors going in and coordinates coming out are sparse dicts.

Each chain class states its direction as `step` (1 for
FilteredSuperAlgebra, -1 for hyp.HypFiltration), and GradedCompanion builds
gr once for both: a product of classes is the class of the product of their
representatives, which AdaptedBasis.class_coords rejects when it has a
component on the far side of its degree.  Representatives of degree >= k
span I_k, so this is where the law I_k I_l <= I_{k+l} is checked, once,
and with k = 0 it says that each I_l is an ideal; FilteredSuperAlgebra
checks only the shape of its chain (whole algebra first, zero last,
descending, each level graded).  adic_filtration needs no earlier sweep:
I^k I^l = I^{k+l}, and I^k is an ideal because I is one (SuperIdeal closes
it); tensor_filtration inherits the law from its factors.

The law also makes gr well defined, so that is not checked apart: for x in
I_{k+1} and a representative r_j of degree l, x r_j lies in I_{k+l+1}, so
(r_i + x) r_j and r_i r_j have the same class in degree k+l.  A filtration
builds its companion once, on first use of FilteredSuperAlgebra.companion;
the companion holds no reference back to the chain, so caching it makes no
reference cycle.

The canonical map gr(A) ⊗ gr(B) -> gr(A ⊗ B) is applied as sparse
columns, one per source basis pair, and its multiplicativity is checked by
algebra.first_non_multiplicative, like every algebra-morphism check;
GradedReport.check_bijection, its degreewise bijection test, serves
hyp.check_gr_hyp_duality too.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AxiomReport, Element, SuperAlgebra, first_non_multiplicative, span_products, tensor,
    tensor_pure,
)
from .linalg import (
    Subspace, apply_columns, dense, identity_matrix, invert_matrix, kron, rank, reduce_by,
    sparse,
)


class FiltrationError(ValueError):
    pass


class FilteredSuperAlgebra:
    """A = I_0 >= ... >= I_N = 0; the law is checked where gr is built."""

    step = 1  # a descending chain, for AdaptedBasis

    def __init__(self, algebra, chain):
        self.algebra = algebra
        self.chain = list(chain)
        if not self.chain or self.chain[0].dim != algebra.dim:
            raise FiltrationError("chain must start with the whole algebra")
        if self.chain[-1].dim != 0:
            raise FiltrationError("chain must end with the zero ideal")
        for k in range(1, len(self.chain)):
            if not self.chain[k - 1].contains_space(self.chain[k]):
                raise FiltrationError("chain is not descending at level %d" % (k - 1))
            if any(Element(algebra, row).parity() is None for row in self.chain[k].rows):
                raise FiltrationError("level %d is not graded" % k)

    @property
    def length(self):
        return len(self.chain)

    def piece(self, k):
        if k >= len(self.chain):
            return self.chain[-1]
        return self.chain[k]

    @cached_property
    def companion(self):
        """The GradedCompanion gr A of this filtration, built on first use;
        FiltrationError if the chain breaks the law I_k I_l <= I_{k+l}."""
        return GradedCompanion(self.algebra, self)


def adic_filtration(algebra, ideal):
    """Powers of a nilpotent ideal: A >= I >= I^2 >= ... >= 0."""
    field = algebra.field
    chain = [Subspace(field, algebra.dim, identity_matrix(algebra.dim, field))]
    current = ideal.sub
    steps = 0
    while current.dim > 0:
        chain.append(current)
        current = Subspace(
            field, algebra.dim, span_products(algebra, current.rows, ideal.sub.rows)
        )
        steps += 1
        if steps > algebra.dim + 1:
            raise FiltrationError("ideal is not nilpotent")
    chain.append(Subspace(field, algebra.dim))
    return FilteredSuperAlgebra(algebra, chain)


class AdaptedBasis:
    """A basis of field^n adapted to a chain of subspaces piece(0..length-1).

    step = 1 for a descending chain (degree k is piece(k) modulo
    piece(k+1)), step = -1 for an increasing one (modulo piece(k-1), which
    must be the zero space for k = 0)."""

    def __init__(self, field, n, piece, length, step):
        self.step = step
        vecs, degrees = [], []
        for k in range(length):
            # the running span as echelon rows: those of the neighbouring
            # piece, then the normalised residue of each new vector
            running = piece(k + step)
            rows, pivots = list(running.rows), list(running.pivots)
            for row in piece(k).rows:
                res = reduce_by(rows, pivots, row)
                p = next((j for j, x in enumerate(res) if x), None)
                if p is not None:
                    vecs.append(row)
                    degrees.append(k)
                    inv = field.inv(res[p])
                    rows.append(tuple(inv * x for x in res))
                    pivots.append(p)
        if len(vecs) != n:
            raise FiltrationError("adapted basis has wrong size")
        self.vecs = vecs
        self.degrees = degrees
        # row j holds the adapted coordinates of the basis vector e_j
        self.cols = [sparse(row) for row in invert_matrix(vecs, field)]

    def coords(self, vec):
        """Adapted coordinates {index: c} of the sparse vector vec."""
        return apply_columns(self.cols, vec)

    def class_coords(self, vec, k):
        """Adapted coordinates {index: c} of the class of vec in degree k.

        Components on the far side of k (below it for a descending chain,
        above it for an increasing one) must vanish; nearer ones are cut off."""
        degrees = self.degrees
        ad = self.coords(vec)
        for t in ad:
            if (degrees[t] - k) * self.step < 0:
                raise FiltrationError("element is not in filtration level %d" % k)
        return {t: c for t, c in ad.items() if degrees[t] == k}


class GradedCompanion:
    """gr of an algebra filtered by a chain (a FilteredSuperAlgebra, or a
    hyp.HypFiltration of the dual) on the adapted basis of the chain, in
    the direction chain.step; also exposes projections to components."""

    def __init__(self, algebra, chain):
        self.algebra = algebra
        self.basis = AdaptedBasis(algebra.field, algebra.dim, chain.piece, chain.length, chain.step)
        self.reps = [Element(algebra, v) for v in self.basis.vecs]
        self.degrees = self.basis.degrees
        self._build_gr()

    def class_coords(self, elem, k):
        """Coordinates {index: c} of the class of elem in the degree-k
        component; elem must lie in piece k of the chain."""
        return self.basis.class_coords(elem.terms, k)

    def _build_gr(self):
        A = self.algebra
        n = A.dim
        labels = []
        count = {}
        for d in self.degrees:
            count[d] = count.get(d, 0) + 1
            labels.append("d%d.%d" % (d, count[d]))
        parities = [self.reps[i].parity() for i in range(n)]
        products = {}
        for i in range(n):
            for j in range(n):
                prod = A.multiply(self.reps[i], self.reps[j])
                terms = self.class_coords(prod, self.degrees[i] + self.degrees[j])
                if terms:
                    products[(i, j)] = terms
        # the unit lives in degree 0; its other components are cut off
        unit = dense(self.class_coords(A.unit, 0), n, A.field.zero)
        self.gr = SuperAlgebra(
            A.field, labels, parities, unit, products, check=False,
            name="gr(%s)" % (A.name or "?"),
        )


def tensor_piece(left, right, k):
    """sum_{i+j=k} L_i ⊗ R_j for filtrations given by their piece(i) maps."""
    L0, R0 = left(0), right(0)
    field = L0.field
    vecs = [
        kron(ru, rv, field)
        for i in range(k + 1)
        for ru in left(i).rows
        for rv in right(k - i).rows
    ]
    return Subspace(field, L0.dim_ambient * R0.dim_ambient, vecs)


def tensor_filtration(FA, FB):
    """T_k = sum_i I_i ⊗ J_{k-i} on the tensor product algebra."""
    T = tensor(FA.algebra, FB.algebra)
    top = (FA.length - 1) + (FB.length - 1)
    # T_top is 0: each of its terms has a factor past the end of its chain
    chain = [tensor_piece(FA.piece, FB.piece, k) for k in range(top + 1)]
    return FilteredSuperAlgebra(T, chain)


class GradedReport(AxiomReport):
    """An AxiomReport that also records {degree: (source dim, target dim)}
    for a degreewise comparison of graded objects."""

    def __init__(self):
        super().__init__()
        self.degree_dims = {}

    def check_bijection(self, field, cols, src_degrees, tgt_degrees):
        """Record the dimensions of each degree and check that the map with
        sparse columns cols (source index -> {target index: c}), which keeps
        degrees, is a bijection in each of them."""
        for deg in sorted(set(src_degrees) | set(tgt_degrees)):
            src = [s for s, d in enumerate(src_degrees) if d == deg]
            tgt = [t for t, d in enumerate(tgt_degrees) if d == deg]
            self.degree_dims[deg] = (len(src), len(tgt))
            if len(src) != len(tgt):
                self.fail("degree %d dimensions differ" % deg)
            elif rank([[cols[s].get(t, field.zero) for s in src] for t in tgt], field) != len(src):
                self.fail("degree %d map is not bijective" % deg)


def check_gr_tensor_iso(FA, FB):
    """Compare gr(A) ⊗ gr(B) with gr(A⊗B) via a ⊗ b -> (a⊗b) + T_{k+l+1}.

    Returns a report; .holds means the canonical map is a degreewise
    bijection and multiplies correctly on every basis pair.
    """
    report = GradedReport()
    grA, grB = FA.companion, FB.companion
    FT = tensor_filtration(FA, FB)
    grT = FT.companion
    source = tensor(grA.gr, grB.gr)
    T = FT.algebra

    # columns of the canonical map, indexed like the source basis
    cols = []
    src_degrees = []
    for i in range(grA.gr.dim):
        for j in range(grB.gr.dim):
            deg = grA.degrees[i] + grB.degrees[j]
            src_degrees.append(deg)
            try:
                cols.append(grT.class_coords(tensor_pure(T, grA.reps[i], grB.reps[j]), deg))
            except FiltrationError:
                report.fail("image of basis pair (%d,%d) misses its degree" % (i, j))
                cols.append({})

    report.check_bijection(T.field, cols, src_degrees, grT.degrees)
    if apply_columns(cols, source.unit.terms) != grT.gr.unit.terms:
        report.fail("unit is not preserved")
    bad = first_non_multiplicative(source, grT.gr, cols)
    if bad is not None:
        report.fail("multiplicativity fails at basis pair (%d,%d)" % bad)
    return report
