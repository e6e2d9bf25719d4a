"""Hyperalgebras: duals of finite dimensional local Hopf superalgebras.

For a finite dimensional Hopf superalgebra A the full dual A* is again a
Hopf superalgebra under convolution,

    (phi psi)(a) = sum (-1)^{|psi||a_(1)|} phi(a_(1)) psi(a_(2)),

with coproduct dual to the multiplication and antipode dual to S.  When A
is local with maximal ideal m = ker eps, the dual carries the increasing
filtration  hyp_k = annihilator of m^{k+1}  (and the analogous one for the
ideal generated by the odd part); those filtrations and the canonical
decomposition over a tensor splitting A = B ⊗ Λ are checked here.  The laws
of the filtration (hyp_k hyp_l ⊆ hyp_{k+l}, the coproduct of hyp_k in
sum_{i+j=k} hyp_i ⊗ hyp_j, the antipode keeping each hyp_k) are checked in
one place, where graded_hopf builds gr(hyp A); check_hyp_filtration adds
only the counit and the dimension of hyp_0.  That the filtration increases
and exhausts the dual needs no check: it follows from the chain, which
FilteredSuperAlgebra keeps descending and ending in 0.

gr(hyp A) against hyp(gr A) compares two Hopf superalgebras built by the
same code: graded_hopf gives gr for a chain in either direction, so
hyp(gr A) is dual_hopf(graded_hopf(H, chain)) and gr(hyp A) is
graded_hopf(dual_hopf(H), HypFiltration(H, chain)).  The map theta between
them sends the class of phi in hyp_k/hyp_{k-1} to the functional
[a]_k -> phi(a) on the degree-k component of gr A.

Algebras that are only truncations of an infinite dimensional object (for
instance K[t]/(t^m) with the additive coproduct in characteristic zero)
are handled by TruncatedLocal: their coproduct is an algebra morphism only
modulo the tensor filtration, and convolution products are computed
leniently, with an exactness flag telling whether the truncation level was
deep enough for the result to be trustworthy.

The convolution product is one table, convolution_table, which dual_hopf
and TruncatedLocal share; products on it, like every product given by a
table, go through algebra._contract.  Annihilators are linalg.kernel.
"""

from __future__ import annotations

from .algebra import (
    AxiomReport, Element, SuperAlgebra, SuperIdeal, _contract, first_non_multiplicative, tensor,
)
from .filtration import FiltrationError, GradedCompanion, GradedReport, adic_filtration
from .hopf import HopfSuperAlgebra, apply_functional, check_hopf_axioms
from .linalg import (
    Subspace, apply_columns, apply_tensor_columns, dense, invert_matrix, kernel, kron, nullspace,
    sparse,
)


class HypError(ValueError):
    pass


def annihilator(field, n, sub):
    """Functionals vanishing on a subspace, as an echelon Subspace."""
    return kernel(field, n, sub.rows)


def convolution_table(delta, par):
    """The product table {(i, j): {k: c}} of the convolution on the dual
    basis, (phi psi)(e_k) = sum (-1)^{|i||j|} Delta(e_k)[i, j] phi_i psi_j,
    for the coproduct tables delta and basis parities par."""
    table = {}
    for k, entries in enumerate(delta):
        for (i, j), c in entries.items():
            table.setdefault((i, j), {})[k] = -c if par[i] * par[j] else c
    return table


def dual_hopf(H):
    """The convolution Hopf superalgebra on the full dual of H, assembled
    unchecked: the dual of a Hopf superalgebra is one."""
    A = H.algebra
    field = A.field
    n = A.dim
    par = A.space.parities
    labels = ["%s'" % lab for lab in A.space.labels]
    unit = list(H.eps)
    dual = SuperAlgebra(
        field, labels, list(par), unit, convolution_table(H.delta, par), check=False,
        name="hyp(%s)" % (A.name or "?"),
    )
    delta = [dict() for _ in range(n)]
    for (s, t), terms in A._prod.items():
        for k, c in terms.items():
            delta[k][(s, t)] = -c if par[s] * par[t] else c
    eps = list(A.unit.coords)
    antipode = [
        tuple(H.antipode[j][k] for j in range(n)) for k in range(n)
    ]
    return HopfSuperAlgebra(dual, delta, eps, antipode, check=False)


def counit_kernel_ideal(A, eps):
    """The ideal generated by ker(eps) (eps given as a coordinate row)."""
    vecs = nullspace([list(eps)], A.field, A.dim)
    return SuperIdeal(A, [Element(A, v) for v in vecs])


def augmentation_filtration(H):
    """The m-adic chain for m = ker(counit)."""
    return adic_filtration(H.algebra, counit_kernel_ideal(H.algebra, H.eps))


class HypFiltration:
    """hyp_k = annihilator of I_{k+1} for a descending ideal chain I."""

    step = -1  # an increasing chain, for AdaptedBasis

    def __init__(self, H, chain):
        field = H.field
        n = H.algebra.dim
        # no reference to H is kept: a TruncatedLocal holds its own
        # HypFiltration, and a back reference would make a cycle
        self.zero_space = Subspace(field, n)
        self.levels = [
            annihilator(field, n, chain.piece(k + 1))
            for k in range(chain.length)
        ]

    @property
    def length(self):
        return len(self.levels)

    def piece(self, k):
        if k < 0:
            return self.zero_space
        return self.levels[k]

    def level(self, phi):
        """Smallest k with phi in hyp_k; raises if phi escapes the top."""
        for k in range(len(self.levels)):
            if self.levels[k].contains(phi):
                return k
        raise HypError("functional escapes the filtration")


def check_hyp_filtration(H, chain, *, local=True):
    """Structure lemmas for the hyperalgebra filtration of a chain.

    - hyp_0 contains the counit (and equals its span when the chain starts
      at the augmentation ideal),
    - its laws hold: hyp_k hyp_l ⊆ hyp_{k+l} under convolution, the dual
      coproduct sends hyp_k into sum_{i+j=k} hyp_i ⊗ hyp_j, and the dual
      antipode preserves every hyp_k.  These are checked by building
      gr(hyp A) with graded_hopf, which stops at the first law that fails;
      the report carries that one failure, prefixed "gr(hyp A): ".

    The filtration is increasing and exhausts the full dual without a
    check: FilteredSuperAlgebra guarantees a descending chain that ends in
    0, so the annihilators hyp_k = (A_{k+1})^perp increase and the top one
    is the annihilator of 0, the whole dual.
    """
    report = AxiomReport()
    F = HypFiltration(H, chain)

    if not F.piece(0).contains(tuple(H.eps)):
        report.fail("the counit is not in hyp_0")
    if local and F.piece(0).dim != 1:
        report.fail("hyp_0 is not one dimensional")
    try:
        graded_hopf(dual_hopf(H), F)
    except FiltrationError as exc:
        report.fail("gr(hyp A): %s" % exc)
    return report


# -- truncations of infinite dimensional local Hopf algebras ------------


class TruncatedLocal:
    """A local superalgebra with a coproduct that is an algebra morphism
    only modulo the tensor filtration at the truncation level.

    Convolution of functionals is computed on the available algebra; the
    result carries an exactness flag that is True precisely when the
    filtration levels of the factors fit inside the truncation, so the
    value agrees with the one computed in the untruncated object.
    """

    def __init__(self, algebra, delta, eps, level, antipode, name):
        self.algebra = algebra
        field = algebra.field
        self.delta = [
            {k: c for k, c in table.items() if c != field.zero} for table in delta
        ]
        self.eps = list(eps)
        self.level = level
        self.antipode = antipode
        self.name = name
        self.chain = adic_filtration(algebra, counit_kernel_ideal(algebra, eps))
        self.hyp = HypFiltration(self, self.chain)
        self._conv = convolution_table(self.delta, algebra.space.parities)

    @property
    def field(self):
        return self.algebra.field

    def convolve(self, phi, psi):
        """(value row, exact flag) of the lenient convolution product."""
        par = self.algebra.space.parities
        if len({par[i] for i, c in enumerate(psi) if c}) > 1:
            raise HypError("second factor must be parity homogeneous")
        out = _contract(self._conv, sparse(phi), sparse(psi))
        out = dense(out, self.algebra.dim, self.field.zero)
        exact = self.hyp.level(phi) + self.hyp.level(psi) <= self.level
        return out, exact

    def as_hopf(self, *, check=True):
        return HopfSuperAlgebra(
            self.algebra, self.delta, self.eps, self.antipode, check=check
        )


def additive_truncation(field, m):
    """K[T]/(T^m) with the binomial coproduct, truncated at level m-1.

    A genuine Hopf superalgebra exactly when every middle binomial
    coefficient C(a, i), 0 < i < a < m, vanishes in the field (char p,
    m = p^s); otherwise only the lenient TruncatedLocal structure exists.
    """
    from math import comb

    from .algebra import polynomial_truncation

    A = polynomial_truncation(field, "T", m)
    delta = []
    for a in range(m):
        table = {}
        for i in range(a + 1):
            table[(i, a - i)] = field.from_int(comb(a, i))
        delta.append(table)
    eps = [field.one if a == 0 else field.zero for a in range(m)]
    antipode = []
    for a in range(m):
        col = [field.zero] * m
        col[a] = field.one if a % 2 == 0 else -field.one
        antipode.append(col)
    return TruncatedLocal(A, delta, eps, m - 1, antipode, "K[T]/(T^%d)" % m)


def tensor_hopf(HA, HB):
    """Hopf structure on A ⊗ B with the Koszul sign in the middle swap."""
    A, B = HA.algebra, HB.algebra
    T = tensor(A, B)
    field = T.field
    nA, nB = A.dim, B.dim
    parA, parB = A.space.parities, B.space.parities
    n = T.dim
    delta = [dict() for _ in range(n)]
    for a in range(nA):
        for b in range(nB):
            k = a * nB + b
            # each key below is met once: (a1, a2, b1, b2) determines it
            for (a1, a2), ca in HA.delta[a].items():
                for (b1, b2), cb in HB.delta[b].items():
                    c = ca * cb
                    delta[k][(a1 * nB + b1, a2 * nB + b2)] = -c if parA[a2] * parB[b1] else c
    eps = kron(HA.eps, HB.eps, field)
    # S(a ⊗ b) = S(a) ⊗ S(b): the Koszul signs of S being an anti-morphism
    # and of the swap in (1 ⊗ S(b))(S(a) ⊗ 1) cancel
    antipode = [kron(HA.antipode[a], HB.antipode[b], field) for a in range(nA) for b in range(nB)]
    # both factors are validated Hopf superalgebras, so the product is one
    return HopfSuperAlgebra(T, delta, eps, antipode, check=False, hopf_factors=(HA, HB))


# -- canonical decomposition over a tensor splitting --------------------


class CanonicalDecomposition:
    """Express functionals as sums phi_beta · gamma_I over a splitting
    A = B ⊗ Λ(theta_1..theta_t): phi_beta is a dual basis vector of B
    extended by the Λ counit, gamma_I the ordered convolution product of
    the duals of the odd generators.  The recomposition matrix is square
    of size dim(B)·2^t and invertible, so the expression is unique.
    """

    def __init__(self, H):
        if H.hopf_factors is None:
            raise HypError("canonical decomposition needs a tensor splitting")
        HB, HL = H.hopf_factors
        field = H.field
        B, L = HB.algebra, HL.algebra
        nB, nL = B.dim, L.dim
        t = nL.bit_length() - 1
        if 1 << t != nL:
            raise HypError("the odd factor is not a Grassmann algebra")
        self.H = H
        self.dual = dual_hopf(H)
        D = self.dual.algebra
        n = D.dim

        def functional_eb(beta):
            # dual basis of B, extended by the counit of Λ
            phi = [field.zero] * n
            for l in range(nL):
                phi[beta * nL + l] = HL.eps[l]
            return phi

        def functional_gamma(i):
            # dual of theta_i, extended by the counit of B
            phi = [field.zero] * n
            for b in range(nB):
                phi[b * nL + (1 + i)] = HB.eps[b]
            return phi

        gammas = [Element(D, functional_gamma(i)) for i in range(t)]
        self.index = []
        funcs = []
        for beta in range(nB):
            base = Element(D, functional_eb(beta))
            for size_mask in sorted(range(1 << t), key=lambda m: (bin(m).count("1"), m)):
                acc = base
                for i in range(t):
                    if size_mask >> i & 1:
                        acc = D.multiply(acc, gammas[i])
                self.index.append((beta, size_mask))
                funcs.append(acc)
        # cols[j] is the functional of index j; row j of inv_cols holds the
        # decomposition of the dual basis vector e_j
        self.cols = [f.terms for f in funcs]
        inv = invert_matrix([f.coords for f in funcs], field)
        if inv is None:
            raise HypError("recomposition matrix is singular")
        self.inv_cols = [sparse(row) for row in inv]

    def decompose(self, phi):
        """{(beta, subset mask): coefficient} with phi = sum c · phi_beta γ_I."""
        coeffs = apply_columns(self.inv_cols, sparse(phi))
        return {self.index[i]: coeffs[i] for i in sorted(coeffs)}

    def recompose(self, table):
        pos = {key: i for i, key in enumerate(self.index)}
        vec = apply_columns(self.cols, {pos[key]: c for key, c in table.items() if c})
        return dense(vec, len(self.index), self.H.field.zero)


# -- graded companion of a filtered Hopf algebra ------------------------


def graded_hopf(H, chain):
    """(Hopf structure on gr A, GradedCompanion) for a Hopf-compatible chain
    in either direction (chain.step); the structure is not swept.

    The coproduct of a class of degree k keeps its components of degree
    k, and one on the far side of k raises FiltrationError; the counit is
    the degree-0 part of the counit."""
    comp = GradedCompanion(H.algebra, chain)
    n = H.algebra.dim
    degrees, step = comp.degrees, chain.step
    zero = H.field.zero
    delta = []
    for b in range(n):
        k = degrees[b]
        table = {}
        cop = apply_columns(H._delta_cols, comp.reps[b].terms)
        for (u, v), c in apply_tensor_columns(comp.basis.cols, cop).items():
            d = degrees[u] + degrees[v]
            if (d - k) * step < 0:
                raise FiltrationError("coproduct is not compatible with the filtration")
            if d == k:
                table[(u, v)] = c
        delta.append(table)
    eps = [H.counit(comp.reps[b]) if degrees[b] == 0 else zero for b in range(n)]
    antipode = [
        dense(comp.class_coords(H.apply_antipode(comp.reps[b]), degrees[b]), n, zero)
        for b in range(n)
    ]
    return HopfSuperAlgebra(comp.gr, delta, eps, antipode, check=False), comp


# -- gr(hyp) versus hyp(gr) ---------------------------------------------


def check_gr_hyp_duality(H, chain):
    """gr of the filtered dual against the dual of the graded companion,
    compared through theta (see the module docstring).

    The report carries the failures of the sweep of gr A, prefixed "gr: ",
    records degreewise dimensions and checks that theta is bijective in
    each degree and respects unit, counit, product, coproduct and antipode.
    gr(hyp A) is not swept: such a theta onto the dual of a Hopf algebra
    makes it one, and of that dual only the multiplicativity of the
    coproduct is checked."""
    report = GradedReport()
    field = H.field
    grH, comp = graded_hopf(H, chain)
    for msg in check_hopf_axioms(grH).failures:
        report.fail("gr: " + msg)
    hyp_gr = dual_hopf(grH)
    gr_hyp, dcomp = graded_hopf(dual_hopf(H), HypFiltration(H, chain))
    n = grH.algebra.dim
    theta = [
        sparse([
            apply_functional(phi, comp.reps[m]) if comp.degrees[m] == k else field.zero
            for m in range(n)
        ])
        for phi, k in zip(dcomp.basis.vecs, dcomp.degrees)
    ]
    report.check_bijection(field, theta, dcomp.degrees, comp.degrees)

    if apply_columns(theta, gr_hyp.algebra.unit.terms) != hyp_gr.algebra.unit.terms:
        report.fail("unit is not preserved")
    if [field.sum(c * hyp_gr.eps[m] for m, c in col.items()) for col in theta] != gr_hyp.eps:
        report.fail("counit is not preserved")
    bad = first_non_multiplicative(gr_hyp.algebra, hyp_gr.algebra, theta)
    if bad is not None:
        report.fail("product differs at adapted pair (%d,%d)" % bad)
    # theta cannot see a fault of dual_hopf, which builds both sides; that
    # the coproduct of hyp(gr A) is multiplicative checks the sign rule of
    # its convolution product
    bad = first_non_multiplicative(hyp_gr.algebra, hyp_gr.square, hyp_gr._delta_cols)
    if bad is not None:
        report.fail("hyp(gr A): coproduct is not multiplicative at (%d,%d)" % bad)
    for i in range(n):
        image = apply_columns(hyp_gr._delta_cols, theta[i])
        if apply_tensor_columns(theta, gr_hyp._delta_cols[i]) != {
            divmod(st, n): c for st, c in image.items()
        }:
            report.fail("coproduct differs at adapted index %d" % i)
        if apply_columns(theta, gr_hyp._antipode_cols[i]) != apply_columns(
            hyp_gr._antipode_cols, theta[i]
        ):
            report.fail("antipode differs at adapted index %d" % i)
    return report
