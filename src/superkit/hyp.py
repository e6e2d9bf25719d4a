"""Hyperalgebras: duals of finite dimensional local Hopf superalgebras.

For a finite dimensional Hopf superalgebra A the full dual A* is again a
Hopf superalgebra under convolution,

    (phi psi)(a) = sum (-1)^{|psi||a_(1)|} phi(a_(1)) psi(a_(2)),

with coproduct dual to the multiplication and antipode dual to S.  When A
is local with maximal ideal m = ker eps, the dual carries the increasing
filtration  hyp_k = annihilator of m^{k+1}  (and the analogous one for the
ideal generated by the odd part); those filtrations and the canonical
decomposition over a tensor splitting A = B ⊗ Λ are checked here, together
with the comparison of gr(hyp A) against hyp(gr A) on the adapted bases of
filtration.AdaptedBasis.

Algebras that are only truncations of an infinite dimensional object (for
instance K[t]/(t^m) with the additive coproduct in characteristic zero)
are handled by TruncatedLocal: their coproduct is an algebra morphism only
modulo the tensor filtration, and convolution products are computed
leniently, with an exactness flag telling whether the truncation level was
deep enough for the result to be trustworthy.
"""

from __future__ import annotations

from .algebra import AxiomReport, Element, SuperAlgebra, SuperIdeal, tensor, tensor_pure
from .filtration import (
    AdaptedBasis, FiltrationError, GradedReport, adic_filtration, graded_companion,
    tensor_piece,
)
from .hopf import HopfSuperAlgebra
from .linalg import (
    Subspace, apply_columns, dense, identity_matrix, invert_matrix, kron, nullspace, rank,
    sparse,
)


class HypError(ValueError):
    pass


def apply_functional(phi, elem):
    """Value of the functional phi (coordinate row) on an algebra element."""
    field = elem.algebra.field
    return field.sum(phi[i] * c for i, c in elem.terms.items())


def annihilator(field, n, sub):
    """Functionals vanishing on a subspace, as an echelon Subspace."""
    if sub.dim == 0:
        return Subspace(field, n, identity_matrix(n, field))
    mat = [list(row) for row in sub.rows]
    return Subspace(field, n, nullspace(mat, field, n))


def dual_hopf(H, *, check=True):
    """The convolution Hopf superalgebra on the full dual of H."""
    A = H.algebra
    field = A.field
    n = A.dim
    par = A.space.parities
    labels = ["%s'" % lab for lab in A.space.labels]
    products = {}
    for k in range(n):
        for (i, j), c in H.delta[k].items():
            sign = field.one if par[i] * par[j] == 0 else -field.one
            products.setdefault((i, j), {})[k] = (
                products.get((i, j), {}).get(k, field.zero) + sign * c
            )
    unit = list(H.eps)
    dual = SuperAlgebra(
        field, labels, list(par), unit, products, check=False,
        name="hyp(%s)" % (A.name or "?"),
    )
    delta = [dict() for _ in range(n)]
    for (s, t), terms in A._prod.items():
        sign = field.one if par[s] * par[t] == 0 else -field.one
        for k, c in terms.items():
            delta[k][(s, t)] = delta[k].get((s, t), field.zero) + sign * c
    eps = list(A.unit.coords)
    antipode = [
        tuple(H.antipode[j][k] for j in range(n)) for k in range(n)
    ]
    return HopfSuperAlgebra(dual, delta, eps, antipode, check=check)


def counit_kernel_ideal(A, eps):
    """The ideal generated by ker(eps) (eps given as a coordinate row)."""
    vecs = nullspace([list(eps)], A.field, A.dim)
    return SuperIdeal(A, [Element(A, v) for v in vecs])


def augmentation_filtration(H):
    """The m-adic chain for m = ker(counit)."""
    return adic_filtration(H.algebra, counit_kernel_ideal(H.algebra, H.eps))


class HypFiltration:
    """hyp_k = annihilator of I_{k+1} for a descending ideal chain I."""

    def __init__(self, H, chain):
        self.chain = chain
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
        if k >= len(self.levels):
            return self.levels[-1]
        return self.levels[k]

    def level(self, phi):
        """Smallest k with phi in hyp_k; raises if phi escapes the top."""
        for k in range(len(self.levels)):
            if self.levels[k].contains(phi):
                return k
        raise HypError("functional escapes the filtration")


def _dual_product(D, phi, psi):
    """The convolution product of two functionals given as coordinate rows."""
    return D.algebra.multiply(Element(D.algebra, phi), Element(D.algebra, psi))


def check_hyp_filtration(H, chain, *, local=True):
    """Structure lemmas for the hyperalgebra filtration of a chain.

    - hyp_0 contains the counit (and equals its span when the chain starts
      at the augmentation ideal),
    - hyp_k hyp_l ⊆ hyp_{k+l} under convolution,
    - the dual coproduct sends hyp_k into sum_{i+j=k} hyp_i ⊗ hyp_j,
    - the dual antipode preserves every hyp_k,
    - the filtration is increasing and exhausts the full dual.
    """
    report = AxiomReport()
    n = H.algebra.dim
    D = dual_hopf(H, check=False)
    F = HypFiltration(H, chain)

    if not F.piece(0).contains(tuple(H.eps)):
        report.fail("the counit is not in hyp_0")
    if local and F.piece(0).dim != 1:
        report.fail("hyp_0 is not one dimensional")
    for k in range(F.length - 1):
        if not F.piece(k + 1).contains_space(F.piece(k)):
            report.fail("hyp_%d does not contain hyp_%d" % (k + 1, k))
    if F.piece(F.length - 1).dim != n:
        report.fail("the filtration does not exhaust the dual")

    top = F.length - 1
    for k in range(F.length):
        for l in range(F.length):
            target = F.piece(min(k + l, top))
            if k + l > top and target.dim != n:
                report.fail("hyp_%d+hyp_%d has no containing level" % (k, l))
                continue
            ok = True
            for phi in F.piece(k).rows:
                for psi in F.piece(l).rows:
                    if not target.contains(_dual_product(D, phi, psi).coords):
                        ok = False
            if not ok:
                report.fail("hyp_%d · hyp_%d escapes hyp_%d" % (k, l, k + l))
    for k in range(F.length):
        tgt = tensor_piece(F.piece, F.piece, k)
        for phi in F.piece(k).rows:
            if not tgt.contains(D.coproduct(Element(D.algebra, phi)).coords):
                report.fail("dual coproduct escapes at level %d" % k)
                break
        for phi in F.piece(k).rows:
            img = D.apply_antipode(Element(D.algebra, phi)).coords
            if not F.piece(k).contains(img):
                report.fail("dual antipode escapes at level %d" % k)
                break
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

    def __init__(self, algebra, delta, eps, level, *, antipode=None, name=None):
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

    @property
    def field(self):
        return self.algebra.field

    def hyp_level(self, phi):
        return self.hyp.level(phi)

    def convolve(self, phi, psi):
        """(value row, exact flag) of the lenient convolution product."""
        field = self.field
        n = self.algebra.dim
        par = self.algebra.space.parities
        psi_par = {par[i] for i, c in enumerate(psi) if c != field.zero}
        if len(psi_par) > 1:
            raise HypError("second factor must be parity homogeneous")
        pp = psi_par.pop() if psi_par else 0
        out = [field.zero] * n
        for k in range(n):
            acc = field.zero
            for (i, j), c in self.delta[k].items():
                sign = -field.one if pp == 1 and par[i] == 1 else field.one
                acc = acc + sign * c * phi[i] * psi[j]
            out[k] = acc
        exact = self.hyp_level(phi) + self.hyp_level(psi) <= self.level
        return out, exact

    def as_hopf(self, *, check=True):
        if self.antipode is None:
            raise HypError("no antipode attached to this truncation")
        return HopfSuperAlgebra(
            self.algebra, self.delta, self.eps, self.antipode, check=check
        )


def additive_truncation(field, m, var="T"):
    """K[T]/(T^m) with the binomial coproduct, truncated at level m-1.

    A genuine Hopf superalgebra exactly when every middle binomial
    coefficient C(a, i), 0 < i < a < m, vanishes in the field (char p,
    m = p^s); otherwise only the lenient TruncatedLocal structure exists.
    """
    from math import comb

    from .algebra import polynomial_truncation

    A = polynomial_truncation(field, var, m)
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
    return TruncatedLocal(
        A, delta, eps, m - 1, antipode=antipode, name="K[%s]/(%s^%d)" % (var, var, m)
    )


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
            for (a1, a2), ca in HA.delta[a].items():
                for (b1, b2), cb in HB.delta[b].items():
                    sign = (
                        -field.one
                        if parA[a2] * parB[b1] == 1
                        else field.one
                    )
                    key = (a1 * nB + b1, a2 * nB + b2)
                    delta[k][key] = delta[k].get(key, field.zero) + sign * ca * cb
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
        self.dual = dual_hopf(H, check=False)
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


def graded_hopf(H, filtration):
    """(Hopf structure on gr A, GradedCompanion) for a Hopf-compatible chain."""
    comp = graded_companion(filtration)
    n = H.algebra.dim
    degrees = comp.degrees
    delta = []
    for b in range(n):
        k = degrees[b]
        table = {}
        cop = H.coproduct(comp.reps[b]).terms
        for (u, v), c in comp.basis.tensor_coords(cop).items():
            d = degrees[u] + degrees[v]
            if d < k:
                raise FiltrationError(
                    "coproduct is not compatible with the filtration"
                )
            if d == k:
                table[(u, v)] = c
        delta.append(table)
    eps = [H.counit(comp.reps[b]) for b in range(n)]
    antipode = []
    for b in range(n):
        img = comp.class_coords(H.apply_antipode(comp.reps[b]), degrees[b])
        antipode.append(dense(img, n, H.field.zero))
    grH = HopfSuperAlgebra(comp.gr, delta, eps, antipode, check=True)
    return grH, comp


# -- gr(hyp) versus hyp(gr) ---------------------------------------------


def check_gr_hyp_duality(H, filtration):
    """gr of the filtered dual against the dual of the graded companion.

    Both sides are realized on concrete bases; the comparison map sends the
    class of phi in hyp_k/hyp_{k-1} to the functional [a]_k -> phi(a) on the
    degree-k component of gr A.  The report records degreewise dimensions
    and verifies that the map is bijective and respects unit, counit,
    product, coproduct and antipode.
    """
    report = GradedReport()
    field = H.field
    n = H.algebra.dim
    grH, comp = graded_hopf(H, filtration)
    D2 = dual_hopf(grH, check=False)
    D1 = dual_hopf(H, check=False)
    F = HypFiltration(H, filtration)

    # adapted basis of the increasing filtration of the dual
    basis = AdaptedBasis(field, n, F.piece, F.length, -1)
    adapted, adeg = basis.vecs, basis.degrees

    # Theta columns: adapted functional of degree k -> functional on gr A
    theta = [
        Element(D2.algebra, [
            apply_functional(adapted[i], comp.reps[m]) if comp.degrees[m] == adeg[i]
            else field.zero
            for m in range(n)
        ])
        for i in range(n)
    ]

    for deg in sorted(set(adeg)):
        src = sum(1 for d in adeg if d == deg)
        tgt = sum(1 for d in comp.degrees if d == deg)
        report.degree_dims[deg] = (src, tgt)
        if src != tgt:
            report.fail("degree %d dimensions differ" % deg)
    if rank([x.coords for x in theta], field) != n:
        report.fail("comparison map is not bijective")

    theta_cols = [x.terms for x in theta]

    def apply_theta(vec):
        return apply_columns(theta_cols, vec)

    # unit and counit; theta[i] is the image of the adapted class i
    eps_class = basis.class_coords(sparse(H.eps), 0)
    if apply_theta(eps_class) != D2.algebra.unit.terms:
        report.fail("unit is not preserved")
    for i in range(n):
        lhs = D2.counit(theta[i])
        rhs = apply_functional(adapted[i], H.algebra.unit) if adeg[i] == 0 else field.zero
        if lhs != rhs:
            report.fail("counit differs at adapted index %d" % i)

    # product
    for i in range(n):
        for j in range(n):
            prod = _dual_product(D1, adapted[i], adapted[j])
            try:
                cls = basis.class_coords(prod.terms, adeg[i] + adeg[j])
            except FiltrationError:
                report.fail(
                    "product escapes its filtration degree at (%d,%d)" % (i, j)
                )
                continue
            lhs = apply_theta(cls)
            rhs = D2.algebra.multiply(theta[i], theta[j]).terms
            if lhs != rhs:
                report.fail("product differs at adapted pair (%d,%d)" % (i, j))
                return report

    # coproduct and antipode, classwise
    for i in range(n):
        k = adeg[i]
        # class in sum_{u+v=k}: adapted⊗adapted coordinates
        lhs = basis.tensor_coords(D1.coproduct(Element(D1.algebra, adapted[i])).terms)
        if any(adeg[u] + adeg[v] > k for u, v in lhs):
            report.fail("dual coproduct exceeds level at index %d" % i)
            continue
        keep = [(u, v) for u, v in lhs if adeg[u] + adeg[v] == k]
        got = apply_columns(
            [tensor_pure(D2.square, theta[u], theta[v]).terms for u, v in keep],
            {s: lhs[key] for s, key in enumerate(keep)},
        )
        ti = theta[i]
        if got != D2.coproduct(ti).terms:
            report.fail("coproduct differs at adapted index %d" % i)
            return report

        s_img = D1.apply_antipode(Element(D1.algebra, adapted[i])).terms
        try:
            s_cls = basis.class_coords(s_img, k)
        except FiltrationError:
            report.fail("dual antipode exceeds level at index %d" % i)
            continue
        if apply_theta(s_cls) != D2.apply_antipode(ti).terms:
            report.fail("antipode differs at adapted index %d" % i)
    return report
