"""Hopf superalgebra structures on finite dimensional supercommutative algebras.

The coproduct is stored as a sparse table per basis element, the counit as
a scalar row and the antipode as a matrix.  Each structure map is applied
as sparse columns, computed once: the coproduct and a coaction with the
flat column {i·m + j: c} of each basis vector, the antipode with its
sparse matrix columns.  In the supercommutative case the antipode is
itself an algebra morphism, which is what gets checked; every
algebra-morphism check (coproduct, counit, antipode, coaction) goes through
algebra.first_non_multiplicative.
Also contains right coactions of a Hopf algebra on an algebra carrier,
their coinvariants and the surjectivity test for the Galois-type map
alpha(a ⊗ a') = a a'_(0) ⊗ a'_(1).

Three kernels do the arithmetic: algebra._contract forms every product
given by a table (the antipode law),
linalg.add_scaled accumulates scaled sparse vectors, and linalg.kernel
gives the coinvariants from the flat columns.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .algebra import (
    AxiomReport, Element, _contract, first_non_multiplicative, grassmann, ground_algebra,
    span_products, tensor, tensor_pure,
)
from .linalg import add_scaled, apply_columns, dense, kernel, rank, sparse


class HopfError(ValueError):
    pass


def apply_functional(phi, elem):
    """Value of the functional phi (coordinate row) on an algebra element."""
    field = elem.algebra.field
    return field.sum(phi[i] * c for i, c in elem.terms.items())


class HopfSuperAlgebra:
    """algebra + (delta, eps, s).

    delta:    list, per basis index, of {(i, j): scalar} coefficient tables
    eps:      list of scalars
    antipode: list of columns, per basis index the coordinates of its image
    hopf_factors: (HB, HL) when the algebra is the tensor product B ⊗ Λ
              built by hyp.tensor_hopf, else None
    """

    def __init__(self, algebra, delta, eps, antipode, *, check=True, hopf_factors=None):
        self.algebra = algebra
        field = algebra.field
        self.delta = [
            {k: c for k, c in table.items() if c != field.zero} for table in delta
        ]
        self.eps = list(eps)
        self.antipode = [tuple(col) for col in antipode]
        self._antipode_cols = [sparse(col) for col in self.antipode]
        self.hopf_factors = hopf_factors
        if len(self.delta) != algebra.dim or len(self.eps) != algebra.dim:
            raise HopfError("coproduct/counit tables have wrong size")
        if len(self.antipode) != algebra.dim or any(len(c) != algebra.dim for c in self.antipode):
            raise HopfError("antipode matrix has wrong shape")
        self._delta_cols = _flat_columns(self.delta, algebra.dim, algebra.dim, "coproduct")
        if check:
            report = check_hopf_axioms(self)
            if not report.holds:
                raise HopfError("Hopf axioms fail: %s" % "; ".join(report.failures))

    @property
    def field(self):
        return self.algebra.field

    @cached_property
    def square(self):
        """A ⊗ A, where the coproduct takes its values; built on first use."""
        return tensor(self.algebra, self.algebra)

    def coproduct(self, elem):
        """Delta as an element of A ⊗ A."""
        return Element._from_terms(self.square, apply_columns(self._delta_cols, elem.terms))

    def counit(self, elem):
        return apply_functional(self.eps, elem)

    def apply_antipode(self, elem):
        return Element._from_terms(self.algebra, apply_columns(self._antipode_cols, elem.terms))


def _flat_columns(table, n, m, what):
    """The sparse columns {i·m + j: c} of a table of {(i, j): c} dicts over
    the n × m basis pairs; a key outside them raises HopfError."""
    cols = []
    for entries in table:
        col = {}
        for (i, j), c in entries.items():
            if not (0 <= i < n and 0 <= j < m):
                raise HopfError("%s key %r is outside the basis" % (what, (i, j)))
            col[i * m + j] = c
        cols.append(col)
    return cols


def _morphism_report(report, name, source, target, images, parity):
    """Check that the map with sparse images[k] of e_k is multiplicative.

    When parity is set, the parity of each image is checked too, for the
    basis vectors up to the row of the first failing pair: the order in
    which a row-by-row sweep that stops there meets them."""
    bad = first_non_multiplicative(source, target, images)
    labels = source.space.labels
    if parity:
        for i in range(source.dim if bad is None else bad[0] + 1):
            im = Element._from_terms(target, images[i])
            if im.terms and im.parity() != source.space.parities[i]:
                report.fail("%s changes parity at %s" % (name, labels[i]))
    if bad is not None:
        i, j = bad
        report.fail("%s is not multiplicative at (%s,%s)" % (name, labels[i], labels[j]))


def check_hopf_axioms(H):
    """Full axiom sweep; returns an AxiomReport with labelled witnesses."""
    report = AxiomReport()
    A = H.algebra
    field = H.field
    n = A.dim
    if H.coproduct(A.unit) != tensor_pure(H.square, A.unit, A.unit):
        report.fail("coproduct does not fix the unit")
    _morphism_report(report, "coproduct", A, H.square, H._delta_cols, True)

    if H.counit(A.unit) != field.one:
        report.fail("counit of the unit is not 1")
    for i in range(n):
        if A.space.parities[i] == 1 and H.eps[i] != field.zero:
            report.fail("counit does not kill odd element %s" % A.space.labels[i])
    eps_cols = [{0: e} if e else {} for e in H.eps]
    _morphism_report(report, "counit", A, ground_algebra(field), eps_cols, False)

    if H.apply_antipode(A.unit) != A.unit:
        report.fail("antipode does not fix the unit")
    _morphism_report(report, "antipode", A, A, H._antipode_cols, True)

    # coassociativity, counit law and antipode law
    prod, S = A._prod, H._antipode_cols
    for b in range(n):
        if not _coassociative(H.delta, H.delta, b, field.zero):
            report.fail("coassociativity fails at %s" % A.space.labels[b])

        # sum c·ε(e_i)·e_j and sum c·e_i·ε(e_j) for the counit law, and sum
        # c·S(e_i)·e_j and sum c·e_i·S(e_j) for the antipode law, over the
        # terms c·e_i⊗e_j of Delta e_b
        lid, rid, acc_l, acc_r = {}, {}, {}, {}
        for (i, j), c in H.delta[b].items():
            add_scaled(lid, H.eps[i], {j: c})
            add_scaled(rid, H.eps[j], {i: c})
            _contract(prod, S[i], {j: c}, acc_l)
            _contract(prod, {i: c}, S[j], acc_r)
        if any({k: v for k, v in acc.items() if v} != {b: field.one} for acc in (lid, rid)):
            report.fail("counit law fails at %s" % A.space.labels[b])
        want = A.unit.scale(H.eps[b]).terms
        if any({k: v for k, v in acc.items() if v} != want for acc in (acc_l, acc_r)):
            report.fail("antipode law fails at %s" % A.space.labels[b])
    return report


def _coassociative(tau, delta, b, zero):
    """(tau ⊗ id) tau = (id ⊗ delta) tau on basis element b, compared as
    coefficient tables over triples; tau = delta for a Hopf coproduct."""
    left, right = {}, {}
    for (i, j), c in tau[b].items():
        add_scaled(left, c, {(u, v, j): d for (u, v), d in tau[i].items()})
        add_scaled(right, c, {(i, u, v): d for (u, v), d in delta[j].items()})
    return all(left.get(k, zero) == right.get(k, zero) for k in set(left) | set(right))


def grassmann_hopf(field, generators):
    """Grassmann algebra with primitive odd generators; S(theta) = -theta.

    For a set S of generators, Delta(theta_S) = sum over T ⊆ S of
    sign(T, U)·theta_T ⊗ theta_U with U = S∖T, where sign(T, U) is -1 to
    the number of pairs (t in T, u in U) with u before t: the Koszul signs
    met in multiplying out the product of the theta_s⊗1 + 1⊗theta_s.  The
    terms are listed in the order of that expansion, theta_s⊗1 before
    1⊗theta_s, the first generator outermost."""
    A = grassmann(field, generators)
    n = A.dim
    bit = {g: 1 << s for s, g in enumerate(generators)}
    # the generators of each basis monomial, as bits, in the order of its label
    monomials = [[bit[g] for g in label.split("*")] if b else []
                 for b, label in enumerate(A.space.labels)]
    pos = {sum(bits): b for b, bits in enumerate(monomials)}
    one = field.one
    delta, antipode = [], []
    for b, bits in enumerate(monomials):
        table = {}
        for choice in product((True, False), repeat=len(bits)):
            T = U = swaps = 0
            for g, left in zip(bits, choice):
                if left:
                    T |= g
                    swaps += bin(U).count("1")
                else:
                    U |= g
            table[(pos[T], pos[U])] = -one if swaps % 2 else one
        delta.append(table)
        col = [field.zero] * n
        col[b] = -one if len(bits) % 2 else one
        antipode.append(col)
    eps = [one if b == 0 else field.zero for b in range(n)]
    return HopfSuperAlgebra(A, delta, eps, antipode, check=True)


class Coaction:
    """Right coaction tau: A -> A ⊗ D of a Hopf algebra D on an algebra A.

    tau is given per basis index of A as {(a_index, d_index): scalar}.
    """

    def __init__(self, carrier, hopf, tau, *, check=True):
        self.carrier = carrier
        self.hopf = hopf
        field = carrier.field
        self.tau = [
            {k: c for k, c in table.items() if c != field.zero} for table in tau
        ]
        if len(self.tau) != carrier.dim:
            raise HopfError("coaction table has wrong size")
        self._tau_cols = _flat_columns(self.tau, carrier.dim, hopf.algebra.dim, "coaction")
        self.mixed = hopf.square if carrier is hopf.algebra else tensor(carrier, hopf.algebra)
        if check:
            rep = self.check_axioms()
            if not rep.holds:
                raise HopfError("coaction axioms fail: %s" % "; ".join(rep.failures))

    def apply(self, elem):
        return Element._from_terms(self.mixed, apply_columns(self._tau_cols, elem.terms))

    def check_axioms(self):
        report = AxiomReport()
        A, D = self.carrier, self.hopf.algebra
        field = A.field
        # tau is an algebra morphism
        if self.apply(A.unit) != tensor_pure(self.mixed, A.unit, D.unit):
            report.fail("coaction does not fix the unit")
        _morphism_report(report, "coaction", A, self.mixed, self._tau_cols, False)
        # coassociativity of the coaction and the counit law
        for b in range(A.dim):
            if not _coassociative(self.tau, self.hopf.delta, b, field.zero):
                report.fail("coaction coassociativity fails at %s" % A.space.labels[b])
            acc = {}
            for (i, j), c in self.tau[b].items():
                add_scaled(acc, self.hopf.eps[j], {i: c})
            if {k: v for k, v in acc.items() if v} != {b: field.one}:
                report.fail("coaction counit law fails at %s" % A.space.labels[b])
        return report

    def coinvariants(self):
        """Echelon basis of {a : tau(a) = a ⊗ 1}; also checks it is a subalgebra."""
        A, D = self.carrier, self.hopf.algebra
        m = D.dim
        unit = D.unit.terms
        cols = []
        for b, col in enumerate(self._tau_cols):
            # subtract b⊗1
            col = dict(col)
            add_scaled(col, -A.field.one, {b * m + u: cu for u, cu in unit.items()})
            cols.append(col)
        # the x with sum_b x_b·cols[b] = 0
        keys = sorted({k for col in cols for k in col})
        sub = kernel(A.field, len(cols), [[col.get(k, A.field.zero) for col in cols] for k in keys])
        if not all(map(sub.contains, span_products(A, sub.rows, sub.rows))):
            raise HopfError("coinvariants failed to close under product")
        return sub

    def check_alpha_surjective(self):
        """Rank test for alpha: A⊗A -> A⊗D, a⊗a' -> a·a'_(0) ⊗ a'_(1)."""
        A, D = self.carrier, self.hopf.algebra
        field = A.field
        nA, nD = A.dim, D.dim
        cols = []
        for a in range(nA):
            for table in self.tau:
                col = {}
                for (i, j), c in table.items():
                    add_scaled(col, c, {t * nD + j: x for t, x in A.product_coords(a, i).items()})
                cols.append(dense(col, nA * nD, field.zero))
        return rank(cols, field) == nA * nD


def regular_coaction(H):
    """A Hopf algebra coacting on itself by its coproduct."""
    tau = [dict(table) for table in H.delta]
    return Coaction(H.algebra, H, tau, check=True)


def trivial_coaction(A, H):
    unit = H.algebra.unit.terms
    tau = [{(b, u): cu for u, cu in unit.items()} for b in range(A.dim)]
    return Coaction(A, H, tau, check=True)
