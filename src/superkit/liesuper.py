"""Finite dimensional Lie superalgebras via structure constants.

Axioms checked:
  (B3)  [x,y] = -(-1)^{|x||y|} [y,x], on the pairs i <= j
  (B4)  super Jacobi on the sorted triples i <= j <= k, one per S3-orbit,
        as the Jacobiator is graded-alternating given (B3) (check_axioms):
        about n^3/6 triples, 816 of 4,096 for gl(2|2).
  (B2)  [[x,x],x] = 0 for every odd x, expanded with formal commuting
        coefficients.  (B2) is checked directly and not deduced from (B4):
        in characteristic 3 it is independent.

The structure constants are the sparse table {(i, j): {k: c}} of nonzero
brackets, and the bracket of two vectors is algebra._contract on it, the
kernel of every product given by a table.  The sweeps form no dense
bracket: a double bracket [[e_i,e_j],e_k] is a sum over the support of one
table entry, accumulated by linalg.add_scaled, so (B4) and (B2) cost
O(s^2) per sorted triple for at most s terms per entry.  gl(m|n) is built
from the nonzero matrix entries and one pivot inverse, by
linalg.bracket_table, the one builder of matrix bracket tables (the Lie(G)
table of a matrix group and the [V,V] a pair with row parities derives
come from it too).
is_homogeneous is the one parity test of a matrix for a row grading:
MatrixLieSuper and the row parities of a pair use it.

Elements are coordinate lists over the field.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

from .algebra import AxiomReport, SuperVectorSpace, _contract
from .linalg import BasisExpander, add_scaled, bracket_table, dense, sparse


class LieError(ValueError):
    pass


class LieSuperAlgebra:
    def __init__(self, field, labels, parities, brackets, *, check=True):
        self.field = field
        self.space = SuperVectorSpace(labels, parities)
        self.table = {}
        for (i, j), terms in brackets.items():
            terms = {k: c for k, c in terms.items() if c}
            if terms:
                self.table[(i, j)] = terms
        for (i, j), terms in self.table.items():
            want = (self.space.parities[i] + self.space.parities[j]) % 2
            for k in terms:
                if self.space.parities[k] != want:
                    raise LieError("bracket is not parity additive at (%d,%d)" % (i, j))
        if check:
            self.require_axioms()

    @property
    def dim(self):
        return self.space.dim

    def bracket_basis(self, i, j):
        return self.table.get((i, j), {})

    def bracket(self, x, y):
        """Bracket of coordinate vectors over the base field."""
        return tuple(dense(_contract(self.table, sparse(x), sparse(y)), self.dim, self.field.zero))

    def require_axioms(self):
        """Raise LieError listing the failures unless the axioms hold."""
        report = self.check_axioms()
        if not report.holds:
            raise LieError("axioms fail: %s" % "; ".join(report.failures))

    def check_axioms(self):
        """(B3) at i <= j, (B4) at i <= j <= k, and (B2); each failure once.

        With J(x,y,z) = [[x,y],z] - [x,[y,z]] + s(x,y)[y,[x,z]], s(x,y) =
        (-1)^{|x||y|}, (B3) gives J(y,x,z) = -s(x,y) J(x,y,z) and J(x,z,y) =
        -s(y,z) J(x,y,z).  These transpositions generate S3, so J vanishes on
        an orbit of basis triples iff on its sorted triple, where a failing
        orbit is reported.  Repeated indices stay: J(x,x,z) need not vanish
        for odd x.  If (B3) fails, so does the report."""
        report = AxiomReport()
        n = self.dim
        par, labels = self.space.parities, self.space.labels
        table, none, one, zero = self.table, {}, self.field.one, self.field.zero
        for i in range(n):
            for j in range(i, n):
                sign = -one if par[i] * par[j] == 0 else one
                lhs, rhs = table.get((j, i), none), table.get((i, j), none)
                if any(lhs.get(k, zero) != sign * rhs.get(k, zero) for k in set(lhs) | set(rhs)):
                    report.fail("(B3) fails at (%s,%s)" % (labels[i], labels[j]))
        for i in range(n):
            for j in range(i, n):
                ij = table.get((i, j), none)
                s2 = -one if par[i] and par[j] else one
                for k in range(j, n):
                    jk, ik = table.get((j, k), none), table.get((i, k), none)
                    if not (ij or jk or ik):
                        continue
                    # super Jacobi: [[x,y],z] = [x,[y,z]] - (-1)^{|x||y|}[y,[x,z]]
                    diff = {}
                    for a, c in ij.items():
                        add_scaled(diff, c, table.get((a, k), none))
                    for b, c in jk.items():
                        add_scaled(diff, -c, table.get((i, b), none))
                    for b, c in ik.items():
                        add_scaled(diff, s2 * c, table.get((j, b), none))
                    if any(diff.values()):
                        report.fail("(B4) fails at (%s,%s,%s)" % (labels[i], labels[j], labels[k]))
        # (B2) with formal commuting coefficients on the odd part
        odd = [i for i in range(n) if par[i] == 1]
        for multiset in combinations_with_replacement(odd, 3):
            acc = {}
            for (i, j, k) in set(permutations(multiset)):
                for a, c in table.get((i, j), none).items():
                    add_scaled(acc, c, table.get((a, k), none))
            if any(acc.values()):
                report.fail(
                    "(B2) fails on coefficient of %s" % "*".join(labels[t] for t in multiset)
                )
        return report


def is_homogeneous(mat, parity, row_parities):
    """Whether the matrix mat is homogeneous of the given parity for the
    row grading: row_parities[r] + row_parities[c] = parity mod 2 at each
    nonzero entry (r, c)."""
    return not any(x and (row_parities[r] + row_parities[c] - parity) % 2
                   for r, row in enumerate(mat) for c, x in enumerate(row))


class _MatrixBasis(BasisExpander):
    error = LieError


class MatrixLieSuper(LieSuperAlgebra):
    """A Lie superalgebra realized by matrices; the bracket table is computed
    from the supercommutator and verified to close on the given basis.

    No axiom sweep is needed: each basis matrix is checked to be homogeneous
    of its declared parity for the row grading (is_homogeneous), and the
    supercommutator of homogeneous supermatrices satisfies (B2)-(B4), as in
    gl(m|n).

    The build stays sparse: linalg.bracket_table forms each
    supercommutator from the row_entries of the two matrices as its nonzero
    entries {r·size + c: x}, and BasisExpander.terms_field expands it
    reading only that support, so a pair of matrix units costs a few terms,
    not size² entries."""

    def __init__(self, field, labels, parities, matrices, row_parities):
        self.matrices = [tuple(tuple(r) for r in m) for m in matrices]
        self.row_parities = tuple(row_parities)
        if not all(is_homogeneous(m, p, self.row_parities)
                   for m, p in zip(self.matrices, parities)):
            raise LieError("matrix is not homogeneous of its parity")
        expander = _MatrixBasis(field, [[x for row in m for x in row] for m in self.matrices])
        try:
            brackets = bracket_table(expander, self.matrices, parities)
        except LieError:
            raise LieError("matrix basis does not close under the supercommutator") from None
        super().__init__(field, labels, parities, brackets, check=False)


def gl_super(field, m, n):
    """gl(m|n): all (m+n)x(m+n) matrix units with block parity."""
    size = m + n
    row_par = [0] * m + [1] * n
    labels, parities, matrices = [], [], []
    for i in range(size):
        for j in range(size):
            labels.append("E%d%d" % (i + 1, j + 1))
            parities.append((row_par[i] + row_par[j]) % 2)
            mat = [
                [field.one if (a, b) == (i, j) else field.zero for b in range(size)]
                for a in range(size)
            ]
            matrices.append(mat)
    return MatrixLieSuper(field, labels, parities, matrices, row_par)
