"""Finite dimensional Lie superalgebras via structure constants.

Axioms checked:
  (B3)  [x,y] = -(-1)^{|x||y|} [y,x]
  (B4)  super Jacobi on basis triples
  (B2)  [[x,x],x] = 0 for every odd x, expanded with formal commuting
        coefficients.  (B2) is checked directly and not deduced from (B4):
        in characteristic 3 it is independent.

Elements are coordinate lists over the field; for coefficient extensions
g ⊗ R the coordinates are elements of a supercommutative R and the
bracket carries the sign [X⊗r, Y⊗r'] = (-1)^{|r||Y|} [X,Y] ⊗ r r'.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations

from .algebra import AxiomReport, SuperVectorSpace
from .linalg import express_in_basis, mat_bracket


class LieError(ValueError):
    pass


class LieSuperAlgebra:
    def __init__(self, field, labels, parities, brackets, *, check=True):
        self.field = field
        self.space = SuperVectorSpace(labels, parities)
        self.table = {}
        for (i, j), terms in brackets.items():
            terms = {k: c for k, c in terms.items() if c != field.zero}
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

    def basis_coords(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return tuple(v)

    def bracket_basis(self, i, j):
        return self.table.get((i, j), {})

    def bracket(self, x, y):
        """Bracket of coordinate vectors over the base field."""
        out = [self.field.zero] * self.dim
        for i, ci in enumerate(x):
            if ci == self.field.zero:
                continue
            for j, cj in enumerate(y):
                if cj == self.field.zero:
                    continue
                c = ci * cj
                for k, s in self.bracket_basis(i, j).items():
                    out[k] = out[k] + c * s
        return tuple(out)

    def bracket_over(self, R, x, y):
        """Bracket on g ⊗ R.  x, y are lists of R Elements (coordinates)."""
        par = self.space.parities
        out = [R.zero() for _ in range(self.dim)]
        for i, ri in enumerate(x):
            if ri.is_zero():
                continue
            for p in (0, 1):
                rp = ri.homogeneous_part(p)
                if rp.is_zero():
                    continue
                for j, rj in enumerate(y):
                    if rj.is_zero():
                        continue
                    prod = R.multiply(rp, rj)
                    if p == 1 and par[j] == 1:
                        prod = -prod
                    for k, s in self.bracket_basis(i, j).items():
                        out[k] = out[k] + prod.scale(s)
        return out

    def require_axioms(self):
        """Raise LieError listing the failures unless the axioms hold."""
        report = self.check_axioms()
        if not report.holds:
            raise LieError("axioms fail: %s" % "; ".join(report.failures))

    def check_axioms(self):
        report = AxiomReport()
        field = self.field
        n = self.dim
        par = self.space.parities
        for i in range(n):
            for j in range(n):
                sign = -field.one if par[i] * par[j] == 0 else field.one
                lhs = self.bracket_basis(j, i)
                rhs = self.bracket_basis(i, j)
                for k in set(lhs) | set(rhs):
                    if lhs.get(k, field.zero) != sign * rhs.get(k, field.zero):
                        report.fail(
                            "(B3) fails at (%s,%s)"
                            % (self.space.labels[i], self.space.labels[j])
                        )
                        break
        for i in range(n):
            bi = self.basis_coords(i)
            for j in range(n):
                bj = self.basis_coords(j)
                bij = self.bracket(bi, bj)
                for k in range(n):
                    bk = self.basis_coords(k)
                    # super Jacobi: [[x,y],z] = [x,[y,z]] - (-1)^{|x||y|}[y,[x,z]]
                    s2 = field.one if par[i] * par[j] == 0 else -field.one
                    lhs = self.bracket(bij, bk)
                    mid = self.bracket(bi, self.bracket(bj, bk))
                    rot = self.bracket(bj, self.bracket(bi, bk))
                    if not all(lhs[t] == mid[t] - s2 * rot[t] for t in range(n)):
                        report.fail(
                            "(B4) fails at (%s,%s,%s)"
                            % tuple(self.space.labels[t] for t in (i, j, k))
                        )
        # (B2) with formal commuting coefficients on the odd part
        odd = [i for i in range(n) if par[i] == 1]
        for multiset in combinations_with_replacement(odd, 3):
            acc = [field.zero] * n
            for (i, j, k) in set(permutations(multiset)):
                term = self.bracket(self.bracket(self.basis_coords(i), self.basis_coords(j)), self.basis_coords(k))
                acc = [a + t for a, t in zip(acc, term)]
            if any(c != field.zero for c in acc):
                report.fail(
                    "(B2) fails on coefficient of %s"
                    % "*".join(self.space.labels[t] for t in multiset)
                )
        return report


def check_ad_derivation(L, x, y, z):
    """ad(x) is a super derivation of the bracket (coordinate vectors x,y,z)."""
    field = L.field
    par_x = _parity_of(L, x)
    par_y = _parity_of(L, y)
    if par_x is None or par_y is None:
        raise LieError("homogeneous arguments required")
    lhs = L.bracket(x, L.bracket(y, z))
    t1 = L.bracket(L.bracket(x, y), z)
    t2 = L.bracket(y, L.bracket(x, z))
    sign = field.one if par_x * par_y == 0 else -field.one
    return all(l == a + sign * b for l, a, b in zip(lhs, t1, t2))


def _parity_of(L, coords):
    seen = {L.space.parities[i] for i, c in enumerate(coords) if c != L.field.zero}
    if len(seen) > 1:
        return None
    return seen.pop() if seen else 0


class MatrixLieSuper(LieSuperAlgebra):
    """A Lie superalgebra realized by matrices; the bracket table is computed
    from the supercommutator and verified to close on the given basis."""

    def __init__(self, field, labels, parities, matrices, row_parities):
        self.matrices = [tuple(tuple(r) for r in m) for m in matrices]
        self.row_parities = tuple(row_parities)
        flat = [self._flatten(m) for m in self.matrices]
        brackets = {}
        n = len(labels)
        for i in range(n):
            for j in range(n):
                sign = field.one if parities[i] * parities[j] == 0 else -field.one
                comm = mat_bracket(self.matrices[i], self.matrices[j], sign)
                coords = express_in_basis(self._flatten(comm), flat, field)
                if coords is None:
                    raise LieError(
                        "matrix basis does not close under the supercommutator"
                    )
                terms = {k: c for k, c in enumerate(coords) if c != field.zero}
                if terms:
                    brackets[(i, j)] = terms
        super().__init__(field, labels, parities, brackets, check=True)

    @staticmethod
    def _flatten(m):
        return [x for row in m for x in row]


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
