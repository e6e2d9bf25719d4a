"""Harish-Chandra pairs over a matrix-group model.

A pair is (G, V): G a matrix group given by closed polynomial membership
conditions, a Lie algebra basis and designated generic elements with
formal entries; V a purely odd G-module; a symmetric bracket V x V ->
Lie(G); and the induced Lie(G) action on V.  Conditions checked:

  (a) bracket_VV symmetric (odd-odd super skew-symmetry),
  (b) the action is a representation (rho(g) rho(h) = rho(gh), for an
      action matrix; conjugation is one as soon as g g^-1 = I) and
      G-equivariance, as polynomial identities in the formal entries of
      the generic elements, reduced modulo their relations,
  (c) [v,v]·v = 0 expanded over formal commuting coefficients (the cubic
      identity; valid uniformly, including characteristic 3).

MatrixGroupModel checks at build that its conditions hold at I, at each
I + eps X and at each generic point g (whose inverse must be right), and,
so that gamma may trust products of points over any R, that they hold at
M·M' and at M^-1 for the matrices M, M' of formal entries, modulo the
conditions at both and det·t = 1: G(R) is then a group for every R, not
only at the generic points; else HCPError (a pair file: exit 1).

Each structure table is derived once, when the group or pair is built,
and one way.  MatrixGroupModel builds its tangent points once (over
E = K[eps]/eps^2, I and each I + eps X with its inverse I - eps X) and its
sparse lie_table {(a, b): terms of [X_a, X_b]} by linalg.bracket_table.
HarishChandraPair derives [g,V] in both modes as the eps-coefficient of
rho(I + eps X_k) at those points ([X_k, M_i] for module matrices); the
action must send I to I, and no caller supplies the table.  row_parities,
given only with module matrices, must make the Lie basis even and the
module matrices odd: the supermatrix oracle's twist diag((-1)^p(j))
relies on it.  The module matrices are then a supermatrix realisation,
and the pair derives [V,V] as their anticommutators M_i·M_j + M_j·M_i in
Lie(G), by linalg.bracket_table; a caller's table is only compared with
it.  Without row parities [V,V] is the caller's.  assembled_lie is
Lie(G) ⊕ V from the three tables, built with the pair, and column i of
the action rho(X) of a Lie element X is apply_gv(X, i).  The pair also
keeps two values that depend on it alone, for every coefficient algebra,
once gamma has computed them: straightened PBW sequences and rho at
points with field entries (over the pair's ground algebra K).

Also: the largest R-subordinated submodule W_R by fixpoint iteration,
the radical data (W_R, Lie(H_R)), the pseudoabelian example, and the
exactness condition checks for short sequences of pairs.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import combinations_with_replacement, permutations
from operator import add

from . import linalg
from .algebra import (
    AxiomReport, Element, ground_algebra, lift_matrix, polynomial_truncation, sum_products,
)
from .liesuper import LieSuperAlgebra, is_homogeneous
from .linalg import (
    Subspace, apply_columns, bracket_table, dense, identity_matrix, kernel, mat_mul, rank, sparse,
    transpose,
)
from .symbolic import Poly, Reducer, eval_at


class HCPError(ValueError):
    pass


def _flatten(mat):
    return [x for row in mat for x in row]


class BasisExpander(linalg.BasisExpander):
    error = HCPError


class GenericPoint:
    """A group element with formal polynomial entries, its inverse, and the
    relations its parameters satisfy (e.g. alpha*alpha_i - 1).  Entries are
    read through str() (text, integers or Polys) over the field of the
    group model that takes the point."""

    def __init__(self, matrix, inverse, relations):
        self.matrix, self.inverse, self.relations = matrix, inverse, relations

    def over(self, field):
        """The point with Poly entries over field, and the Reducer of its
        relations, built once."""
        read = partial(Poly.read, field)
        pt = GenericPoint(*[[[read(e) for e in row] for row in M] for M in (self.matrix, self.inverse)],
                          [read(r) for r in self.relations])
        pt.reducer = Reducer(pt.relations)
        return pt


def _primed(mat, relations, one):
    """A copy of a square Poly matrix and of its relations with each name x
    renamed x' (a name no text can give)."""
    names = {v for p in _flatten(mat) + relations for mono in p.terms for v, _ in mono}
    at = {v: Poly(one.field, {((v + "'", 1),): one.field.one}) for v in names}
    return ([[eval_at(x, at, one) for x in row] for row in mat],
            [eval_at(r, at, one) for r in relations])


def _det(mat, one):
    """The determinant of a square Poly matrix, expanded along the first row
    past its zero entries."""
    return reduce(add, ((-x if j % 2 else x) * _det([r[:j] + r[j + 1:] for r in mat[1:]], one)
                        for j, x in enumerate(mat[0]) if x), one - one) if mat else one


def _is_identity(mat, reducer, one):
    """Whether a square matrix of Polys is I modulo the relations of reducer."""
    return all(reducer.is_zero(x - one if i == j else x)
               for i, row in enumerate(mat) for j, x in enumerate(row))


class MatrixGroupModel:
    def __init__(self, field, size, closed_conditions, lie_basis, generic_points, *, name=None):
        self.field = field
        self.size = size
        self.name = name
        # the names of the matrix entries, the only names a condition may use
        self.entry_names = {"m_%d_%d" % (i, j) for i in range(size) for j in range(size)}
        self.closed_conditions = [
            Poly.read(field, c, self.entry_names) for c in closed_conditions
        ]
        self.lie_basis = [tuple(tuple(x) for x in m) for m in lie_basis]
        self.generic_points = [pt.over(field) for pt in generic_points]
        self.lie_expander = BasisExpander(field, [_flatten(m) for m in self.lie_basis])
        self._check_model()

    @property
    def lie_dim(self):
        return len(self.lie_basis)

    def entries(self, matrix):
        """The assignment {entry name: entry} of a size x size matrix."""
        return {"m_%d_%d" % (i, j): x for i, row in enumerate(matrix) for j, x in enumerate(row)}

    def _check_model(self):
        field = self.field
        # the tangent points, built once: over E = K[eps]/eps^2, the lifted
        # I and, for each Lie basis vector X, the point I + eps X (the
        # tangent condition) with its inverse I - eps X
        E = polynomial_truncation(field, "eps", 2)
        ident = lift_matrix(E, identity_matrix(self.size, field))
        if not self.membership_over(E, ident):
            raise HCPError("identity matrix fails a membership condition")
        eps = E.basis_element(1)
        pairs = [tuple([[x + eps.scale(s * c) for x, c in zip(row, xrow)]
                        for row, xrow in zip(ident, X)] for s in (field.one, -field.one))
                 for X in self.lie_basis]
        if not all(self.membership_over(E, plus) for plus, _ in pairs):
            raise HCPError("Lie basis vector violates the tangent condition")
        self.tangent = (E, ident, pairs)
        one = Poly.const(field, field.one)
        for pt in self.generic_points:
            at = self.entries(pt.matrix)
            if not all(pt.reducer.is_zero(eval_at(c, at, one)) for c in self.closed_conditions):
                raise HCPError("generic point fails a membership condition")
            if not _is_identity(mat_mul(pt.matrix, pt.inverse), pt.reducer, one):
                raise HCPError("generic point inverse is wrong")
        # the structure constants {(a, b): the nonzero Lie coordinates of
        # [X_a, X_b]}; terms_field raises when the basis does not close
        self.lie_table = bracket_table(self.lie_expander, self.lie_basis, [0] * self.lie_dim)
        # with no conditions G is GL(n), a group: there is nothing to close
        if not self.closed_conditions:
            return
        # G(R) is a group for every R: the conditions at M·M' and adj(M)·t
        # lie in the ideal of the conditions at M, M' and det·t - 1 (a Hopf
        # ideal), M the entry names with each a·m_i_j + b = 0 fixed to -b/a
        n, t = self.size, Poly(field, {(("1/det", 1),): field.one})
        M = [[Poly.read(field, "m_%d_%d" % (i, j)) for j in range(n)] for i in range(n)]
        for c in self.closed_conditions:
            m, *more = [m for m in c.terms if m] or [()]
            if not more and len(m) == 1 and m[0][1] == 1:
                i, j = map(int, m[0][0].split("_")[1:])
                M[i][j] = Poly.const(field, -c.terms.get((), field.zero) * field.inv(c.terms[m]))
        minor = lambda i, j: [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
        inv = [[_det(minor(j, i), one) * (-t if (i + j) % 2 else t) for j in range(n)]
               for i in range(n)]
        relations = [eval_at(c, self.entries(M), one) for c in self.closed_conditions]
        relations.append(_det(M, one) * t - one)
        M2, relations2 = _primed(M, relations, one)
        ideal = Reducer(relations + relations2)
        for mat in (mat_mul(M, M2), inv):
            at = self.entries(mat)
            if not all(ideal.is_zero(eval_at(c, at, one)) for c in self.closed_conditions):
                raise HCPError("G is not closed under products and inverses")

    def membership_over(self, R, gmat):
        """All closed conditions vanish at a matrix with entries in R."""
        at = self.entries(gmat)
        return all(eval_at(c, at, R.unit).is_zero() for c in self.closed_conditions)


def _poly_sums(pieces):
    """{key: the sum of x·y over the pieces (key, x, y)} for Polys: the
    Poly counterpart of algebra.sum_products."""
    sums = {}
    for key, x, y in pieces:
        p = x * y
        sums[key] = sums[key] + p if key in sums else p
    return sums


def _conjugation(mats, g, g_inv, expander, is_zero, zero, error, sums):
    """The matrix whose column m holds the expander coordinates of
    g M_m g^-1 for the m-th of the field matrices mats, over the ring with
    that zero test and zero (Polys modulo an ideal, or a superalgebra);
    HCPError(error) if one escapes the span.

    Entry (k, l) of g M g^-1 is the sum of g[k][i]·c·g^-1[j][l] over the
    nonzero entries (i, j, c) of M, the entries of g and g^-1 equal to
    zero skipped, so M is never lifted to the ring.  sums adds up the
    products x·y of the pieces (key, x, y) by key: algebra.sum_products
    over a superalgebra, _poly_sums for Polys."""
    n = len(g)
    # the entries other than zero of each column of g and each row of g^-1
    g_cols = [[(k, row[i]) for k, row in enumerate(g) if row[i] != zero] for i in range(n)]
    inv_rows = [[(l, y) for l, y in enumerate(row) if y != zero] for row in g_inv]
    cols = []
    for M in mats:
        pieces = []
        for i, row in enumerate(M):
            for j, c in enumerate(row):
                if c:
                    for k, x in g_cols[i]:
                        xc = x * c
                        pieces.extend(((k, l), xc, y) for l, y in inv_rows[j])
        entries = sums(pieces)
        vec = [entries.get((k, l), zero) for k in range(n) for l in range(n)]
        c, ok = expander.coords_generic(vec, lambda c, x: x * c, add, is_zero, zero)
        if not ok:
            raise HCPError(error)
        cols.append(c)
    return transpose(cols)


class HarishChandraPair:
    """G, V, bracket_VV and the [g,V] table derived from the action.

    action: module_matrices ("conjugation" mode: V realized by ambient
    matrices, G acting by g M g^-1) or action_expr ("matrix" mode: a t x t
    polynomial matrix in the group entry symbols, the identity by default).
    Both modes derive [g,V] one way, by _differentiate at the group's
    tangent points; gv and apply_gv read it, and gamma reads the action
    rho(X) of a Lie element off it.
    row_parities: parities of the rows of a matrix realization, needed by
    the supermatrix oracle (None when there is none).  Only module
    matrices take them, and HCPError is raised unless each Lie basis
    matrix is even and each module matrix odd for them.  With them [V,V] is
    derived (_anticommutators) and a given bracket_vv only checked; without
    them bracket_vv (None: 0) is [V,V], completed symmetrically.  Every
    table and the assembled Lie superalgebra are built here, once.
    straightened and field_rho start empty and are filled by gamma on
    first use, keyed by pair data alone (a PBW sequence; the entries of a
    field point), so every coefficient algebra shares them; ground is the
    algebra K over which field_rho is computed.
    """

    def __init__(self, group, module_labels, bracket_vv=None, *, module_matrices=None,
                 action_expr=None, row_parities=None, name=None):
        self.group = group
        self.field = group.field
        self.module_labels = tuple(module_labels)
        self.name = name
        self.row_parities = (
            None if row_parities is None else tuple(int(p) for p in row_parities)
        )
        t = len(self.module_labels)
        if module_matrices is not None:
            self.mode = "conjugation"
            self.module_matrices = [tuple(tuple(x) for x in m) for m in module_matrices]
            self.module_expander = BasisExpander(
                self.field, [_flatten(m) for m in self.module_matrices]
            )
            rp = self.row_parities
            if rp is not None and not (
                    all(is_homogeneous(X, 0, rp) for X in group.lie_basis)
                    and all(is_homogeneous(M, 1, rp) for M in self.module_matrices)):
                raise HCPError("the row parities do not make the Lie basis even "
                               "and the module matrices odd")
        else:
            if self.row_parities is not None:
                raise HCPError("row parities need module matrices")
            self.mode = "matrix"
            if action_expr is None:
                action_expr = [[int(i == j) for j in range(t)] for i in range(t)]
            self.action_expr = [
                [Poly.read(self.field, e, group.entry_names) for e in row] for row in action_expr
            ]
        self._zero_lie = tuple([self.field.zero] * group.lie_dim)
        self._vv = {key: tuple(coords) for key, coords in (bracket_vv or {}).items()}
        # symmetric completion for unspecified mirror entries
        for (i, j) in list(self._vv):
            self._vv.setdefault((j, i), self._vv[(i, j)])
        if self.row_parities is not None:
            self._vv = self._anticommutators(None if bracket_vv is None else self._vv)
        self._zero_v = tuple([self.field.zero] * t)
        self._gv = {key: v for key, v in self._differentiate().items() if any(v)}
        l = group.lie_dim
        brackets = dict(group.lie_table)  # LieSuperAlgebra drops zero coordinates
        for (k, i), coords in self._gv.items():
            brackets[(k, l + i)] = {l + m: c for m, c in enumerate(coords)}
            brackets[(l + i, k)] = {l + m: -c for m, c in enumerate(coords)}
        for (i, j), coords in self._vv.items():
            brackets[(l + i, l + j)] = dict(enumerate(coords))
        self._lie = LieSuperAlgebra(self.field, ["x%d" % (k + 1) for k in range(l)]
                                    + list(self.module_labels), [0] * l + [1] * t, brackets,
                                    check=False)
        self.ground = ground_algebra(self.field)
        self.straightened = {}
        self.field_rho = {}

    def _anticommutators(self, given):
        """[V,V] of a supermatrix realisation, {(i, j): the Lie coordinates
        of M_i·M_j + M_j·M_i} over the pairs where it is not 0.  HCPError
        when one leaves Lie(G), or when the caller's table given (None when
        there is none) differs from it, naming the first (i, j)."""
        try:
            table = bracket_table(self.group.lie_expander, self.module_matrices, [1] * self.t)
        except HCPError:
            raise HCPError("an anticommutator of module matrices leaves Lie(G)") from None
        zero = self._zero_lie
        vv = {key: tuple(dense(terms, len(zero), self.field.zero)) for key, terms in table.items()}
        if given is not None:
            for key in sorted(set(given) | set(vv)):
                if given.get(key, zero) != vv.get(key, zero):
                    raise HCPError("bracket_vv at (%d,%d) differs from the derived [V,V]" % key)
        return vv

    def _differentiate(self):
        """{(k, i): [x_k, v_i]} in either mode: column i of the
        eps-coefficient of rho(I + eps X_k), at the group's tangent points
        over K[eps]/eps^2.  For module matrices that coefficient is [X_k, M],
        as (I + eps X) M (I - eps X) = M + eps [X, M].  HCPError when rho(I)
        is not the identity (always the identity for module matrices)."""
        field, t = self.field, self.t
        E, ident, pairs = self.group.tangent
        one, zero = E.unit, E.zero()
        rho = self.rho_over(E, ident, ident)
        if any(x != (one if m == i else zero)
               for m, row in enumerate(rho) for i, x in enumerate(row)):
            raise HCPError("the action at the identity is not the identity")
        gv = {}
        for k, (plus, minus) in enumerate(pairs):
            rho = self.rho_over(E, plus, minus)
            for i in range(t):
                gv[(k, i)] = tuple(rho[m][i].terms.get(1, field.zero) for m in range(t))
        return gv

    @property
    def t(self):
        return len(self.module_labels)

    @property
    def lie_dim(self):
        return self.group.lie_dim

    def vv(self, i, j):
        return self._vv.get((i, j), self._zero_lie)

    def gv(self, k, i):
        return self._gv.get((k, i), self._zero_v)

    def _combine(self, coeffs, rows, width):
        """sum c·row over the nonzero coefficients c and their rows."""
        out = [self.field.zero] * width
        for c, row in zip(coeffs, rows):
            if c:
                out = [x + c * s for x, s in zip(out, row)]
        return tuple(out)

    def apply_gv(self, lie_coords, i):
        """[x, v_i] in V coordinates for x given in Lie coordinates."""
        return self._combine(lie_coords, (self.gv(k, i) for k in range(self.lie_dim)), self.t)

    def apply_vv(self, v_coords, j):
        """[w, v_j] in Lie coordinates for w given in V coordinates."""
        return self._combine(v_coords, (self.vv(i, j) for i in range(self.t)), self.lie_dim)

    # -- symbolic action ------------------------------------------------

    def _act(self, gmat, one):
        """action_expr at the entries of gmat, in the ring whose unit is one
        (matrix mode)."""
        at = self.group.entries(gmat)
        return [[eval_at(e, at, one) for e in row] for row in self.action_expr]

    def rho_symbolic(self, point):
        """t x t polynomial matrix of the V action of a generic point."""
        if self.mode == "matrix":
            return self._act(point.matrix, Poly.const(self.field, self.field.one))
        return _conjugation(self.module_matrices, point.matrix, point.inverse, self.module_expander,
                            point.reducer.is_zero, Poly(self.field),
                            "generic action escapes the module", _poly_sums)

    def ad_symbolic(self, point):
        g = self.group
        return _conjugation(g.lie_basis, point.matrix, point.inverse, g.lie_expander,
                            point.reducer.is_zero, Poly(self.field),
                            "adjoint action escapes the Lie algebra", _poly_sums)

    # -- coefficient-algebra action -------------------------------------

    def rho_over(self, R, gmat, gmat_inv):
        """t x t matrix over R of the module action of a concrete point."""
        if self.mode == "matrix":
            return self._act(gmat, R.unit)
        return _conjugation(self.module_matrices, gmat, gmat_inv, self.module_expander,
                            Element.is_zero, R.zero(), "action escapes the module over R",
                            partial(sum_products, R))

    # -- assembled Lie superalgebra -------------------------------------

    def assembled_lie(self):
        """Lie(G) ⊕ V as a Lie superalgebra, built with the pair from
        lie_table, [g,V] and [V,V].  validate_pair runs its axiom sweep."""
        return self._lie


def _represents(pair, point):
    """Whether rho(g) rho(h) = rho(gh) for a matrix-mode pair, g the generic
    point and h its primed copy, modulo the relations of both."""
    one = Poly.const(pair.field, pair.field.one)
    g = point.matrix
    h, relations = _primed(g, point.relations, one)
    reducer = Reducer(point.relations + relations)
    lhs = mat_mul(pair._act(g, one), pair._act(h, one))
    rhs = pair._act(mat_mul(g, h), one)
    return all(reducer.is_zero(x - y) for x, y in zip(_flatten(lhs), _flatten(rhs)))


def validate_pair(pair):
    """Conditions (a)(b)(c) plus the assembled-Lie cross-check."""
    report = AxiomReport()
    field = pair.field
    t = pair.t

    for i in range(t):
        for j in range(t):
            if pair.vv(i, j) != pair.vv(j, i):
                report.fail(
                    "(a) bracket not symmetric at (%s,%s)"
                    % (pair.module_labels[i], pair.module_labels[j])
                )

    zero = Poly(field)
    for idx, point in enumerate(pair.group.generic_points):
        try:
            rho = pair.rho_symbolic(point)
            ad = pair.ad_symbolic(point)
        except HCPError as exc:
            report.fail("(b) %s (generic point %d)" % (exc, idx))
            continue
        # g -> (M -> g M g^-1) is a representation once g g^-1 = I, which
        # the group model checks; an action matrix has to be checked
        if pair.mode == "matrix" and not _represents(pair, point):
            report.fail("(b) the action is not a representation: rho(g) rho(h) is not rho(gh) "
                        "(generic point %d)" % idx)
        for i in range(t):
            for j in range(i, t):
                for m in range(pair.lie_dim):
                    lhs = zero
                    for k in range(t):
                        for l in range(t):
                            c = pair.vv(k, l)[m]
                            if c:
                                lhs = lhs + rho[k][i] * rho[l][j] * c
                    rhs = zero
                    for k in range(pair.lie_dim):
                        c = pair.vv(i, j)[k]
                        if c:
                            rhs = rhs + ad[m][k] * c
                    if not point.reducer.is_zero(lhs - rhs):
                        report.fail(
                            "(b) equivariance fails at (%s,%s), generic point %d"
                            % (pair.module_labels[i], pair.module_labels[j], idx)
                        )
                        break
                else:
                    continue
                break

    # (c): coefficient of each cubic monomial in [v,v]·v for v = sum c_i v_i
    for multiset in combinations_with_replacement(range(t), 3):
        acc = [field.zero] * t
        for (i, j, k) in set(permutations(multiset)):
            term = pair.apply_gv(pair.vv(i, j), k)
            acc = [a + x for a, x in zip(acc, term)]
        if any(acc):
            report.fail(
                "(c) cubic identity fails on coefficient of %s"
                % "*".join(pair.module_labels[x] for x in multiset)
            )

    if report.holds:
        for f in pair.assembled_lie().check_axioms().failures:
            report.fail("assembled Lie superalgebra: %s" % f)
    return report


class Submodule:
    def __init__(self, pair, sub):
        self.pair = pair
        self.sub = sub

    def check_stable(self):
        """rho(g)-stability for every generic point, symbolically."""
        pair = self.pair
        for point in pair.group.generic_points:
            cols = [sparse(col) for col in transpose(pair.rho_symbolic(point))]
            for row in self.sub.rows:
                vec = dense(apply_columns(cols, sparse(row)), pair.t, Poly(pair.field))
                if not all(point.reducer.is_zero(x) for x in self.sub.reduce(vec)):
                    return False
        return True


def _kernel(field, n, blocks):
    """The x in K^n with sum_i x_i·cols[i] = 0 for every list cols of n
    columns in blocks, as a Subspace."""
    rows = [row for cols in blocks for row in transpose(cols) if any(row)]
    return kernel(field, n, rows)


def subordinated_closure(pair, lie_r):
    """Largest submodule with [W,V] in Lie(R) and [[W,V],V] in W, by fixpoint.

    lie_r: Subspace of Lie(G) coordinates.  Stabilizes in at most dim V
    steps; both containments are re-verified on the result.
    """
    field, t = pair.field, pair.t
    # W0 = {w : [w, V] in Lie(R)}: column i is the residue of [v_i, v_j]
    W = _kernel(field, t, ([lie_r.reduce(pair.vv(i, j)) for i in range(t)] for j in range(t)))
    for _ in range(t + 1):
        new = W.intersect(_kernel(field, t, (
            [W.reduce(pair.apply_gv(pair.vv(i, j), k)) for i in range(t)]
            for j in range(t) for k in range(t)
        )))
        if new == W:
            break
        W = new
    else:
        raise HCPError("fixpoint failed to stabilize within dim V steps")

    for row in W.rows:
        brs = [pair.apply_vv(row, j) for j in range(t)]
        if not all(lie_r.contains(br) for br in brs):
            raise HCPError("result violates [W,V] in Lie(R)")
        if not all(W.contains(pair.apply_gv(br, k)) for br in brs for k in range(t)):
            raise HCPError("result violates [[W,V],V] in W")
    return Submodule(pair, W)


def r_radical(pair, lie_r):
    """(W_R, Lie(H_R)) with Lie(H_R) = {x in Lie(R) : x·V in W_R}: Lie(R)
    meets the kernel of x -> ([x, v_j] mod W_R)_j."""
    t = pair.t
    W = subordinated_closure(pair, lie_r)
    lie_hr = lie_r.intersect(_kernel(pair.field, pair.lie_dim, (
        [W.sub.reduce(pair.gv(k, j)) for k in range(pair.lie_dim)] for j in range(t)
    )))
    # [W_R, V] must land in Lie(H_R)
    for row in W.sub.rows:
        for j in range(t):
            if not lie_hr.contains(pair.apply_vv(row, j)):
                raise HCPError("[W_R, V] escapes Lie(H_R)")
    return W, lie_hr


def brute_force_largest_subordinated(pair, lie_r):
    """Oracle for small dims: best coordinate-span submodule (dim V <= 4)."""
    field = pair.field
    t = pair.t
    if t > 4:
        raise HCPError("oracle restricted to dim V <= 4")
    best = Subspace(field, t)
    for mask in range(1 << t):
        vecs = []
        for i in range(t):
            if mask >> i & 1:
                v = [field.zero] * t
                v[i] = field.one
                vecs.append(v)
        W = Subspace(field, t, vecs)
        ok = True
        for row in W.rows:
            for j in range(t):
                br = pair.apply_vv(row, j)
                if not lie_r.contains(br):
                    ok = False
                    break
                for k in range(t):
                    if not W.contains(pair.apply_gv(br, k)):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok and W.dim > best.dim:
            best = W
    return best


def pseudoabelian_example(field, n):
    """V = W + W* with [phi_i, w_j] = delta_ij x, x central acting as 0."""
    one, zero = field.one, field.zero
    x = [[zero, one], [zero, zero]]
    point = GenericPoint([[1, "s"], [0, 1]], [[1, "-s"], [0, 1]], [])
    group = MatrixGroupModel(
        field,
        2,
        ["m_0_0 - 1", "m_1_1 - 1", "m_1_0"],
        [x],
        [point],
        name="Ga",
    )
    labels = ["w%d" % (i + 1) for i in range(n)] + ["phi%d" % (i + 1) for i in range(n)]
    bracket_vv = {(n + i, i): (one,) for i in range(n)}
    return HarishChandraPair(group, labels, bracket_vv, name="pseudoabelian(%d)" % n)


def check_exact_sequence(inner, w_to_v, lie_embed, mid, outer, v_to_u,
                         *, even_level_exact=True):
    """0 -> W -> V -> U -> 0 plus the group-level conditions.

    inner, mid, outer: pairs.  w_to_v: matrix (rows indexed by mid.V) of
    the embedding; lie_embed: Lie(inner) basis expressed in Lie(mid)
    coordinates; v_to_u: matrix (rows indexed by outer.V) of the
    projection.  Group-level (fppf) exactness of the even parts is not
    decidable here and is passed in as fixture data.
    """
    report = AxiomReport()
    field = mid.field
    if not even_level_exact:
        report.fail("even-level group exactness flagged false by fixture")

    t_in, t_mid, t_out = inner.t, mid.t, outer.t
    if w_to_v and (len(w_to_v) != t_mid or any(len(r) != t_in for r in w_to_v)):
        raise HCPError("embedding matrix has wrong shape")
    if v_to_u and (len(v_to_u) != t_out or any(len(r) != t_mid for r in v_to_u)):
        raise HCPError("projection matrix has wrong shape")

    w_cols = [tuple(w_to_v[i][j] for i in range(t_mid)) for j in range(t_in)]
    if rank(w_cols, field) != t_in:
        report.fail("(1) W -> V is not injective")
    proj_rows = [tuple(r) for r in v_to_u]
    if rank(proj_rows, field) != t_out:
        report.fail("(1) V -> U is not surjective")
    ker = kernel(field, t_mid, proj_rows)
    img = Subspace(field, t_mid, w_cols)
    if ker != img:
        report.fail("(1) kernel of V -> U differs from the image of W")

    W = Submodule(mid, img)
    if not W.check_stable():
        report.fail("(2a) W is not G-stable")

    # (2b) inner generic points act as identity on V/W
    one = Poly.const(field, field.one)
    for point in inner.group.generic_points:
        rho = mid.rho_symbolic(point)
        for j in range(t_mid):
            vec = [rho[m][j] - one if m == j else rho[m][j] for m in range(t_mid)]
            if not all(point.reducer.is_zero(x) for x in img.reduce(vec)):
                report.fail("(2b) inner group moves V/W at %s" % mid.module_labels[j])
                break

    lie_inner = Subspace(field, mid.lie_dim, [tuple(r) for r in lie_embed])
    for row in img.rows:
        for j in range(t_mid):
            if not lie_inner.contains(mid.apply_vv(row, j)):
                report.fail("(2c) [V, W] escapes Lie(inner)")
                break
    return report
