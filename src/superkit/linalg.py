"""Exact linear algebra over a Field.

Vectors are tuples/lists of field scalars, matrices are lists of rows; a
sparse vector is a dict {index: nonzero entry}, and a sparse matrix its
row_entries.  supercommutator is the one matrix supercommutator of superkit,
and bracket_table, its one caller, the one builder of matrix bracket tables.
Everything is deterministic: pivots are chosen left to right, echelon
bases are reduced row echelon forms, complements are taken on non-pivot
coordinates in index order.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, not_


def rref(rows, field):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots, rank = [], 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [inv * x if x else x for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b if b else a for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return [tuple(r) for r in rows[:rank]], pivots


def reduce_by(rows, pivots, vec):
    """Residue of vec after eliminating the pivot p of each row in turn,
    for rows with row[p] = 1 that vanish at the pivots of the rows before
    them (an RREF basis, or one grown a residue at a time)."""
    vec = list(vec)
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            vec = [a - c * b if b else a for a, b in zip(vec, row)]
    return tuple(vec)


class Subspace:
    """A subspace of field^n stored as an RREF basis."""

    def __init__(self, field, dim_ambient, vectors=()):
        self.field = field
        self.dim_ambient = dim_ambient
        self.rows, self.pivots = rref(list(vectors), field)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residue of vec after eliminating all pivot coordinates."""
        return reduce_by(self.rows, self.pivots, vec)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows)

    def add_vectors(self, vectors):
        return Subspace(self.field, self.dim_ambient, list(self.rows) + list(vectors))

    def intersect(self, other):
        # ker of [basis_self | basis_other] stacked gives intersection coords.
        if not self.rows or not other.rows:
            return Subspace(self.field, self.dim_ambient)
        cols = len(self.rows) + len(other.rows)
        mat = []
        for i in range(self.dim_ambient):
            mat.append([r[i] for r in self.rows] + [r[i] for r in other.rows])
        vecs = []
        for sol in nullspace(mat, self.field, cols):
            v = [self.field.zero] * self.dim_ambient
            for c, row in zip(sol[: len(self.rows)], self.rows):
                v = [a + c * b for a, b in zip(v, row)]
            vecs.append(v)
        return Subspace(self.field, self.dim_ambient, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.dim_ambient == other.dim_ambient
            and self.rows == other.rows
        )

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.dim_ambient)


def nullspace(rows, field, ncols):
    """Basis of the right kernel of the matrix (list of rows with ncols
    columns)."""
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [field.zero] * ncols
        v[fcol] = field.one
        for row, p in zip(red, pivots):
            v[p] = -row[fcol]
        basis.append(tuple(v))
    return basis


def kernel(field, n, rows):
    """The x in field^n with row·x = 0 for every row, as a Subspace: no
    rows give the whole space, and n = 0 the zero space."""
    return Subspace(field, n, nullspace(rows, field, n))


def solve(rows, rhs, field):
    """One solution x of A x = rhs, or None.  A given as list of rows."""
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    for row, p in zip(red, pivots):
        if p == n:
            return None
    x = [field.zero] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return tuple(x)


def mat_mul(a, b):
    """Matrix product over any ring whose entries support + and *: field
    scalars, Polys or Elements of a coefficient algebra."""
    cols = list(zip(*b))
    return [[reduce(add, [x * y for x, y in zip(row, col)]) for col in cols] for row in a]


def kron(u, v, field):
    """Coordinates of u ⊗ v on the product basis: entry a·len(v) + b is u[a]·v[b]."""
    n = len(v)
    out = [field.zero] * (len(u) * n)
    for a, x in enumerate(u):
        if x:
            for b, y in enumerate(v):
                if y:
                    out[a * n + b] = x * y
    return out


def add_scaled(out, c, terms):
    """Add c·terms into the accumulator dict out, for a scalar c and a
    sparse vector terms; cancelled sums are kept, and the caller drops
    them once, after the last addition."""
    get = out.get
    for k, s in terms.items():
        v = get(k)
        out[k] = c * s if v is None else v + c * s


def row_entries(mat):
    """The nonzero entries of a matrix row by row: [[(column, entry)]]."""
    return [[(c, x) for c, x in enumerate(row) if x] for row in mat]


def supercommutator(a, b, sign, field):
    """The nonzero entries {r·size + c: x} of a·b - sign·b·a (the
    commutator for sign 1, the anticommutator for -1) for square matrices
    given by their row_entries."""
    size = len(a)
    out = {}
    for x_rows, y_rows, s in ((a, b, field.one), (b, a, -sign)):
        for r, row in enumerate(x_rows):
            for k, x in row:
                add_scaled(out, s * x, {r * size + c: y for c, y in y_rows[k]})
    return {t: v for t, v in out.items() if v}


def bracket_table(expander, matrices, parities):
    """{(i, j): terms} of the nonzero supercommutators M_i·M_j - (-1)^{p_i p_j}
    M_j·M_i of square matrices of parities p, expanded by a BasisExpander,
    which raises when one leaves its span."""
    field, table = expander.field, {}
    one, minus_one = field.one, -field.one
    rows = [row_entries(m) for m in matrices]
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            sign = minus_one if parities[i] and parities[j] else one
            terms = expander.terms_field(supercommutator(x, y, sign, field))
            if terms:
                table[(i, j)] = terms
    return table


def apply_columns(cols, vec):
    """sum_j x·cols[j] over the entries j: x of vec: the image of vec under
    the linear map with columns cols.  vec, every column and the result
    are sparse vectors."""
    out = {}
    for j, x in vec.items():
        add_scaled(out, x, cols[j])
    return {t: v for t, v in out.items() if v}


def apply_tensor_columns(cols, flat):
    """The image {(u, v): c} of a sparse vector {s·n + t: c} of V ⊗ V,
    n = len(cols), under the linear map with columns cols on each factor."""
    n = len(cols)
    # its own loop: the keys are the pairs (u, v) of two column entries
    out = {}
    get = out.get
    for st, c in flat.items():
        s, t = divmod(st, n)
        col_t = cols[t].items()
        for u, x in cols[s].items():
            cx = c * x
            for v, y in col_t:
                w = get((u, v))
                out[(u, v)] = cx * y if w is None else w + cx * y
    return {key: w for key, w in out.items() if w}


def sparse(vec):
    """{index: entry} of the nonzero entries of a dense vector."""
    return {i: x for i, x in enumerate(vec) if x}


def dense(vec, size, zero):
    """The dense list of `size` entries of a sparse vector {index: entry}."""
    out = [zero] * size
    for i, x in vec.items():
        out[i] = x
    return out


def identity_matrix(n, field):
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def invert_matrix(a, field):
    """Inverse of a square matrix over the field, or None if singular."""
    n = len(a)
    aug = [list(row) + unit for row, unit in zip(a, identity_matrix(n, field))]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return [list(row[n:]) for row in red]


def rank(rows, field):
    return len(rref(rows, field)[0])


class BasisExpander:
    """Coordinates in the span of fixed independent K-vectors, through a
    pivot inverse computed once; coords_generic works over any commutative
    ring containing K and checks the vector by rebuilding it.  coords_field
    (dense) and terms_field (sparse) are its K cases; all three read only
    the support of the vector, through _expand.  Subclasses set `error` to
    their own exception."""

    error = ValueError

    def __init__(self, field, basis_vectors):
        self.field = field
        basis = [tuple(v) for v in basis_vectors]
        red, pivots = rref(basis, field)
        if len(red) != len(basis):
            raise self.error("expansion basis is not independent")
        pinv = invert_matrix([[b[p] for b in basis] for p in pivots], field) if basis else []
        # coordinate i is the sum of c * vec[p] over the (i, c) in readers[p]
        self.readers = {p: [(i, row[k]) for i, row in enumerate(pinv) if row[k]]
                        for k, p in enumerate(pivots)}
        # the nonzero entries (t, b[t]) of each basis vector b
        self.supports = [[(t, x) for t, x in enumerate(b) if x] for b in basis]

    def coords_field(self, vec):
        return tuple(dense(self.terms_field(sparse(vec)), len(self.supports), self.field.zero))

    def terms_field(self, vec):
        """The nonzero coordinates {i: c}, ascending in i, of a sparse
        K-vector vec = {index: entry}; only its support is read."""
        coords, ok = self._expand(vec.items(), mul, add, not_)
        if not ok:
            raise self.error("vector escapes the expansion basis")
        return {i: coords[i] for i in sorted(coords) if coords[i]}

    def coords_generic(self, vec, scal, add, is_zero, zero):
        """(coords, ok) for vec over a commutative ring containing K whose
        zero is `zero`.  Only the support of vec, its entries other than
        `zero`, is read."""
        # bool first, the cheap test of a scalar or Poly; an Element is true
        support = [(t, x) for t, x in enumerate(vec) if x and x != zero]
        coords, ok = self._expand(support, scal, add, is_zero)
        return [coords.get(i, zero) for i in range(len(self.supports))], ok

    def _expand(self, support, scal, add, is_zero):
        """({i: coordinate}, ok) for the vector with the entries (t, x) of
        support, the one expansion routine: the vector is rebuilt from the
        sparse basis vectors and compared on the union of the two supports.
        An entry can be nonzero and yet vanish in the ring (a Poly in an
        ideal), so each compared entry is tested with is_zero, rebuilt or
        not."""
        coords = {}
        for t, x in support:
            for i, c in self.readers.get(t, ()):
                term = scal(c, x)
                coords[i] = add(coords[i], term) if i in coords else term
        recon = {}
        for i, y in coords.items():
            for t, b in self.supports[i]:
                term = scal(b, y)
                recon[t] = add(recon[t], term) if t in recon else term
        minus_one = -self.field.one
        for t, x in support:
            r = recon.pop(t, None)
            if not is_zero(x if r is None else add(x, scal(minus_one, r))):
                return coords, False
        return coords, all(is_zero(r) for r in recon.values())
