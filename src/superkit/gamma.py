"""Normal-form arithmetic in the group Gamma(R) built from a Harish-Chandra pair.

Elements are words in the generators
    e(a, v)   a odd in R, v a basis vector of V,
    f(b, x)   b even square-zero in R, x in Lie(G),
and even group points g.  Every element has the unique normal form
g · e(a_1, v_1) ··· e(a_t, v_t) with the e-chain in the declared basis
order.  Rewriting uses the defining relations:

  (1) e(a,v) e(a',v') = f(-aa', [v,v']) e(a',v') e(a,v)
  (2) f(b,x) e(a,v) f(b,x)^{-1} e(a,v)^{-1} = e(ba, [x,v])
  (3) [f(b,x), f(b',x')] = f(bb', [x,x'])
  (4) e(a,v) e(a',v)  = f(-aa', (1/2)[v,v]) e(a+a', v)
  (5) g e(a,v) g^{-1} = e(a, Ad(g)v)

Who checks what.  normalize alone checks tokens: a TokenError (a GammaError)
names the token's position and kind when an e-coefficient is not odd, an
f-coefficient not even of square zero, a token of no known kind, or a group
point has an odd entry, lies outside G or is singular (_group_point: once
per pair for a field point, on every token for a point over R).  A normal
form is a token of its own, as multiply and inverse pass them: normalize
checks that its pair and R are the word's and trusts the rest, a product of
checked factors.  GammaElement() checks nothing; hcp.MatrixGroupModel checks
once, on formal entries, that G(R) is closed under products and inverses for
every R.

f-factors and group points are absorbed into the even part immediately as
matrix factors; moving them left conjugates the e-chain via (5) (clean,
because the conjugated coefficients all share the same odd factor whose
square is zero).  The identity leaves the chain as it is, since a pair
checks rho(I) = I when it is built.  A group point with field entries
conjugates it by the field matrix rho at (g^-1, g), which the pair keeps
once computed (_field_rho: g checked and inverted over K by _group_point,
then one rho_over over K), so every chain entry costs one scale and every
coefficient algebra R shares the matrix.  A point with entries in R, a
caller's or a normal form's even part, may have nilpotent entries; it
conjugates the chain through rho_over over R.  An f-factor I + bX has
b^2 = 0, so it conjugates the chain in closed form,
Ad((I + bX)^{-1}) = I - b·rho(X): column i of rho(X) is [X, v_i], which
the pair's [g,V] table gives (HarishChandraPair.apply_gv).

Products over R: no matrix of the form I + a·M is multiplied in full.
An e- or f-token multiplies the accumulator A (g in normalize, the
product in the supermatrix oracle) by _times_unit_plus: column j of A
gains column i of A times a·c for each nonzero entry (i, j, c) of the
field matrix M.  A g-token while g is still the identity replaces it, and
the inverse of a normal form's even part is computed only when there is
an e-chain to conjugate.  The remaining products of two matrices over R
(rmat_mul) are algebra.mat_mul_over; rho_over's g M g^-1 and the
enveloping oracle's product hand their coefficient products to
algebra.sum_products.  All of them contract every product of coefficients
into one terms dict per output entry or PBW monomial and make an Element
only for the finished sum.

Termination: every (1)/(4) correction coefficient has strictly larger
degree in the odd generators of R, and the odd part of R generates a
nilpotent ideal.
"""

from __future__ import annotations

from .algebra import AlgebraError, Element, mat_mul_over, sum_products
from .algebra import lift_matrix as _lift_field_matrix


class GammaError(ValueError):
    pass


class TokenError(GammaError):
    """A token of a word that is not in Gamma(R)."""


_MAX_REWRITE_STEPS = 100000


def rmat_identity(R, n):
    # Elements are immutable, so every entry shares one unit and one zero
    one, zero = R.unit, R.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rmat_mul(R, A, B):
    """Product of two matrices over R, by the sparse kernel
    algebra.mat_mul_over."""
    return mat_mul_over(R, A, B)


def _row_over(R, width, pieces):
    """The row whose entry k is the sum of x·y over the pieces (k, x, y),
    by algebra.sum_products."""
    sums, zero = sum_products(R, pieces), R.zero()
    return [sums[k] if k in sums else zero for k in range(width)]


def rmat_inverse(R, A):
    """Gaussian elimination; pivots must be invertible in R (R local here).

    Row operations act from the left.  The pivot row is scaled and each
    other row updated by one algebra.sum_products call, over the nonzero
    entries only, so the zeros of the identity half cost nothing and a c·1
    factor scales instead of multiplying."""
    n = len(A)
    ident = rmat_identity(R, n)
    aug = [list(row) + ident[i] for i, row in enumerate(A)]
    unit = R.unit
    for col in range(n):
        piv, piv_inv = None, None
        for r in range(col, n):
            try:
                piv_inv = aug[r][col].invert()
                piv = r
                break
            except AlgebraError:
                continue
        if piv is None:
            raise GammaError("even part is not invertible over R")
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = _row_over(
            R, 2 * n, ((k, piv_inv, y) for k, y in enumerate(aug[col]) if y.terms)
        )
        prow = [(k, y) for k, y in enumerate(aug[col]) if y.terms]
        for r in range(n):
            c = aug[r][col]
            if r != col and c.terms:
                neg = -c
                aug[r] = _row_over(R, 2 * n, [
                    *((k, x, unit) for k, x in enumerate(aug[r]) if x.terms),
                    *((k, neg, y) for k, y in prow),
                ])
    return [row[n:] for row in aug]


def _times_unit_plus(R, A, a, entries):
    """A·(I + a·M) over R for the field matrix M that is the sum of its
    entries (i, j, c), so only the nonzero entries of M need be given.

    Column j of A gains column i of A times a·c: one algebra.sum_products
    call over the products A[r][i]·(a·c), in that order (A may have odd
    entries), then one addition per touched entry.  A itself is left as
    it is."""
    pieces = []
    for i, j, c in entries:
        ac = a.scale(c)
        if ac.terms:
            pieces.extend(((r, j), row[i], ac) for r, row in enumerate(A) if row[i].terms)
    out = [list(row) for row in A]
    for (r, j), s in sum_products(R, pieces).items():
        out[r][j] = out[r][j] + s
    return out


def _has_field_entries(hmat):
    """Whether the matrix of a g token has field entries, not entries in R."""
    return bool(hmat) and not isinstance(hmat[0][0], Element)


def _lift(R, hmat):
    """The matrix of a g token as rows over R; field entries are lifted."""
    if _has_field_entries(hmat):
        return _lift_field_matrix(R, hmat)
    return [list(r) for r in hmat]


def _f_entries(pair, lie_coords):
    """The entries c·X_k[i][j] of X = sum lie_coords_k X_k, one for each
    nonzero coordinate c and nonzero entry of X_k."""
    return [
        (i, j, c * x)
        for c, X in zip(lie_coords, pair.group.lie_basis) if c
        for i, row in enumerate(X) for j, x in enumerate(row) if x
    ]


class GammaElement:
    """Normal form: even part matrix over R plus odd e-chain coefficients.

    trace: an equivalent generator-token sequence for the even part,
    kept for oracle evaluation; it does not participate in equality.
    """

    __slots__ = ("pair", "R", "even", "coords", "trace")

    def __init__(self, pair, R, even, coords, trace=None):
        self.pair = pair
        self.R = R
        self.even = tuple(tuple(row) for row in even)
        self.coords = tuple(coords)
        self.trace = tuple(trace) if trace is not None else None

    def __eq__(self, other):
        return (
            isinstance(other, GammaElement)
            and self.pair is other.pair
            and self.R is other.R
            and self.even == other.even
            and self.coords == other.coords
        )

    def tokens(self):
        toks = [("g", self.even)]
        for i, a in enumerate(self.coords):
            if not a.is_zero():
                toks.append(("e", a, i))
        return toks

    def word_tokens(self):
        """Generator tokens usable by the enveloping oracle (trace + e-chain)."""
        if self.trace is None:
            raise GammaError("element carries no generator trace")
        toks = list(self.trace)
        for i, a in enumerate(self.coords):
            if not a.is_zero():
                toks.append(("e", a, i))
        return toks


def identity(pair, R):
    return normalize(pair, R, [])


def _conjugate_chain(pair, R, word, g, g_inv):
    """g e(a, v_i) g^{-1} = e(a, Ad(g) v_i), expanded on the basis, for
    g given together with its inverse.

    The expansion of one e into several basis e's is harmless: all share
    the odd factor a, so their mutual corrections vanish (a^2 = 0)."""
    rho = pair.rho_over(R, g, g_inv)
    out = []
    for (a, idx) in word:
        for m in range(pair.t):
            c = rho[m][idx]
            if c.is_zero():
                continue
            coeff = R.multiply(c, a)
            if not coeff.is_zero():
                out.append((coeff, m))
    return out


def _group_point(pair, R, g):
    """g^-1, or TokenError unless g has even entries and is an invertible point of G."""
    if any(x.parity() != 0 for row in g for x in row):
        raise TokenError("even part has an odd entry")
    if not pair.group.membership_over(R, g):
        raise TokenError("even part fails the membership predicate")
    try:
        return rmat_inverse(R, g)
    except GammaError:
        raise TokenError("group point is not invertible") from None


def _field_rho(pair, point):
    """rho at (g^-1, g) for a point g of G with field entries, as the
    nonzero entries (m, c) of each column: the field matrix by which
    _conjugate_chain would conjugate an e-chain past g.

    The pair keeps it, keyed by the entries of g.  On the first call g is
    checked over the pair's ground algebra K by _group_point, whatever the
    word holds before it."""
    key = tuple(tuple(row) for row in point)
    cols = pair.field_rho.get(key)
    if cols is None:
        K = pair.ground
        g = _lift_field_matrix(K, key)
        rho = pair.rho_over(K, _group_point(pair, K, g), g)
        cols = pair.field_rho[key] = tuple(
            tuple((m, c) for m, row in enumerate(rho) if (c := row[idx].terms.get(0)))
            for idx in range(pair.t))
    return cols


def _conjugate_chain_f(pair, R, word, b, lie_coords):
    """_conjugate_chain for h = I + bX, X = sum c_k X_k, in closed form.

    b^2 = 0 gives rho(h^{-1}) = I - b·rho(X) exactly, and column idx of
    rho(X) is [X, v_idx] = pair.apply_gv(lie_coords, idx), read once per
    call and idx.  So each chain entry costs one product b·a and one scale
    per nonzero entry of the column.  The terms and their order are those
    of _conjugate_chain."""
    cols = {}
    out = []
    for (a, idx) in word:
        if idx not in cols:
            cols[idx] = pair.apply_gv(lie_coords, idx)
        ba = R.multiply(b, a)
        for m, s in enumerate(cols[idx]):
            if m == idx:
                coeff = a - ba.scale(s) if s else a
            elif s:
                coeff = ba.scale(-s)
            else:
                continue
            if not coeff.is_zero():
                out.append((coeff, m))
    return out


def normalize(pair, R, tokens, strategy="leftmost"):
    """Rewrite a generator word to its unique normal form."""
    n = pair.group.size
    g = ident = rmat_identity(R, n)
    trace = []
    word = []

    def absorb_f(b, lie_coords, left):
        nonlocal g
        g = _times_unit_plus(R, g, b, _f_entries(pair, lie_coords))
        trace.append(("f", b, lie_coords))
        return _conjugate_chain_f(pair, R, left, b, lie_coords)

    for pos, tok in enumerate(tokens, 1):
        kind = "normal form" if isinstance(tok, GammaElement) else tok[0]
        try:
            if kind == "e":
                _, a, idx = tok
                if not a.is_zero() and a.parity() != 1:
                    raise TokenError("e-coefficient must be odd")
                if not a.is_zero():
                    word.append((a, idx))
            elif kind == "f":
                _, b, lie_coords = tok
                if b.is_zero():
                    continue
                if b.parity() != 0 or not R.multiply(b, b).is_zero():
                    raise TokenError("bad f-coefficient")
                word = absorb_f(b, tuple(lie_coords), word)
            elif kind in ("g", "normal form"):
                if kind == "normal form" and (tok.pair is not pair or tok.R is not R):
                    raise TokenError("mismatched pair or coefficient algebra")
                hmat = _lift(R, tok[1] if kind == "g" else tok.even)
                if hmat != ident:
                    if kind == "g" and _has_field_entries(tok[1]):
                        cols = _field_rho(pair, tok[1])
                        word = [(a.scale(c), m) for a, idx in word for m, c in cols[idx]]
                    else:  # a caller's point is checked, a product of checked factors is not
                        h_inv = _group_point(pair, R, hmat) if kind == "g" else None
                        if word:
                            h_inv = h_inv or rmat_inverse(R, hmat)
                            word = _conjugate_chain(pair, R, word, h_inv, hmat)
                    g = hmat if g is ident else rmat_mul(R, g, hmat)
                trace.append(("g", tuple(tuple(r) for r in hmat)))
                if kind == "normal form":
                    word.extend((a, i) for i, a in enumerate(tok.coords) if not a.is_zero())
            else:
                raise TokenError("unknown token %r" % (kind,))
        except TokenError as exc:
            raise TokenError("token %d (%s): %s" % (pos, kind, exc)) from None

    half = pair.field.inv(pair.field.from_int(2))
    steps = 0
    while True:
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise GammaError("rewriting did not terminate")
        word = [(a, i) for (a, i) in word if not a.is_zero()]
        spots = [
            p for p in range(len(word) - 1) if word[p][1] >= word[p + 1][1]
        ]
        if not spots:
            break
        p = spots[0] if strategy == "leftmost" else spots[-1]
        (a, i), (b, j) = word[p], word[p + 1]
        if i == j:
            corr_b = -R.multiply(a, b)
            corr_x = tuple(half * c for c in pair.vv(i, i))
            merged = [(a + b, i)]
        else:
            corr_b = -R.multiply(a, b)
            corr_x = pair.vv(i, j)
            merged = [(b, j), (a, i)]
        left, right = word[:p], word[p + 2:]
        if corr_b.is_zero() or not any(corr_x):
            word = left + merged + right
            continue
        word = absorb_f(corr_b, corr_x, left) + merged + right

    coords = [R.zero()] * pair.t
    for (a, i) in word:
        coords[i] = a
    return GammaElement(pair, R, g, coords, trace=trace)


def multiply(u, w):
    return normalize(u.pair, u.R, [u, w])


def inverse(u):
    """u = g·E, E the e-chain, has inverse E^{-1} g^{-1} = g^{-1} · g E^{-1} g^{-1}:
    g^{-1}, a chain-free normal form, then the reversed, negated chain
    conjugated by g.  One inverse of g serves both; I conjugates nothing."""
    R, g = u.R, [list(r) for r in u.even]
    g_inv = rmat_inverse(R, g)
    chain = [(-u.coords[i], i) for i in range(u.pair.t - 1, -1, -1) if not u.coords[i].is_zero()]
    if chain and g != rmat_identity(R, len(g)):
        chain = _conjugate_chain(u.pair, R, chain, g, g_inv)
    start = GammaElement(u.pair, R, g_inv, [R.zero()] * u.pair.t)
    return normalize(u.pair, R, [start] + [("e", a, i) for a, i in chain])


# -- tangent bracket ----------------------------------------------------


def tangent_algebra(field):
    """K[eps0,eps1] ⊗ K[eps0',eps1'] with handles on the four generators."""
    from .algebra import dual_numbers, tensor, tensor_pure

    D = dual_numbers(field)
    R = tensor(D, D)
    eps = {
        "e0": tensor_pure(R, D.basis_element(1), D.basis_element(0)),
        "e1": tensor_pure(R, D.basis_element(2), D.basis_element(0)),
        "e0p": tensor_pure(R, D.basis_element(0), D.basis_element(1)),
        "e1p": tensor_pure(R, D.basis_element(0), D.basis_element(2)),
    }
    return R, eps


def _exp_tokens(pair, eps_elem, parity, gcoords):
    """Tokens of e^{eps·z} for homogeneous z in g (Lie ⊕ V coordinates)."""
    l = pair.lie_dim
    toks = []
    if parity == 0:
        lie = tuple(gcoords[:l])
        toks.append(("f", eps_elem, lie))
    else:
        for i in range(pair.t):
            c = gcoords[l + i]
            if c != pair.field.zero:
                toks.append(("e", -eps_elem.scale(c), i))
    return toks


def tangent_bracket(pair, px, x_coords, py, y_coords):
    """[x, y] from the group commutator over dual super-numbers.

    px, py: parities; x_coords, y_coords: coordinates in Lie(G) ⊕ V.
    Extracts the eps·eps' coefficient of [e^{eps x}, e^{eps' y}] and
    divides by (-1)^{|x||y|}.
    """
    field = pair.field
    R, eps = tangent_algebra(field)
    l, t = pair.lie_dim, pair.t
    ex = eps["e0"] if px == 0 else eps["e1"]
    ey = eps["e0p"] if py == 0 else eps["e1p"]
    u = normalize(pair, R, _exp_tokens(pair, ex, px, x_coords))
    w = normalize(pair, R, _exp_tokens(pair, ey, py, y_coords))
    c = multiply(multiply(u, w), multiply(inverse(u), inverse(w)))
    # the basis element of R that is the monomial eps·eps'
    (mono,) = R.multiply(ex, ey).terms
    sign = -field.one if px * py == 1 else field.one
    out = [field.zero] * (l + t)
    if (px + py) % 2 == 0:
        # even result: even part is I + s·eps·eps'·X_{[x,y]}
        out[:l] = pair.group.lie_expander.coords_field(
            [sign * x.terms.get(mono, field.zero) for row in c.even for x in row])
        if any(mono in a.terms for a in c.coords):
            raise GammaError("unexpected odd part in an even commutator")
    else:
        # odd result: coords are -eps·eps'·[x,y]_i
        for i in range(t):
            out[l + i] = -(sign * c.coords[i].terms.get(mono, field.zero))
    return tuple(out)


# -- enveloping oracle --------------------------------------------------


def _straighten(lie, seq):
    """Expand a generator sequence of the Lie superalgebra lie in the PBW
    basis: {monomial: field coefficient}, nonzero coefficients only."""
    field, parities = lie.field, lie.space.parities
    result = {}
    stack = [(seq, field.one)]
    steps = 0
    while stack:
        steps += 1
        if steps > _MAX_REWRITE_STEPS:
            raise GammaError("straightening did not terminate")
        seq, coeff = stack.pop()
        pos = None
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if a > b or (a == b and parities[a] == 1):
                pos = k
                break
        if pos is None:
            result[seq] = result.get(seq, field.zero) + coeff
            continue
        a, b = seq[pos], seq[pos + 1]
        head, tail = seq[:pos], seq[pos + 2:]
        if a == b:
            # odd square: z^2 = (1/2)[z,z]
            half = field.inv(field.from_int(2))
            for idx, c in lie.bracket_basis(a, a).items():
                stack.append((head + (idx,) + tail, coeff * half * c))
        else:
            sign = field.one if parities[a] * parities[b] == 0 else -field.one
            stack.append((head + (b, a) + tail, coeff * sign))
            for idx, c in lie.bracket_basis(a, b).items():
                stack.append((head + (idx,) + tail, coeff * c))
    return {m: c for m, c in result.items() if c != field.zero}


class EnvelopingOracle:
    """Truncated PBW arithmetic in U(g) ⊗ R.

    Monomials are tuples of basis indices of g = Lie(G) ⊕ V, nondecreasing,
    with odd indices strictly increasing.  Coefficients live in R; terms
    whose coefficient vanishes (nilpotency of R) are dropped.  A product of
    monomials is straightened with field coefficients, which depend on the
    pair alone: the pair keeps each straightened sequence as a tuple, so
    every oracle and every R straightens a sequence once.
    """

    def __init__(self, pair, R):
        self.pair = pair
        self.R = R
        self.lie = pair.assembled_lie()
        self.parities = self.lie.space.parities

    def one(self):
        return {(): self.R.unit}

    def gen_token(self, tok):
        kind = tok[0]
        if kind == "e":
            _, a, idx = tok
            out = {(): self.R.unit}
            if not a.is_zero():
                out[(self.pair.lie_dim + idx,)] = a
            return out
        if kind == "f":
            _, b, lie_coords = tok
            out = {(): self.R.unit}
            for k, c in enumerate(lie_coords):
                if c != self.pair.field.zero and not b.is_zero():
                    out[(k,)] = b.scale(c)
            return out
        raise GammaError("the enveloping oracle cannot absorb a raw group point")

    def _mono_parity(self, mono):
        return sum(self.parities[i] for i in mono) % 2

    def straighten(self, seq):
        """Expand a generator sequence in the PBW basis: the pairs
        (monomial, field coefficient) of _straighten, as a tuple that the
        pair keeps."""
        seq = tuple(seq)
        memo = self.pair.straightened
        if seq not in memo:
            memo[seq] = tuple(_straighten(self.lie, seq).items())
        return memo[seq]

    def product(self, X, Y):
        """X·Y: the sum of m1 m2 ⊗ r1' r2 over the terms m1 ⊗ r1 of X and
        m2 ⊗ r2 of Y, where r1' is r1 moved past m2: r1 itself for an even
        m2, its grade involution for an odd one.  m1 m2 is straightened
        into PBW monomials, and algebra.sum_products adds c·r1'·r2 into
        the coefficient of each monomial with PBW coefficient c."""
        one = self.pair.field.one
        right = [(m2, r2, self._mono_parity(m2)) for m2, r2 in Y.items()]
        pieces = []
        for m1, r1 in X.items():
            moved = (r1, r1.involution())
            for m2, r2, p2 in right:
                r = moved[p2]
                for mono, c in self.straighten(m1 + m2):
                    pieces.append((mono, r if c == one else r.scale(c), r2))
        return sum_products(self.R, pieces)

    def evaluate(self, tokens):
        acc = self.one()
        for tok in tokens:
            acc = self.product(acc, self.gen_token(tok))
        return acc


def oracle_enveloping(arg, tokens=None, R=None):
    """Evaluate a GammaElement (via its trace) or a token word in U(g)⊗R."""
    if isinstance(arg, GammaElement):
        oracle = EnvelopingOracle(arg.pair, arg.R)
        return oracle.evaluate(arg.word_tokens())
    pair = arg
    oracle = EnvelopingOracle(pair, R)
    return oracle.evaluate(tokens)


# -- supermatrix oracle -------------------------------------------------


def _e_entries(pair, idx):
    """The nonzero entries of M·T for the module matrix M of v_idx and the
    twist T = diag((-1)^p(j)) of the row parities: column j of M negated
    when row j is odd.  T·N·T = -N for every odd N, which relation (1)
    needs, and the pair checked at build that its module matrices are odd."""
    rp = pair.row_parities
    return [(i, j, -x if rp[j] else x)
            for i, row in enumerate(pair.module_matrices[idx]) for j, x in enumerate(row) if x]


def oracle_supermatrix(arg, tokens=None, R=None):
    """Evaluate a GammaElement or token word as a supermatrix product over
    R: e(a, v) is I + a·M·T (see _e_entries), f(b, x) is I + b·X and a
    group point is its matrix."""
    if isinstance(arg, GammaElement):
        pair, R = arg.pair, arg.R
        tokens = arg.tokens()
    else:
        pair = arg
    if pair.row_parities is None:
        raise GammaError("supermatrix oracle needs a matrix fixture with row parities")
    acc = ident = rmat_identity(R, pair.group.size)
    for tok in tokens:
        kind = tok[0]
        if kind == "e":
            _, a, idx = tok
            acc = _times_unit_plus(R, acc, a, _e_entries(pair, idx))
        elif kind == "f":
            _, b, lie_coords = tok
            acc = _times_unit_plus(R, acc, b, _f_entries(pair, lie_coords))
        elif kind == "g":
            hmat = _lift(R, tok[1])
            acc = hmat if acc is ident else rmat_mul(R, acc, hmat)
        else:
            raise GammaError("unknown token %r" % (kind,))
    return [tuple(row) for row in acc]
