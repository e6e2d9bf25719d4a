"""Reduction mod p as a referee between the Q and F_p scalar paths.

Z_(p) -> F_p is a ring map and every construction checked here is natural
under ring maps, so for integral data the result over F_p must equal the
reduction of the result over Q.  That covers the results of ring
operations only: normal forms, both oracles, the pair tables and the
tensor and dual Hopf tables.  Ranks, kernels and failure reports are left
out, since reduction can lower a rank and a check that fails over Q can
pass mod p.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from conftest import linear_action, osp12_pair
from superkit import gamma as G
from superkit.algebra import Element, grassmann, polynomial_truncation, tensor
from superkit.fields import PrimeField, Rationals
from superkit.fixtures import BUILTIN_PAIRS
from superkit.hopf import grassmann_hopf
from superkit.hyp import dual_hopf, tensor_hopf

Q = Rationals()
PRIMES = (3, 5)
BUILDERS = {**BUILTIN_PAIRS, "osp12": osp12_pair}
PAIRS = ("gl11", "gl21", "pseudoabelian", "osp12")
GENS = ["a1", "a2", "a3", "a4"]


def reduce_mod_p(x, F, R=None, pair=None):
    """The image over F = F_p of x over Q, by from_fraction: a scalar, an
    Element (then over R), a GammaElement (then of pair over R), or a
    list, tuple or dict of these.  A dict drops the entries that reduce to
    zero, as the sparse tables over F_p do not hold them."""
    if isinstance(x, G.GammaElement):
        return G.GammaElement(pair, R, reduce_mod_p(x.even, F, R), reduce_mod_p(x.coords, F, R))
    if isinstance(x, Element):
        return Element(R, [F.from_fraction(c) for c in x.coords])
    if isinstance(x, (list, tuple)):
        return type(x)(reduce_mod_p(y, F, R, pair) for y in x)
    if isinstance(x, dict):
        out = {k: reduce_mod_p(v, F, R, pair) for k, v in x.items()}
        return {k: v for k, v in out.items() if (not v.is_zero() if isinstance(v, Element) else v)}
    return F.from_fraction(x)


# integer points of determinant ±1, invertible over Q and every F_p
UNIMODULAR = {
    1: [((1,),), ((-1,),)],
    2: [((a, b), (c, d)) for a, b, c, d in product(range(-1, 3), repeat=4)
        if a * d - b * c in (1, -1)],
}


@st.composite
def int_point(draw, pair):
    """An integer matrix in the pair's group: block diagonal by row parity
    for gl(m|n), upper unitriangular for the pseudoabelian pair, 1 and an
    SL(2) block for osp(1|2)."""
    n = pair.group.size
    if pair.row_parities is None:
        return [[1, draw(st.integers(-2, 2))], [0, 1]]
    if pair.name == "osp12":
        (a, b), (c, d) = draw(st.sampled_from([m for m in UNIMODULAR[2]
                                               if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1]))
        return [[1, 0, 0], [0, a, b], [0, c, d]]
    g = [[0] * n for _ in range(n)]
    for parity in (0, 1):
        rows = [i for i in range(n) if pair.row_parities[i] == parity]
        block = draw(st.sampled_from(UNIMODULAR[len(rows)]))
        for bi, i in enumerate(rows):
            for bj, j in enumerate(rows):
                g[i][j] = block[bi][bj]
    return g


def _sparse_coeffs(draw, indices):
    return {i: draw(st.integers(-2, 2)) for i in draw(st.lists(st.sampled_from(indices),
                                                                 min_size=1, max_size=3))}


@st.composite
def int_words(draw):
    """A pair name and a word of e-, f- and g-tokens with integer data:
    e(a, v_i) with a odd in Λ(4), f(x·y, X) with x, y odd, and integer
    group points."""
    name = draw(st.sampled_from(PAIRS))
    pair = BUILDERS[name](Q)
    R = grassmann(Q, GENS)
    odd = [i for i in range(R.dim) if R.space.parities[i] == 1]
    word = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from("eeefg"))
        if kind == "e":
            word.append(("e", _sparse_coeffs(draw, odd), draw(st.integers(0, pair.t - 1))))
        elif kind == "f":
            lie = tuple(draw(st.integers(-1, 1)) for _ in range(pair.lie_dim))
            word.append(("f", (_sparse_coeffs(draw, odd), _sparse_coeffs(draw, odd)), lie))
        else:
            word.append(("g", draw(int_point(pair))))
    return name, word


def build(field, name, word):
    """The pair, Λ(4) and the token word over field from the integer data."""
    pair = BUILDERS[name](field)
    R = grassmann(field, GENS)

    def elem(coeffs):
        return Element(R, [field.from_int(coeffs.get(i, 0)) for i in range(R.dim)])

    tokens = []
    for tok in word:
        if tok[0] == "e":
            tokens.append(("e", elem(tok[1]), tok[2]))
        elif tok[0] == "f":
            x, y = tok[1]
            tokens.append(("f", R.multiply(elem(x), elem(y)), tuple(map(field.from_int, tok[2]))))
        else:
            tokens.append(("g", [[field.from_int(c) for c in row] for row in tok[1]]))
    return pair, R, tokens


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=int_words(), p=st.sampled_from(PRIMES))
def test_normal_form_and_oracles_reduce_mod_p(data, p):
    name, word = data
    F = PrimeField(p)
    pair_q, R_q, tokens_q = build(Q, name, word)
    pair_p, R_p, tokens_p = build(F, name, word)
    u_q = G.normalize(pair_q, R_q, tokens_q)
    u_p = G.normalize(pair_p, R_p, tokens_p)
    assert u_p == reduce_mod_p(u_q, F, R_p, pair_p)
    if pair_q.row_parities is not None:  # the supermatrix oracle needs them
        assert G.oracle_supermatrix(u_p) == reduce_mod_p(G.oracle_supermatrix(u_q), F, R_p)
        want = reduce_mod_p(G.oracle_supermatrix(pair_q, tokens_q, R=R_q), F, R_p)
        assert G.oracle_supermatrix(pair_p, tokens_p, R=R_p) == want
    if all(tok[0] != "g" for tok in word):  # the enveloping oracle takes no raw point
        want = reduce_mod_p(G.oracle_enveloping(pair_q, tokens_q, R=R_q), F, R_p)
        assert G.oracle_enveloping(pair_p, tokens_p, R=R_p) == want


def _pair_tables(pair):
    rho_one, rho_x = linear_action(pair)
    return [pair.assembled_lie().table, rho_one, rho_x]


def _hopf_tables(H):
    return [H.algebra._prod, H.delta, H.eps, H.antipode]


def _table_builders(field):
    yield tensor(grassmann(field, ["a", "b"]), polynomial_truncation(field, "t", 3))._prod
    yield tensor(polynomial_truncation(field, "t", 4), grassmann(field, ["c"]))._prod
    yield _hopf_tables(dual_hopf(grassmann_hopf(field, ["t1", "t2"])))
    yield _hopf_tables(dual_hopf(tensor_hopf(grassmann_hopf(field, ["t1"]),
                                             grassmann_hopf(field, ["t2", "t3"]))))
    for name in sorted(BUILDERS):
        yield _pair_tables(BUILDERS[name](field))


def test_tables_reduce_mod_p():
    for p in PRIMES:
        F = PrimeField(p)
        for want, got in zip(_table_builders(Q), _table_builders(F), strict=True):
            assert got == reduce_mod_p(want, F)
