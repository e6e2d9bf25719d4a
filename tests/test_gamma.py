import random
from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import (
    REALISED, SHIPPED_PAIRS, linear_action, random_element, random_point, shear_pair, shipped_pair,
)
from superkit import gamma as G
from superkit.algebra import AlgebraError, Element, grassmann, lift_matrix, polynomial_truncation
from superkit.fields import PrimeField, Rationals
from superkit.fixtures import gl11_pair, gl21_pair
from superkit.hcp import HarishChandraPair, HCPError, pseudoabelian_example
from superkit.linalg import identity_matrix, invert_matrix, mat_mul

Q = Rationals()


@pytest.fixture(scope="module")
def pair():
    return gl11_pair(Q)


@pytest.fixture(scope="module")
def R():
    return grassmann(Q, ["a1", "a2", "a3", "a4"])


def odd(R, name):
    return R.element({name: 1})


class TestNormalForm:
    def test_worked_example(self, pair, R):
        a1, a2 = odd(R, "a1"), odd(R, "a2")
        u = G.normalize(pair, R, [("e", a1, 1), ("e", a2, 0)])
        one_minus = R.unit - R.multiply(a1, a2)
        assert u.even[0][0] == one_minus
        assert u.even[1][1] == one_minus
        assert u.even[0][1].is_zero() and u.even[1][0].is_zero()
        assert u.coords == (a2, a1)

    def test_sorted_word_untouched(self, pair, R):
        a1, a2 = odd(R, "a1"), odd(R, "a2")
        u = G.normalize(pair, R, [("e", a1, 0), ("e", a2, 1)])
        assert u.coords == (a1, a2)
        assert u.even == G.identity(pair, R).even

    def test_same_vector_merge(self, pair, R):
        a1, a2 = odd(R, "a1"), odd(R, "a2")
        u = G.normalize(pair, R, [("e", a1, 0), ("e", a2, 0)])
        assert u.coords[0] == a1 + a2
        # [v+, v+] = 0 in gl(1|1), so no even correction appears
        assert u.even == G.identity(pair, R).even

    def test_strategies_agree(self, pair, R, rng):
        for _ in range(30):
            toks = [
                ("e", odd(R, rng.choice(["a1", "a2", "a3", "a4"])),
                 rng.randrange(pair.t))
                for _ in range(rng.randint(1, 5))
            ]
            assert G.normalize(pair, R, toks, "leftmost") == G.normalize(
                pair, R, toks, "rightmost"
            )

    def test_even_coefficient_rejected(self, pair, R):
        with pytest.raises(G.GammaError, match="e-coefficient must be odd"):
            G.normalize(pair, R, [("e", R.unit, 0)])

    def test_f_needs_square_zero(self, pair, R):
        with pytest.raises(G.GammaError, match="bad f-coefficient"):
            G.normalize(pair, R, [("f", R.unit, (Q.one, Q.zero))])

    def test_f_accepts_product_of_odds(self, pair, R):
        b = R.multiply(odd(R, "a1"), odd(R, "a2"))
        u = G.normalize(pair, R, [("f", b, (Q.one, Q.zero))])
        assert u.even[0][0] == R.unit + b


class TestGroupLaws:
    def test_identity_neutral(self, pair, R):
        e = G.identity(pair, R)
        u = G.normalize(pair, R, [("e", odd(R, "a1"), 1)])
        assert G.multiply(e, u) == u
        assert G.multiply(u, e) == u

    def test_inverse(self, pair, R):
        a1, a2 = odd(R, "a1"), odd(R, "a2")
        u = G.normalize(pair, R, [("e", a1, 1), ("e", a2, 0)])
        assert G.multiply(u, G.inverse(u)) == G.identity(pair, R)
        assert G.multiply(G.inverse(u), u) == G.identity(pair, R)

    def test_associativity_samples(self, pair, R, rng):
        elems = []
        for _ in range(4):
            toks = [
                ("e", odd(R, rng.choice(["a1", "a2", "a3", "a4"])),
                 rng.randrange(pair.t))
                for _ in range(2)
            ]
            elems.append(G.normalize(pair, R, toks))
        for u in elems:
            for w in elems:
                for z in elems:
                    assert G.multiply(G.multiply(u, w), z) == G.multiply(
                        u, G.multiply(w, z)
                    )

    def test_conjugation_by_group_point(self, pair, R):
        a1 = odd(R, "a1")
        u = G.normalize(pair, R, [("e", a1, 0)])
        g = [[Q.from_int(2), Q.zero], [Q.zero, Q.from_int(3)]]
        g_inv = [[Q.parse("1/2"), Q.zero], [Q.zero, Q.parse("1/3")]]
        c = G.normalize(pair, R, [("g", g)] + u.tokens() + [("g", g_inv)])
        # Ad(diag(2,3)) scales v+ = E12 by 2/3
        assert c.coords[0] == a1.scale(Q.parse("2/3"))
        assert c.coords[1].is_zero()


class TestOracles:
    def test_enveloping_matches_normalize(self, pair, R, rng):
        for _ in range(20):
            toks = [
                ("e", odd(R, rng.choice(["a1", "a2", "a3", "a4"])),
                 rng.randrange(pair.t))
                for _ in range(rng.randint(1, 4))
            ]
            u = G.normalize(pair, R, toks)
            assert G.oracle_enveloping(pair, toks, R=R) == G.oracle_enveloping(u)

    def test_supermatrix_oracle_no_pair_for_matrix_mode(self, R):
        pair = pseudoabelian_example(Q, 1)
        with pytest.raises(G.GammaError, match="row parities"):
            G.oracle_supermatrix(pair, [("e", odd(R, "a1"), 0)], R=R)

    def test_row_parities_making_a_module_matrix_even_rejected(self, pair):
        # gl(1|1) with both rows even: v+ = E12 would be even.  The parities
        # are checked before [V,V] is derived, so the doubled table, which
        # the derived one would reject, is never compared
        t = pair.t
        with pytest.raises(HCPError, match="row parities"):
            HarishChandraPair(
                pair.group, pair.module_labels,
                {(i, j): tuple(2 * c for c in pair.vv(i, j)) for i in range(t) for j in range(t)},
                module_matrices=pair.module_matrices, row_parities=(0, 0),
            )


def column_twist(pair):
    """diag((-1)^p(j)) of the row parities, as a list."""
    return [-pair.field.one if p else pair.field.one for p in pair.row_parities]


def relation_one_holds(pair, twist):
    """Whether e(a, v) -> I + a·M·diag(twist) satisfies relation (1),
    e(a,v_i) e(b,v_j) = f(-ab, [v_i,v_j]) e(b,v_j) e(a,v_i), for every i
    and j, as products of matrices over Λ(a, b): the search that once chose
    the supermatrix oracle's twist among the column-parity and flat ones."""
    R = grassmann(pair.field, ["a", "b"])
    a, b = R.element({"a": 1}), R.element({"b": 1})

    def e(c, idx):
        return e_matrix_referee(pair, R, c, idx, twist)

    for i in range(pair.t):
        for j in range(pair.t):
            corr = f_matrix_referee(pair, R, -R.multiply(a, b), pair.vv(i, j))
            if G.rmat_mul(R, e(a, i), e(b, j)) != G.rmat_mul(
                    R, G.rmat_mul(R, corr, e(b, j)), e(a, i)):
                return False
    return True


@pytest.mark.parametrize("field_name", ["Q", "F3", "F5"])
@pytest.mark.parametrize("spec", REALISED)
def test_relation_one_holds_for_the_column_parity_twist_only(spec, field_name):
    pair = shipped_pair(spec, FIELDS[field_name])
    assert relation_one_holds(pair, column_twist(pair))
    assert not relation_one_holds(pair, [pair.field.one] * pair.group.size)


@pytest.mark.parametrize("field_name", ["Q", "F3", "F5"])
@pytest.mark.parametrize("spec", REALISED)
def test_relation_four_on_equal_vectors_matches_the_oracles(spec, field_name):
    """e(a,v) e(c,v) = f(-ac, (1/2)[v,v]) e(a+c, v) for each basis vector v,
    in normalize and in both oracles; osp(1|2) has [v,v] != 0."""
    pair = shipped_pair(spec, FIELDS[field_name])
    R = grassmann(pair.field, ["a1", "a2"])
    a, c = odd(R, "a1"), odd(R, "a2")
    half = pair.field.inv(pair.field.from_int(2))
    for i in range(pair.t):
        lhs = [("e", a, i), ("e", c, i)]
        rhs = [("f", -R.multiply(a, c), tuple(half * s for s in pair.vv(i, i))), ("e", a + c, i)]
        assert G.normalize(pair, R, lhs) == G.normalize(pair, R, rhs)
        assert G.oracle_supermatrix(pair, lhs, R=R) == G.oracle_supermatrix(pair, rhs, R=R)
        assert G.oracle_enveloping(pair, lhs, R=R) == G.oracle_enveloping(pair, rhs, R=R)


class TestTangentBracket:
    def test_gl11_odd_odd(self, pair):
        got = G.tangent_bracket(pair, 1, (0, 0, 1, 0), 1, (0, 0, 0, 1))
        assert got == (Q.one, Q.one, Q.zero, Q.zero)

    def test_gl11_even_odd(self, pair):
        got = G.tangent_bracket(pair, 0, (1, 0, 0, 0), 1, (0, 0, 1, 0))
        assert got == (Q.zero, Q.zero, Q.one, Q.zero)

    def test_gl21_sweep_small(self):
        pair = gl21_pair(Q)
        lie = pair.assembled_lie()
        n = lie.dim
        for i in (1, 5, 6, 8):
            for j in (2, 5, 7, 8):
                xi = [Q.zero] * n
                xi[i] = Q.one
                yj = [Q.zero] * n
                yj[j] = Q.one
                got = G.tangent_bracket(
                    pair, lie.space.parities[i], xi, lie.space.parities[j], yj
                )
                assert tuple(got) == tuple(lie.bracket(tuple(xi), tuple(yj)))


class TestMatrixHelpers:
    def test_rmat_inverse(self, pair, R):
        b = R.multiply(odd(R, "a1"), odd(R, "a2"))
        m = [[R.unit + b, R.zero()], [R.zero(), R.unit - b]]
        inv = G.rmat_inverse(R, m)
        assert G.rmat_mul(R, m, inv) == G.rmat_identity(R, 2)

    def test_singular_rejected(self, R):
        with pytest.raises(G.GammaError):
            G.rmat_inverse(R, [[R.zero(), R.zero()], [R.zero(), R.unit]])


def rmat_inverse_by_multiply(R, A):
    """Referee for gamma.rmat_inverse: the same Gauss-Jordan elimination
    with one R.multiply per entry, zeros and c·1 entries included."""
    n = len(A)
    ident = G.rmat_identity(R, n)
    aug = [list(row) + ident[i] for i, row in enumerate(A)]
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
            raise G.GammaError("even part is not invertible over R")
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [R.multiply(piv_inv, x) for x in aug[col]]
        for r in range(n):
            if r != col:
                c = aug[r][col]
                if not c.is_zero():
                    aug[r] = [x - R.multiply(c, y) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _lambda(field_name, k):
    return grassmann(FIELDS[field_name], ["a%d" % i for i in range(1, k + 1)])


@st.composite
def matrix_over_lambda(draw):
    """A square matrix over Λ(2..5), Q, F3 or F5: field entries on the unit,
    often zero off the diagonal, plus a few nilpotent terms of any parity."""
    R = _lambda(draw(st.sampled_from(sorted(FIELDS))), draw(st.integers(2, 5)))
    field, n = R.field, draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {0: draw(st.sampled_from([1, -1, 2, 0] if i == j else [0, 0, 1, -2]))}
            for _ in range(draw(st.integers(0, 3))):
                terms[draw(st.integers(1, R.dim - 1))] = draw(small)
            row.append(Element(R, [field.from_int(terms.get(t, 0)) for t in range(R.dim)]))
        rows.append(row)
    return R, rows


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(data=matrix_over_lambda())
def test_rmat_inverse_matches_elimination_referee(data):
    R, A = data
    try:
        want = rmat_inverse_by_multiply(R, A)
    except G.GammaError:
        event("singular")
        with pytest.raises(G.GammaError):
            G.rmat_inverse(R, A)
        return
    event("invertible")
    got = G.rmat_inverse(R, A)
    assert got == want
    assert G.rmat_mul(R, A, got) == G.rmat_identity(R, len(A))


PAIR_BUILDERS = {
    "gl11": gl11_pair,
    "gl21": gl21_pair,
    "pseudoabelian1": lambda field: pseudoabelian_example(field, 1),
    "shear": shear_pair,
}
FIELDS = {"Q": Q, "F3": PrimeField(3), "F5": PrimeField(5)}


def random_odd(rng, R):
    coords = [R.field.zero] * R.dim
    for i in range(R.dim):
        if R.space.parities[i] == 1:
            coords[i] = R.field.from_int(rng.randint(-2, 2))
    return Element(R, coords)


class TestClosedFormConjugation:
    """Ad((I + bX)^{-1}) = rho(I) - b·sum c_k rho(X_k), refereed by rho_over."""

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", sorted(PAIR_BUILDERS))
    def test_matches_rho_over(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        rho_one, rho_x = linear_action(pair)
        t = pair.t
        for _ in range(6):
            b = R.multiply(random_odd(rng, R), random_odd(rng, R))
            lie = tuple(field.from_int(rng.randint(-2, 2)) for _ in range(pair.lie_dim))
            want = pair.rho_over(R, f_matrix_referee(pair, R, -b, lie),
                                 f_matrix_referee(pair, R, b, lie))
            got = [
                [
                    R.unit.scale(rho_one[m][i])
                    - b.scale(sum((c * X[m][i] for c, X in zip(lie, rho_x)), field.zero))
                    for i in range(t)
                ]
                for m in range(t)
            ]
            assert got == want
            word = [(random_odd(rng, R), rng.randrange(t)) for _ in range(3)]
            assert G._conjugate_chain_f(pair, R, word, b, lie) == G._conjugate_chain(
                pair, R, word, f_matrix_referee(pair, R, -b, lie), f_matrix_referee(pair, R, b, lie)
            )

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", ["gl11", "gl21"])
    def test_lie_action_table_is_bracket_gv(self, pair_name, field_name):
        pair = PAIR_BUILDERS[pair_name](FIELDS[field_name])
        _, rho_x = linear_action(pair)
        for k, X in enumerate(rho_x):
            for i in range(pair.t):
                assert tuple(X[m][i] for m in range(pair.t)) == pair.gv(k, i)

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", ["gl11", "gl21"])
    def test_lie_action_table_is_eps_derivative(self, pair_name, field_name):
        """The [g,V] table read by conftest.linear_action is the
        eps-coefficient of rho_over(I + eps X_k) over K[eps]/eps^2, the
        matrix-mode route."""
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        E = polynomial_truncation(field, "eps", 2)
        eps = E.basis_element(1)
        rho_one, rho_x = linear_action(pair)
        ident = G.rmat_identity(E, pair.group.size)
        got = pair.rho_over(E, ident, ident)
        assert [[x.terms.get(0, field.zero) for x in row] for row in got] == rho_one

        def shifted(a, X):
            return [[y + a.scale(x) for x, y in zip(row, irow)] for row, irow in zip(X, ident)]

        for X, want in zip(pair.group.lie_basis, rho_x):
            got = pair.rho_over(E, shifted(eps, X), shifted(-eps, X))
            assert [[x.terms.get(1, field.zero) for x in row] for row in got] == want


def f_matrix_referee(pair, R, b, lie_coords):
    """I + b·X entry by entry, one scale per Lie basis vector and entry."""
    n = pair.group.size
    out = G.rmat_identity(R, n)
    for k, c in enumerate(lie_coords):
        if not c:
            continue
        X = pair.group.lie_basis[k]
        for i in range(n):
            for j in range(n):
                if X[i][j]:
                    out[i][j] = out[i][j] + b.scale(c * X[i][j])
    return out


def e_matrix_referee(pair, R, a, idx, twist):
    """I + a·M·diag(twist) entry by entry for the module matrix M of v_idx."""
    n = pair.group.size
    out = G.rmat_identity(R, n)
    M = pair.module_matrices[idx]
    for i in range(n):
        for j in range(n):
            if M[i][j] != pair.field.zero:
                out[i][j] = out[i][j] + a.scale(M[i][j] * twist[j])
    return out


class TestUnitPlus:
    """f- and e-tokens multiply by I + a·M through one helper,
    _times_unit_plus; the entry-by-entry builders above are its referees."""

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", sorted(PAIR_BUILDERS))
    def test_f_matrix_matches_referee(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        for _ in range(10):
            b = R.multiply(random_odd(rng, R), random_odd(rng, R))
            lie = tuple(field.from_int(rng.randint(-2, 2)) for _ in range(pair.lie_dim))
            ident = G.rmat_identity(R, pair.group.size)
            assert G._times_unit_plus(R, ident, b, G._f_entries(pair, lie)) == \
                f_matrix_referee(pair, R, b, lie)

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", ["gl11", "gl21"])
    def test_e_matrix_matches_referee(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        ident = G.rmat_identity(R, pair.group.size)
        for _ in range(5):
            a = random_odd(rng, R)
            idx = rng.randrange(pair.t)
            assert G._times_unit_plus(R, ident, a, G._e_entries(pair, idx)) == \
                e_matrix_referee(pair, R, a, idx, column_twist(pair))


class TestIdentityToken:
    """A g token equal to the identity conjugates by rho(I), with no rho_over."""

    @pytest.mark.parametrize("pair_name", sorted(PAIR_BUILDERS))
    def test_multiply_by_identity_skips_rho_over(self, pair_name, rng):
        pair = PAIR_BUILDERS[pair_name](Q)
        R = grassmann(Q, ["a1", "a2", "a3", "a4", "a5"])
        one = G.identity(pair, R)
        for _ in range(3):
            toks = [("e", random_odd(rng, R), rng.randrange(pair.t)) for _ in range(4)]
            u = G.normalize(pair, R, toks)
            with mock.patch.object(
                type(pair), "rho_over", autospec=True, side_effect=type(pair).rho_over
            ) as rho_over:
                prod = G.multiply(u, one)
            assert rho_over.call_count == 0
            assert prod == u
            # the trace keeps both g tokens, u's even part and the identity
            assert [tok[0] for tok in prod.trace].count("g") == 2


# -- the enveloping oracle's product against the Element-by-Element loop -----


def reference_product(oracle, X, Y):
    """EnvelopingOracle.product as it was before the terms-dict kernel: one
    Element per coefficient product, added into the output one by one."""
    R = oracle.R
    out = {}
    for m1, r1 in X.items():
        for m2, r2 in Y.items():
            p2 = oracle._mono_parity(m2)
            for p in (0, 1):
                rp = r1.homogeneous_part(p)
                if rp.is_zero():
                    continue
                coeff = R.multiply(rp, r2)
                if p == 1 and p2 == 1:
                    coeff = -coeff
                if coeff.is_zero():
                    continue
                for mono, c in oracle.straighten(m1 + m2):
                    cur = out.get(mono, R.zero())
                    cur = cur + coeff.scale(c)
                    out[mono] = cur
    return {m: c for m, c in out.items() if not c.is_zero()}


def random_mixed(rng, R):
    """An element with both parity halves, so that products split."""
    coords = [R.field.from_int(rng.choice([0, 0, 1, -1, 2])) for _ in range(R.dim)]
    return Element(R, coords)


def oracle_word(rng, pair, R):
    word = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.7:
            word.append(("e", random_odd(rng, R), rng.randrange(pair.t)))
        else:
            b = R.multiply(random_odd(rng, R), random_odd(rng, R))
            lie = tuple(R.field.from_int(rng.randint(-1, 1)) for _ in range(pair.lie_dim))
            word.append(("f", b, lie))
    return word


class TestEnvelopingProduct:
    @pytest.mark.parametrize("field_name", ["Q", "F5"])
    @pytest.mark.parametrize("pair_name", ["gl11", "gl21"])
    def test_matches_reference_on_words(self, pair_name, field_name, rng):
        pair = PAIR_BUILDERS[pair_name](FIELDS[field_name])
        R = grassmann(pair.field, ["a1", "a2", "a3", "a4"])
        oracle = G.EnvelopingOracle(pair, R)
        for _ in range(12):
            acc = want = oracle.one()
            for tok in oracle_word(rng, pair, R):
                Y = oracle.gen_token(tok)
                acc, want = oracle.product(acc, Y), reference_product(oracle, want, Y)
                assert acc == want
            for x in acc.values():
                assert all(x.terms.values())

    @pytest.mark.parametrize("field_name", ["Q", "F5"])
    def test_mixed_coefficients_match_reference(self, field_name, rng):
        pair = gl21_pair(FIELDS[field_name])
        R = grassmann(pair.field, ["a1", "a2", "a3"])
        oracle = G.EnvelopingOracle(pair, R)
        l = pair.lie_dim
        monos = [(), (l,), (0, l + 1), (1,), (l, l + 2)]
        for _ in range(10):
            X = {m: random_mixed(rng, R) for m in rng.sample(monos, 3)}
            Y = {m: random_mixed(rng, R) for m in rng.sample(monos, 2)}
            X = {m: x for m, x in X.items() if not x.is_zero()}
            Y = {m: y for m, y in Y.items() if not y.is_zero()}
            assert oracle.product(X, Y) == reference_product(oracle, X, Y)

    @pytest.mark.parametrize("field_name", ["Q", "F5"])
    def test_cancelled_monomial_is_dropped(self, field_name):
        pair = gl21_pair(FIELDS[field_name])
        R = grassmann(pair.field, ["a1", "a2", "a3"])
        oracle = G.EnvelopingOracle(pair, R)
        u = R.unit + R.element({"a1*a2": 1})
        w = R.unit + R.element({"a3": 1})
        # e_0 e_1 - e_1 e_0 straightens to -[e_1, e_0]: the monomial (0, 1) cancels
        X = {(0,): u, (1,): u}
        Y = {(1,): w, (0,): -w}
        got = oracle.product(X, Y)
        assert (0, 1) not in got
        assert got == reference_product(oracle, X, Y)


# -- A·(I + a·M) as a sparse update, against the full product ----------------


def unit_plus_referee(R, n, a, entries):
    """I + a·M over R, n x n, for the field matrix M that is the sum of its
    entries (i, j, c): the whole matrix that normalize and the supermatrix
    oracle used to multiply by."""
    out = G.rmat_identity(R, n)
    for i, j, c in entries:
        out[i][j] = out[i][j] + a.scale(c)
    return out


def times_unit_plus_referee(R, A, a, entries):
    entries = list(entries)
    return G.rmat_mul(R, A, unit_plus_referee(R, len(A[0]), a, entries))


def random_entries(rng, field, n):
    """A random dense n x n field matrix as its nonzero entries; with
    entries (i, j) and (j, k) an update that reads a changed column shows."""
    return [(i, j, c) for i in range(n) for j in range(n)
            if (c := field.from_int(rng.randint(-2, 2)))]


class TestTimesUnitPlus:
    """_times_unit_plus(R, A, a, entries) = A·(I + a·M), refereed by the
    product with the whole matrix I + a·M."""

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", sorted(PAIR_BUILDERS))
    def test_matches_full_product(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        n = pair.group.size
        for _ in range(8):
            # A with odd and even entries, as the supermatrix accumulator has
            A = [[random_mixed(rng, R) for _ in range(n)] for _ in range(n)]
            lie = tuple(field.from_int(rng.randint(-2, 2)) for _ in range(pair.lie_dim))
            b = R.multiply(random_odd(rng, R), random_odd(rng, R))
            cases = [(b, G._f_entries(pair, lie)),
                     (random_mixed(rng, R), random_entries(rng, field, n))]
            if pair.row_parities is not None:
                cases.append((random_odd(rng, R), G._e_entries(pair, rng.randrange(pair.t))))
            for a, entries in cases:
                before = [list(row) for row in A]
                assert G._times_unit_plus(R, A, a, entries) == times_unit_plus_referee(
                    R, A, a, entries)
                assert A == before


# -- call counts: the products and inverses that are no longer made ------------


def conjugate_chain_referee(pair, R, word, g, g_inv):
    """_conjugate_chain with a product for every entry of rho(g), zeros
    included."""
    out = []
    rho = pair.rho_over(R, g, g_inv)
    for a, idx in word:
        for m in range(pair.t):
            coeff = R.multiply(rho[m][idx], a)
            if not coeff.is_zero():
                out.append((coeff, m))
    return out


def full_matrix_path():
    """normalize and the oracles on the path of whole matrices I + a·M and
    eagerly computed inverses."""
    return mock.patch.multiple(G, _times_unit_plus=times_unit_plus_referee,
                               _conjugate_chain=conjugate_chain_referee)


class TestCallCounts:
    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", sorted(PAIR_BUILDERS))
    def test_multiply_inverts_once(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        ident = G.rmat_identity(R, pair.group.size)
        for _ in range(3):
            (g1, _), (g2, _) = random_point(rng, pair, R), random_point(rng, pair, R)
            if ident in (g1, g2):
                continue
            chain = [("e", random_odd(rng, R), rng.randrange(pair.t)) for _ in range(2)]
            u = G.normalize(pair, R, [("g", g1)] + chain)
            w = G.normalize(pair, R, [("g", g2), ("e", random_odd(rng, R), 0)])
            assert any(not a.is_zero() for a in u.coords)
            with mock.patch.object(G, "rmat_inverse", wraps=G.rmat_inverse) as inv:
                got = G.multiply(u, w)
            assert inv.call_count == 1
            with full_matrix_path():
                assert G.multiply(u, w) == got

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", sorted(PAIR_BUILDERS))
    def test_inverse_inverts_once(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        ident = G.rmat_identity(R, pair.group.size)
        seen = set()
        for k in range(6):
            g, _ = random_point(rng, pair, R)
            # a point and two e's, or one e alone: an identity even part
            word = ([("g", g)] if k % 2 else []) + [
                ("e", random_odd(rng, R), rng.randrange(pair.t)) for _ in range(1 + k % 2)]
            u = G.normalize(pair, R, word)
            is_ident = [list(r) for r in u.even] == ident
            seen.add((is_ident, any(not a.is_zero() for a in u.coords)))
            with mock.patch.object(G, "rmat_inverse", wraps=G.rmat_inverse) as inv, \
                    mock.patch.object(pair, "rho_over", wraps=pair.rho_over) as rho:
                got = G.inverse(u)
            assert inv.call_count == 1
            # only a point other than the identity conjugates the chain
            assert rho.call_count == (0 if is_ident else 1)
            # referee: the word inverse normalized before, the reversed,
            # negated chain followed by g^{-1}
            tokens = [("e", -u.coords[i], i) for i in range(pair.t - 1, -1, -1)
                      if not u.coords[i].is_zero()]
            tokens.append(("g", G.rmat_inverse(R, u.even)))
            assert got == G.normalize(pair, R, tokens)
            assert G.multiply(u, got) == G.identity(pair, R)
            if pair.row_parities is not None:  # the supermatrix oracle, independent of normalize
                assert G.rmat_mul(R, G.oracle_supermatrix(u), G.oracle_supermatrix(got)) == ident
        assert {(False, True), (True, True)} <= seen

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    @pytest.mark.parametrize("pair_name", ["gl11", "gl21"])
    def test_e_word_oracle_makes_no_matrix_product(self, pair_name, field_name, rng):
        field = FIELDS[field_name]
        pair = PAIR_BUILDERS[pair_name](field)
        R = grassmann(field, ["a1", "a2", "a3", "a4"])
        for k in range(1, 6):
            word = [("e", random_odd(rng, R), rng.randrange(pair.t)) for _ in range(k)]
            with mock.patch.object(G, "rmat_mul", wraps=G.rmat_mul) as mul:
                got = G.oracle_supermatrix(pair, word, R=R)
            assert mul.call_count == 0
            with full_matrix_path():
                assert G.oracle_supermatrix(pair, word, R=R) == got
            assert G.oracle_supermatrix(G.normalize(pair, R, word)) == got


# -- what a pair keeps: PBW straightenings and rho at field points -----------


def straighten_referee(oracle, seq):
    """EnvelopingOracle.straighten as it was before the pair kept its
    expansions: the rewrites run again on every call."""
    field = oracle.pair.field
    result = {}
    stack = [(tuple(seq), field.one)]
    while stack:
        seq, coeff = stack.pop()
        pos = None
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if a > b or (a == b and oracle.parities[a] == 1):
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
            for idx, c in oracle.lie.bracket_basis(a, a).items():
                stack.append((head + (idx,) + tail, coeff * half * c))
        else:
            sign = field.one if oracle.parities[a] * oracle.parities[b] == 0 else -field.one
            stack.append((head + (b, a) + tail, coeff * sign))
            for idx, c in oracle.lie.bracket_basis(a, b).items():
                stack.append((head + (idx,) + tail, coeff * c))
    return {m: c for m, c in result.items() if c != field.zero}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("spec", REALISED)
def test_straighten_matches_referee_and_runs_once(spec, field_name):
    """Every index sequence of length <= 4 (osp(1|2) takes the odd-square
    branch); a second oracle over another R straightens none of them again."""
    pair = shipped_pair(spec, FIELDS[field_name])
    oracle = G.EnvelopingOracle(pair, _lambda(field_name, 2))
    seqs = [s for k in range(5) for s in product(range(oracle.lie.dim), repeat=k)]
    with mock.patch.object(G, "_straighten", wraps=G._straighten) as run:
        kept = [oracle.straighten(seq) for seq in seqs]
    assert run.call_count == len(seqs)
    assert [dict(got) for got in kept] == [straighten_referee(oracle, seq) for seq in seqs]
    other = G.EnvelopingOracle(pair, _lambda(field_name, 3))
    with mock.patch.object(G, "_straighten", wraps=G._straighten) as run:
        assert all(other.straighten(seq) is got for seq, got in zip(seqs, kept))
    assert run.call_count == 0
    assert all(isinstance(got, tuple) for got in kept)  # callers cannot change what is kept


def field_points(pair):
    """The distinct points of the pair's group with entries 0, ±1 and 2,
    invertible over Q, F3 and F5: the diagonal ones, I + E_ij and a
    quarter turn of the first two coordinates, those in G and other than I."""
    field, n = pair.field, pair.group.size

    def point(entry):
        return [[field.from_int(entry(i, j)) for j in range(n)] for i in range(n)]

    cands = [point(lambda i, j, d=d: d[i] if i == j else 0) for d in product((1, 2, -1), repeat=n)]
    cands += [point(lambda i, j, e=e: int(i == j or (i, j) == e))
              for e in product(range(n), repeat=2) if e[0] != e[1]]
    # the quarter turn: [[0, 1], [-1, 0]] on the first two coordinates, I on the rest
    cands.append(point(lambda i, j: {(0, 1): 1, (1, 0): -1}.get((i, j), int(i == j >= 2))))
    K, ident = pair.ground, identity_matrix(n, field)
    distinct = {tuple(map(tuple, g)): g for g in cands if g != ident}  # -1 = 2 in F3
    return [g for g in distinct.values() if pair.group.membership_over(K, lift_matrix(K, g))]


def ad_inverse(pair, g):
    """Ad(g^-1) on g = Lie(G) ⊕ V as a field matrix: g^-1 X_k g expanded on
    the Lie basis, and rho_over at (g^-1, g) on V."""
    K, field, l, t = pair.ground, pair.field, pair.lie_dim, pair.t
    g_inv = [[x.terms.get(0, field.zero) for x in row]
             for row in G.rmat_inverse(K, lift_matrix(K, g))]
    lie_cols = [pair.group.lie_expander.coords_field(
        [x for row in mat_mul(mat_mul(g_inv, X), g) for x in row]) for X in pair.group.lie_basis]
    rho = pair.rho_over(K, lift_matrix(K, g_inv), lift_matrix(K, g))
    out = [[field.zero] * (l + t) for _ in range(l + t)]
    for k, col in enumerate(lie_cols):
        for m, c in enumerate(col):
            out[m][k] = c
    for i in range(t):
        for m in range(t):
            out[l + m][l + i] = rho[m][i].terms.get(0, field.zero)
    return out


def automorphism_image(oracle, X, A):
    """The image of X = {monomial: r} under the automorphism of U(g) ⊗ R
    that is the field matrix A on g: each monomial mapped generator by
    generator, with its coefficient r kept on the right."""
    R, dim = oracle.R, len(A)
    out = {}
    for mono, r in X.items():
        img = oracle.one()
        for i in mono:
            img = oracle.product(img, {(j,): R.unit.scale(A[j][i]) for j in range(dim) if A[j][i]})
        for m, c in oracle.product(img, {(): r}).items():
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("spec", SHIPPED_PAIRS)
def test_field_point_conjugates_as_rho_over_R(spec, field_name, rng):
    """[e-chain, g] for a field point g, conjugated by the pair's field
    matrix, equals the same word with g lifted to R (rho_over over R).
    The supermatrix oracle agrees on the word and its normal form.  The
    enveloping oracle cannot take a group point; it checks that the chain
    conjugated by Ad(g^-1), built here from the Lie basis and rho_over, is
    the image of the chain under that automorphism of U(g), and g followed
    by that chain has the same normal form.  The pair keeps the matrix for
    every R."""
    pair = shipped_pair(spec, FIELDS[field_name])
    field = pair.field
    R, R2 = _lambda(field_name, 4), _lambda(field_name, 2)
    points = field_points(pair)
    if spec.endswith("gl21") or spec.endswith("gl21.pair.json"):
        assert any(x for g in points for i, row in enumerate(g) for j, x in enumerate(row)
                   if i != j)
    assert points
    oracle = G.EnvelopingOracle(pair, R)
    for g in points:
        chain = [("e", random_odd(rng, R), rng.randrange(pair.t)) for _ in range(3)]
        with mock.patch.object(pair, "rho_over", wraps=pair.rho_over) as rho:
            want = G.normalize(pair, R, chain + [("g", lift_matrix(R, g))])
        assert rho.call_count == 1
        word = chain + [("g", g)]
        u = G.normalize(pair, R, word)
        assert u == want
        with mock.patch.object(pair, "rho_over", wraps=pair.rho_over) as rho:
            assert G.normalize(pair, R, word, "rightmost") == u
            short = [("e", odd(R2, "a1"), 0), ("g", g)]
            assert G.normalize(pair, R2, short) == G.normalize(
                pair, R2, short[:1] + [("g", lift_matrix(R2, g))])
        assert rho.call_count == 1  # the lifted point alone
        if pair.row_parities is not None:
            assert G.oracle_supermatrix(pair, word, R=R) == G.oracle_supermatrix(u)
        # E g = g·Ad(g^-1)E: the chain conjugated by the test's own Ad(g^-1)
        A, l = ad_inverse(pair, g), pair.lie_dim
        conj = [("e", a.scale(A[l + m][l + i]), m)
                for _, a, i in chain for m in range(pair.t) if A[l + m][l + i]]
        assert G.oracle_enveloping(pair, conj, R=R) == automorphism_image(
            oracle, G.oracle_enveloping(pair, chain, R=R), A)
        assert G.normalize(pair, R, [("g", g)] + conj) == u
    assert len(pair.field_rho) == len(points)


def residue(R, mat):
    """The field matrix of the unit coefficients of a matrix over R."""
    return [[x.terms.get(R.unit_index, R.field.zero) for x in row] for row in mat]


def point_case(pair, R, mat):
    """Which case a group point, with field entries or entries in R, is: an
    odd entry, a singular residue (R is local, so that is singularity over
    R), outside G or in G."""
    if not isinstance(mat[0][0], Element):
        mat = lift_matrix(R, mat)
    if any(x.parity() != 0 for row in mat for x in row):
        return "odd entry"
    if invert_matrix(residue(R, mat), pair.field) is None:
        return "singular"
    return "in G" if pair.group.membership_over(R, mat) else "outside G"


def token_referee(pair, R, tok):
    """Whether a token lies in Gamma(R), by the criteria cli.parse_word
    checked before normalize took them over: an odd e-coefficient, an even
    f-coefficient of square zero, and a group point in G."""
    kind, x = tok[0], tok[1]
    if kind == "e":
        return x.is_zero() or x.parity() == 1
    if kind == "f":
        return x.parity() == 0 and R.multiply(x, x).is_zero()
    return point_case(pair, R, x) == "in G"


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("spec", SHIPPED_PAIRS)
def test_token_error_exactly_when_the_referee_rejects(spec, field_name):
    """normalize raises TokenError for a token exactly when token_referee
    rejects it, whatever the e-token before it: field points near the
    identity (in G, outside G, singular), points over R (each field point
    times I + bX for a Lie basis vector X and b = a1·a2, or with a3 added
    to one entry: in G, outside G, singular only in the residue, with an
    odd entry), each case seen, e-coefficients of any parity and
    f-coefficients odd, of nonzero square or of square zero."""
    field = FIELDS[field_name]
    pair = shipped_pair(spec, field)
    R = grassmann(field, ["a1", "a2", "a3"])
    rng, rng_R = random.Random(61), random.Random(62)
    n, a1, a3 = pair.group.size, odd(R, "a1"), odd(R, "a3")
    even = R.multiply(a1, odd(R, "a2"))
    lie = (field.one,) + (field.zero,) * (pair.lie_dim - 1)
    seen = set()
    toks = []
    for _ in range(40):
        mat = identity_matrix(n, field)
        for _ in range(rng.randint(1, 3)):
            mat[rng.randrange(n)][rng.randrange(n)] = field.from_int(rng.choice((-1, 0, 1, 2)))
        toks.append(("g", mat))
        toks.append(("e", random_element(rng, R, bound=1), 0))
        if rng_R.random() < 0.8:
            point = G.rmat_mul(R, lift_matrix(R, mat), [
                [(R.unit if i == j else R.zero()) + even.scale(x) for j, x in enumerate(row)]
                for i, row in enumerate(rng_R.choice(pair.group.lie_basis))])
        else:
            point = lift_matrix(R, mat)
            i, j = rng_R.randrange(n), rng_R.randrange(n)
            point[i][j] = point[i][j] + a3
        toks.append(("g", point))
    toks += [("f", b, lie) for b in (a1, R.unit + even, even, a1 + even)]
    for tok in toks:
        want = token_referee(pair, R, tok)
        if tok[0] == "g":
            seen.add(("R" if isinstance(tok[1][0][0], Element) else "field",
                      point_case(pair, R, tok[1])))
        for word in ([tok], [("e", a1, pair.t - 1), tok]):
            if want:
                G.normalize(pair, R, word)
            else:
                with pytest.raises(G.TokenError, match="token %d \\(%s\\): " % (len(word), tok[0])):
                    G.normalize(pair, R, word)
    assert seen == {("field", "in G"), ("field", "outside G"), ("field", "singular"),
                    ("R", "in G"), ("R", "outside G"), ("R", "singular"), ("R", "odd entry")}


class TestFieldPointChecks:
    """A group point outside G or singular raises the same TokenError
    whatever the word holds before it."""

    OUTSIDE = [[Q.one, Q.one], [Q.zero, Q.one]]
    SINGULAR = [[Q.zero, Q.zero], [Q.zero, Q.one]]

    def test_point_outside_G(self, R):
        pair = gl11_pair(Q)
        for word in ([("g", self.OUTSIDE)], [("e", odd(R, "a1"), 1), ("g", self.OUTSIDE)]):
            with pytest.raises(G.GammaError, match="even part fails the membership predicate"):
                G.normalize(pair, R, word)
        assert not pair.field_rho

    def test_singular_point(self, R):
        pair = gl11_pair(Q)
        for word in ([("g", self.SINGULAR)], [("e", odd(R, "a1"), 1), ("g", self.SINGULAR)]):
            with pytest.raises(G.GammaError, match="group point is not invertible"):
                G.normalize(pair, R, word)

    def test_point_over_R_outside_G(self, pair, R):
        """A point over R takes no memo; normalize checks it as it enters."""
        word = [("e", odd(R, "a1"), 0), ("g", lift_matrix(R, self.OUTSIDE))]
        for k in (1, 2):
            with pytest.raises(G.TokenError, match="token %d \\(g\\): even part fails the "
                               "membership predicate" % k):
                G.normalize(pair, R, word[2 - k:])

    def test_singular_point_over_R(self, pair):
        """diag(0, 1) satisfies the conditions of gl(1|1), which only ask the
        odd blocks to vanish; it is rejected where it enters, whether or not
        an e-chain comes before it."""
        R = grassmann(Q, ["a1", "a2"])
        point = ("g", lift_matrix(R, [[0, 0], [0, 1]]))
        for word in ([point], [("e", odd(R, "a1"), 0), point]):
            with pytest.raises(G.TokenError, match="token %d \\(g\\): group point is not "
                               "invertible" % len(word)):
                G.normalize(pair, R, word)


class TestRaises:
    """The checks of gamma that no other test sees fail."""

    def test_odd_entry_in_even_part(self, pair, R):
        """The referee rejects a normal form whose even part has an odd
        entry; normalize rejects such a point over R where it enters."""
        one, zero, a1 = R.unit, R.zero(), odd(R, "a1")
        point = [[one, a1], [zero, one]]
        with pytest.raises(G.GammaError, match="even part has an odd entry"):
            G.GammaElement(pair, R, point, [zero, zero])
        with pytest.raises(G.TokenError, match="token 1 \\(g\\): even part has an odd entry"):
            G.normalize(pair, R, [("g", point)])

    def test_even_odd_coordinate(self, pair, R):
        """The referee rejects a normal form with an even chain coefficient;
        normalize rejects such an e-token where it enters."""
        ident, zero = G.rmat_identity(R, 2), R.zero()
        with pytest.raises(G.GammaError, match="odd coordinate is not odd"):
            G.GammaElement(pair, R, ident, [R.unit, zero])
        with pytest.raises(G.TokenError, match="token 1 \\(e\\): e-coefficient must be odd"):
            G.normalize(pair, R, [("e", R.unit, 0)])

    def test_no_trace(self, pair, R):
        u = G.GammaElement(pair, R, G.rmat_identity(R, 2), [odd(R, "a1"), R.zero()])
        with pytest.raises(G.GammaError, match="carries no generator trace"):
            G.oracle_enveloping(u)

    def test_unknown_token(self, pair, R):
        word = [("e", odd(R, "a1"), 0), ("h", R.unit)]
        with pytest.raises(G.GammaError, match="unknown token 'h'"):
            G.normalize(pair, R, word)
        with pytest.raises(G.GammaError, match="unknown token 'h'"):
            G.oracle_supermatrix(pair, word, R=R)

    def test_mismatched_pair_or_algebra(self, pair, R):
        u = G.normalize(pair, R, [("e", odd(R, "a1"), 0)])
        R2 = grassmann(Q, ["a1", "a2", "a3", "a4"])
        for w in (G.normalize(gl11_pair(Q), R, [("e", odd(R, "a1"), 0)]),
                  G.normalize(pair, R2, [("e", odd(R2, "a1"), 0)])):
            with pytest.raises(G.GammaError, match="mismatched pair or coefficient algebra"):
                G.multiply(u, w)

    def test_group_point_in_the_enveloping_oracle(self, pair, R):
        g = [[Q.from_int(2), Q.zero], [Q.zero, Q.one]]
        with pytest.raises(G.GammaError, match="cannot absorb a raw group point"):
            G.oracle_enveloping(pair, [("g", g)], R=R)

    def test_rewriting_bound(self, pair, R):
        """One step with nothing to swap ends the loop; a swap needs two."""
        a1, a2 = odd(R, "a1"), odd(R, "a2")
        with mock.patch.object(G, "_MAX_REWRITE_STEPS", 1):
            G.normalize(pair, R, [("e", a1, 0), ("e", a2, 1)])
            with pytest.raises(G.GammaError, match="rewriting did not terminate"):
                G.normalize(pair, R, [("e", a1, 1), ("e", a2, 0)])

    def test_straightening_bound(self):
        """One pop of a sorted sequence ends the loop; a swap needs more.  A
        fresh pair keeps no straightening yet."""
        oracle = G.EnvelopingOracle(gl11_pair(Q), grassmann(Q, ["a1"]))
        with mock.patch.object(G, "_MAX_REWRITE_STEPS", 1):
            assert oracle.straighten((0, 2)) == (((0, 2), Q.one),)
            with pytest.raises(G.GammaError, match="straightening did not terminate"):
                oracle.straighten((2, 0))

    def test_distinct_normal_forms_unequal(self, pair, R):
        """Normal forms differing in the even part, the chain, R or the pair
        compare unequal."""
        a1, a2 = odd(R, "a1"), odd(R, "a2")
        R2 = grassmann(Q, ["a1", "a2", "a3", "a4"])
        u = G.normalize(pair, R, [("e", a1, 0)])
        assert u == G.normalize(pair, R, [("e", a1, 0)])
        scaled = G.normalize(pair, R, [("g", [[Q.from_int(2), Q.zero], [Q.zero, Q.one]]),
                                       ("e", a1, 0)])
        assert scaled.coords == u.coords
        for other in (scaled, G.normalize(pair, R, [("e", a2, 0)]),
                      G.normalize(pair, R2, [("e", odd(R2, "a1"), 0)]),
                      G.normalize(gl11_pair(Q), R, [("e", a1, 0)])):
            assert u != other
