import json
import os
import random
import re
from functools import partial
from operator import add

import pytest
import sympy

from conftest import REALISED, SHIPPED_PAIRS, mat_bracket, osp12_pair, random_point, shear_pair
from superkit import hcp
from superkit.algebra import Element, grassmann, lift_matrix, mat_mul_over, sum_products
from superkit.fields import PrimeField, Rationals
from superkit.fixtures import (
    BUILTIN_PAIRS, gl11_pair, gl21_pair, pair_from_json, pair_to_json, resolve_pair,
)
from superkit.hcp import (
    HCPError,
    HarishChandraPair,
    Submodule,
    _flatten,
    brute_force_largest_subordinated,
    check_exact_sequence,
    pseudoabelian_example,
    r_radical,
    subordinated_closure,
    validate_pair,
)
from superkit.linalg import Subspace, dense, identity_matrix, mat_mul, nullspace, transpose
from superkit.symbolic import Poly, Reducer, eval_at

Q = Rationals()
F5 = PrimeField(5)
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def full_lie(pair):
    return Subspace(pair.field, pair.lie_dim, identity_matrix(pair.lie_dim, pair.field))


class TestValidation:
    def test_gl11(self):
        for field in (Q, F5):
            report = validate_pair(gl11_pair(field))
            assert report.holds, report.failures

    def test_gl21(self):
        report = validate_pair(gl21_pair(Q))
        assert report.holds, report.failures

    def test_pseudoabelian(self):
        report = validate_pair(pseudoabelian_example(Q, 2))
        assert report.holds, report.failures

    def test_action_moving_the_identity_rejected(self):
        group = pseudoabelian_example(Q, 1).group
        with pytest.raises(HCPError, match="identity"):
            HarishChandraPair(group, ["w1", "phi1"], {}, action_expr=[[1, "m_0_1 + 1"], [0, 1]])

    def test_lie_vector_off_the_tangent_space_rejected(self):
        # I + eps·E00 breaks m_0_0 - 1 = 0
        with pytest.raises(HCPError, match="tangent condition"):
            _ga_group(Q, [[Q.one, Q.zero], [Q.zero, Q.zero]])

    def test_generic_point_off_the_group_rejected(self):
        with pytest.raises(HCPError, match="generic point fails a membership condition"):
            _ga_group(Q, point=hcp.GenericPoint([[2, "s"], [0, 1]], [[1, "-s"], [0, 1]], []))

    def test_conditions_not_closed_under_products_rejected(self):
        """The check is on G, not on its generic points.  The symmetric 2x2
        matrices contain I, their tangent vectors and the inverse of each
        point, but not the product of two points.  The union of the diagonal
        torus and the unipotent upper triangle fails with both charts or
        either one alone (diag(2, 1) and [[1, 1], [0, 1]] are in it, their
        product is not), and so do the union of the unipotent triangle and
        {diag(1, d)}, whose entry m_0_0 a condition fixes to 1, the union of
        the two triangles (m_0_1·m_1_0 = 0) and the unipotent triangle with
        s^2 = 0 over Q.  Groups build whatever their charts: SL(2) and SL(3)
        from the unipotent chart alone, and the torus {[[a, a - d], [0, d]]},
        whose inverse has the off-diagonal entry (d - a)/(ad)."""
        def units(n):
            return {(i, j): [[Q.one if (a, b) == (i, j) else Q.zero for b in range(n)]
                             for a in range(n)] for i in range(n) for j in range(n)}

        e = units(2)
        e00, e11, e01, e10 = e[0, 0], e[1, 1], e[0, 1], e[1, 0]
        symmetric = hcp.GenericPoint([["a", "b"], ["b", "d"]],
                                     [["d*T", "-b*T"], ["-b*T", "a*T"]], ["(a*d - b*b)*T - 1"])
        torus = hcp.GenericPoint([["a", 0], [0, "d"]], [["a_i", 0], [0, "d_i"]],
                                 ["a*a_i - 1", "d*d_i - 1"])
        unipotent = hcp.GenericPoint([[1, "s"], [0, 1]], [[1, "-s"], [0, 1]], [])
        square_zero = hcp.GenericPoint([[1, "s"], [0, 1]], [[1, "-s"], [0, 1]], ["s^2"])
        union = ["m_1_0", "m_0_1*(m_0_0 - 1)", "m_0_1*(m_1_1 - 1)"]
        for conditions, lie_basis, points in (
                (["m_0_1 - m_1_0"], [e00, e11], [symmetric]),
                (union, [e00, e11, e01], [torus, unipotent]),
                (union, [e00, e11, e01], [torus]),
                (union, [e00, e11, e01], [unipotent]),
                (["m_0_0 - 1", "m_1_0", "m_0_1*(m_1_1 - 1)"], [e11, e01], [unipotent]),
                (["m_0_1*m_1_0"], [e00, e11], [torus]),
                (["m_0_0 - 1", "m_1_1 - 1", "m_1_0", "m_0_1^2"], [e01], [square_zero])):
            with pytest.raises(HCPError, match="G is not closed under products and inverses"):
                hcp.MatrixGroupModel(Q, 2, conditions, lie_basis, points)
        h = [[Q.one, Q.zero], [Q.zero, -Q.one]]
        hcp.MatrixGroupModel(Q, 2, ["m_0_0*m_1_1 - m_0_1*m_1_0 - 1"], [e01, e10, h], [unipotent])
        shifted = hcp.GenericPoint([["a", "a - d"], [0, "d"]], [["a_i", "(d - a)*a_i*d_i"], [0, "d_i"]],
                                   ["a*a_i - 1", "d*d_i - 1"])
        hcp.MatrixGroupModel(Q, 2, ["m_1_0", "m_0_1 - m_0_0 + m_1_1"],
                             [[[Q.one, Q.one], [Q.zero, Q.zero]], [[Q.zero, -Q.one], [Q.zero, Q.one]]],
                             [shifted])
        e3 = units(3)
        det3 = ("m_0_0*(m_1_1*m_2_2 - m_1_2*m_2_1) - m_0_1*(m_1_0*m_2_2 - m_1_2*m_2_0)"
                " + m_0_2*(m_1_0*m_2_1 - m_1_1*m_2_0) - 1")
        sl3 = [M for (i, j), M in e3.items() if i != j] + [
            [[e3[i, i][a][b] - e3[i + 1, i + 1][a][b] for b in range(3)] for a in range(3)]
            for i in range(2)]
        heisenberg = hcp.GenericPoint([[1, "x", "y"], [0, 1, "z"], [0, 0, 1]],
                                      [[1, "-x", "x*z - y"], [0, 1, "-z"], [0, 0, 1]], [])
        hcp.MatrixGroupModel(Q, 3, [det3], sl3, [heisenberg])

    def test_condition_free_model_skips_the_closure_check(self, monkeypatch):
        """With no conditions G is GL(n), a group, so the closure check is not
        computed: its formal determinant by first-row expansion would cost
        (n - 1)!·n² products, about 5·10^5 Poly products at n = 8."""
        def det(mat, one):
            raise AssertionError("the closure check ran on a model with no conditions")

        monkeypatch.setattr(hcp, "_det", det)
        n = 8
        units = [[[Q.one if (a, b) == (i, j) else Q.zero for b in range(n)] for a in range(n)]
                 for i in range(n) for j in range(n)]
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        group = hcp.MatrixGroupModel(Q, n, [], units, [hcp.GenericPoint(ident, ident, [])])
        assert group.lie_dim == n * n and group.closed_conditions == []

    def test_generic_action_escaping_the_module_reported(self):
        # Lie basis {I}: [g,V] = 0 derives, but diag(alpha, delta) moves
        # E01 + E10 off its span
        point = hcp.GenericPoint([["alpha", 0], [0, "delta"]], [["alpha_i", 0], [0, "delta_i"]],
                                 ["alpha*alpha_i - 1", "delta*delta_i - 1"])
        group = hcp.MatrixGroupModel(Q, 2, ["m_0_1", "m_1_0"], [identity_matrix(2, Q)], [point])
        pair = HarishChandraPair(group, ["v"], {}, module_matrices=[[[0, 1], [1, 0]]])
        report = validate_pair(pair)
        assert report.failures == [
            "(b) generic action escapes the module (generic point 0)"]

    def test_row_parities_need_module_matrices(self):
        group = pseudoabelian_example(Q, 1).group
        with pytest.raises(HCPError, match="module matrices"):
            HarishChandraPair(group, ["w1", "phi1"], {}, row_parities=(0, 1))

    def test_broken_symmetry_detected(self):
        pair = gl11_pair(Q)
        pair._vv[(0, 1)] = (Q.one, Q.zero)  # no longer matches (1, 0)
        report = validate_pair(pair)
        assert not report.holds


class TestAssembledLie:
    def test_matches_gl_super(self):
        pair = gl11_pair(Q)
        L = pair.assembled_lie()
        L.require_axioms()
        # [v+, v-] = x1 + x2 (= E11 + E22 in the ambient matrices)
        br = L.bracket_basis(2, 3)
        assert br == {0: Q.one, 1: Q.one}

    def test_built_once_with_the_pair(self):
        pair = gl11_pair(Q)
        assert pair.assembled_lie() is pair.assembled_lie()

    def test_action_bracket_sign(self):
        pair = gl11_pair(Q)
        L = pair.assembled_lie()
        # [x1, v+] = v+, [v+, x1] = -v+
        assert L.bracket_basis(0, 2) == {2: Q.one}
        assert L.bracket_basis(2, 0) == {2: -Q.one}


class TestRadical:
    def test_pseudoabelian_full_r(self):
        pair = pseudoabelian_example(Q, 1)
        lie_r = full_lie(pair)
        W, lie_hr = r_radical(pair, lie_r)
        assert W.sub.dim == pair.t
        assert lie_hr.dim == 1

    def test_pseudoabelian_trivial_r(self):
        pair = pseudoabelian_example(Q, 1)
        W, lie_hr = r_radical(pair, Subspace(Q, pair.lie_dim))
        assert W.sub.dim == 0
        assert lie_hr.dim == 0

    def test_gl11_scalar_r(self):
        pair = gl11_pair(Q)
        scal = Subspace(Q, 2, [[Q.one, Q.one]])  # scalars E11 + E22
        W, lie_hr = r_radical(pair, scal)
        assert W.sub.dim == 2
        assert lie_hr.dim == 1
        assert lie_hr.contains([Q.one, Q.one])

    def test_brute_force_agrees(self):
        """The oracle's best coordinate span lies in the closure's W, and is W
        whenever W is spanned by coordinate vectors: the whole of V, nothing,
        or span{z} for a vector z that brackets to 0 with all of V.  For
        osp(1|2) and Lie(R) = span{h, e}, [v1, V] lies in Lie(R) but
        [[v1, v2], v2] is not in span{v1}, and [v2, v2] is not in Lie(R)."""
        def with_z():
            group = pseudoabelian_example(Q, 1).group
            return HarishChandraPair(group, ["w1", "phi1", "z"], {(1, 0): (Q.one,)})

        dims = []
        for mk, lie_rows in [
            (lambda: pseudoabelian_example(Q, 1), None),
            (lambda: pseudoabelian_example(Q, 1), []),
            (lambda: pseudoabelian_example(Q, 2), None),
            (lambda: pseudoabelian_example(Q, 2), []),
            (lambda: gl11_pair(Q), [[Q.one, Q.one]]),
            (lambda: gl11_pair(Q), [[Q.one, Q.zero]]),
            (with_z, None),
            (with_z, []),
            (lambda: osp12_pair(Q), [[Q.one, Q.zero, Q.zero], [Q.zero, Q.one, Q.zero]]),
        ]:
            pair = mk()
            lie_r = (
                full_lie(pair)
                if lie_rows is None
                else Subspace(Q, pair.lie_dim, lie_rows)
            )
            W = subordinated_closure(pair, lie_r)
            best = brute_force_largest_subordinated(pair, lie_r)
            assert best.dim <= W.sub.dim
            for row in best.rows:
                assert W.sub.contains(row)
            if all(sum(1 for x in row if x) == 1 for row in W.sub.rows):
                assert best == W.sub
                dims.append((W.sub.dim, pair.t))
        assert {(0, 2), (2, 2), (0, 4), (4, 4), (1, 3), (3, 3)} <= set(dims)

    def test_brute_force_needs_small_dim(self):
        with pytest.raises(HCPError, match="dim V <= 4"):
            brute_force_largest_subordinated(pseudoabelian_example(Q, 3), Subspace(Q, 1))


def closure_referee(pair, lie_r):
    """subordinated_closure with every constraint row written out."""
    field, t = pair.field, pair.t
    constraints = []
    for j in range(t):
        cols = [lie_r.reduce(pair.vv(i, j)) for i in range(t)]
        for m in range(pair.lie_dim):
            row = [cols[i][m] for i in range(t)]
            if any(c != field.zero for c in row):
                constraints.append(row)
    W = Subspace(field, t, nullspace(constraints, field, t) if constraints
                 else identity_matrix(t, field))
    while True:
        constraints = []
        for j in range(t):
            for k in range(t):
                cols = [W.reduce(pair.apply_gv(pair.vv(i, j), k)) for i in range(t)]
                for m in range(t):
                    row = [cols[i][m] for i in range(t)]
                    if any(c != field.zero for c in row):
                        constraints.append(row)
        if constraints:
            new = W.intersect(Subspace(field, t, nullspace(constraints, field, t)))
        else:
            new = W
        if new == W:
            return W
        W = new


def radical_referee(pair, lie_r):
    """(W_R, Lie(H_R)) with x parametrised over the rows of lie_r and
    [x, v_j] constrained into W_R."""
    field, t = pair.field, pair.t
    W = closure_referee(pair, lie_r)
    constraints = []
    for j in range(t):
        cols = [W.reduce(pair.apply_gv(row, j)) for row in lie_r.rows]
        for m in range(t):
            row = [cols[s][m] for s in range(len(lie_r.rows))]
            if any(c != field.zero for c in row):
                constraints.append(row)
    if lie_r.dim == 0:
        return W, Subspace(field, pair.lie_dim)
    if not constraints:
        return W, Subspace(field, pair.lie_dim, lie_r.rows)
    vecs = []
    for sol in nullspace(constraints, field, lie_r.dim):
        v = [field.zero] * pair.lie_dim
        for c, row in zip(sol, lie_r.rows):
            v = [a + c * b for a, b in zip(v, row)]
        vecs.append(v)
    return W, Subspace(field, pair.lie_dim, vecs)


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5], ids=str)
@pytest.mark.parametrize("spec", SHIPPED_PAIRS)
def test_radical_matches_referee(spec, field, monkeypatch):
    monkeypatch.chdir(os.path.dirname(FIXTURES))
    pair = resolve_pair(field, spec)
    rng = random.Random("radical %s %s" % (spec, field))
    l = pair.lie_dim
    spaces = [full_lie(pair), Subspace(field, l)] + [
        Subspace(field, l, [[field.from_int(rng.randint(-2, 2)) for _ in range(l)]
                            for _ in range(rng.randint(0, l))])
        for _ in range(20)
    ]
    for lie_r in spaces:
        W, lie_hr = r_radical(pair, lie_r)
        W_ref, hr_ref = radical_referee(pair, lie_r)
        assert W.sub.rows == W_ref.rows
        assert lie_hr.rows == hr_ref.rows


class TestSubmoduleStability:
    def test_coordinate_submodule_stable(self):
        pair = pseudoabelian_example(Q, 1)
        sub = Submodule(pair, Subspace(Q, 2, [[Q.one, Q.zero]]))
        assert sub.check_stable()

    def test_unstable_submodule_detected(self):
        pair = gl11_pair(Q)
        # span{v+ + v-} is not stable under the diagonal torus
        sub = Submodule(pair, Subspace(Q, 2, [[Q.one, Q.one]]))
        assert not sub.check_stable()


class TestExactSequence:
    def test_pseudoabelian_splitting(self):
        mid = pseudoabelian_example(Q, 1)
        # inner: the submodule span{w1} with zero brackets, same group
        inner = pseudoabelian_example(Q, 1)
        inner_w = _make_submodule_pair(Q)
        outer = _make_quotient_pair(Q)
        report = check_exact_sequence(
            inner_w,
            [[Q.one], [Q.zero]],
            [[Q.one]],
            mid,
            outer,
            [[Q.zero, Q.one]],
            even_level_exact=True,
        )
        assert report.holds, report.failures

    def test_embedding_that_is_not_injective_reported(self):
        mid = pseudoabelian_example(Q, 1)
        report = check_exact_sequence(
            _make_submodule_pair(Q), [[Q.zero], [Q.zero]], [[Q.one]], mid,
            _make_quotient_pair(Q), [[Q.zero, Q.one]],
        )
        assert "(1) W -> V is not injective" in report.failures

    def test_matrices_of_the_wrong_shape_rejected(self):
        mid = pseudoabelian_example(Q, 1)
        inner, outer = _make_submodule_pair(Q), _make_quotient_pair(Q)
        for w_to_v, v_to_u, what in (([[Q.one]], [[Q.zero, Q.one]], "embedding"),
                                     ([[Q.one], [Q.zero]], [[Q.zero]], "projection")):
            with pytest.raises(HCPError, match="%s matrix has wrong shape" % what):
                check_exact_sequence(inner, w_to_v, [[Q.one]], mid, outer, v_to_u)

    def test_fixture_flag_propagates(self):
        mid = pseudoabelian_example(Q, 1)
        inner_w = _make_submodule_pair(Q)
        outer = _make_quotient_pair(Q)
        report = check_exact_sequence(
            inner_w,
            [[Q.one], [Q.zero]],
            [[Q.one]],
            mid,
            outer,
            [[Q.zero, Q.one]],
            even_level_exact=False,
        )
        assert not report.holds


def _ga_group(field, x=None, point=None):
    """G_a as upper unitriangular 2x2 matrices, with Lie basis vector x
    (default E01) and generic point point (default [[1, s], [0, 1]])."""
    from superkit.hcp import GenericPoint, MatrixGroupModel

    s = sympy.Symbol("s")
    m = [[sympy.Symbol("m_%d_%d" % (i, j)) for j in range(2)] for i in range(2)]
    if point is None:
        point = GenericPoint([[1, s], [0, 1]], [[1, -s], [0, 1]], [])
    if x is None:
        x = [[field.zero, field.one], [field.zero, field.zero]]
    return MatrixGroupModel(
        field, 2, [m[0][0] - 1, m[1][1] - 1, m[1][0]], [x], [point], name="Ga"
    )


def _make_submodule_pair(field):
    from superkit.hcp import HarishChandraPair

    return HarishChandraPair(
        _ga_group(field), ["w1"], {}, name="inner"
    )


def _make_quotient_pair(field):
    from superkit.hcp import HarishChandraPair

    return HarishChandraPair(
        _ga_group(field), ["phi1"], {}, name="outer"
    )


class TestSerialization:
    def test_pair_roundtrip(self):
        pair = gl11_pair(Q)
        data = pair_to_json(pair)
        back = pair_from_json(Q, data)
        assert back.module_labels == pair.module_labels
        assert back.vv(0, 1) == pair.vv(0, 1)
        report = validate_pair(back)
        assert report.holds, report.failures

    @pytest.mark.parametrize("field", [Q, PrimeField(3), F5], ids=str)
    @pytest.mark.parametrize("name", sorted(BUILTIN_PAIRS))
    def test_builtin_roundtrip(self, name, field):
        pair = BUILTIN_PAIRS[name](field)
        data = pair_to_json(pair)
        back = pair_from_json(field, data)
        assert pair_to_json(back) == data
        want = validate_pair(pair)
        got = validate_pair(back)
        assert (got.holds, got.failures) == (want.holds, want.failures)

    @pytest.mark.parametrize("field", [Q, PrimeField(3), F5], ids=str)
    def test_matrix_mode_roundtrip(self, field):
        """A matrix-mode pair with nonzero [g,V] writes the table it derived
        as bracket_gv: x1·phi1 = w1 for the shear pair.  Reading the file
        derives the table again and checks it against the written one."""
        pair = shear_pair(field)
        data = pair_to_json(pair)
        assert data["bracket_gv"] == {"0,1": ["1", "0"]}
        back = pair_from_json(field, data)
        assert pair_to_json(back) == data
        assert validate_pair(back).holds

    def test_pseudoabelian_roundtrip(self):
        pair = pseudoabelian_example(Q, 1)
        back = pair_from_json(Q, pair_to_json(pair))
        report = validate_pair(back)
        assert report.holds, report.failures
        W, lie_hr = r_radical(back, full_lie(back))
        assert W.sub.dim == 2 and lie_hr.dim == 1


# -- g M g^-1 from the sparse entries of M, against the lifted products ---------


def conjugation_referee(mats, g, g_inv, expander, is_zero, zero, error, mul=mat_mul):
    """hcp._conjugation as it was: g M g^-1 by two whole matrix products,
    each M lifted to the ring first when the ring is a superalgebra."""
    cols = []
    for M in mats:
        vec = [x for row in mul(mul(g, M), g_inv) for x in row]
        c, ok = expander.coords_generic(vec, lambda c, x: x * c, add, is_zero, zero)
        if not ok:
            raise HCPError(error)
        cols.append(c)
    return transpose(cols)


CONJUGATION_PAIRS = {
    "gl11": gl11_pair,
    "gl21": gl21_pair,
    "pseudoabelian1": lambda field: pseudoabelian_example(field, 1),
}
CONJUGATION_FIELDS = {"Q": Q, "F3": PrimeField(3), "F5": F5}


@pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
@pytest.mark.parametrize("pair_name", sorted(CONJUGATION_PAIRS))
def test_conjugation_matches_lifted_products(pair_name, field_name):
    field = CONJUGATION_FIELDS[field_name]
    pair = CONJUGATION_PAIRS[pair_name](field)
    group = pair.group
    rng = random.Random(29 + field.char)
    R = grassmann(field, ["a1", "a2", "a3", "a4"])
    over_r = (Element.is_zero, R.zero(), "escapes", partial(mat_mul_over, R))
    for _ in range(4):
        g, g_inv = random_point(rng, pair, R)
        # the adjoint action over R goes through _conjugation in every mode
        lie = [lift_matrix(R, X) for X in group.lie_basis]
        assert hcp._conjugation(group.lie_basis, g, g_inv, group.lie_expander, Element.is_zero,
                                R.zero(), "escapes", partial(sum_products, R)) == \
            conjugation_referee(lie, g, g_inv, group.lie_expander, *over_r)
        if pair.mode == "conjugation":
            mods = [lift_matrix(R, M) for M in pair.module_matrices]
            assert pair.rho_over(R, g, g_inv) == conjugation_referee(
                mods, g, g_inv, pair.module_expander, *over_r)
    for point in group.generic_points:
        symbolic = (point.reducer.is_zero, Poly(field), "escapes")
        assert pair.ad_symbolic(point) == conjugation_referee(
            group.lie_basis, point.matrix, point.inverse, group.lie_expander, *symbolic)
        if pair.mode == "conjugation":
            assert pair.rho_symbolic(point) == conjugation_referee(
                pair.module_matrices, point.matrix, point.inverse, pair.module_expander,
                *symbolic)


# -- the Lie tables of a pair against the dense commutators they replaced ------


@pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
@pytest.mark.parametrize("spec", REALISED)
def test_derived_gv_matches_module_commutators(spec, field_name, monkeypatch):
    """The [g,V] of a conjugation-mode pair, the derivative of its action,
    against [X_k, M_i] from the dense commutator, as it was once computed."""
    monkeypatch.chdir(os.path.dirname(FIXTURES))
    field = CONJUGATION_FIELDS[field_name]
    pair = resolve_pair(field, spec)
    assert pair.mode == "conjugation"
    for k, X in enumerate(pair.group.lie_basis):
        for i, M in enumerate(pair.module_matrices):
            comm = mat_bracket(X, M, field.one)
            assert pair.gv(k, i) == pair.module_expander.coords_field(_flatten(comm)), (k, i)


@pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
@pytest.mark.parametrize("spec", SHIPPED_PAIRS)
def test_lie_table_matches_dense_commutators(spec, field_name, monkeypatch):
    """The sparse lie_table against the dense table of Lie coordinates of
    [X_a, X_b] from the dense commutator; no zero coordinate is stored."""
    monkeypatch.chdir(os.path.dirname(FIXTURES))
    field = CONJUGATION_FIELDS[field_name]
    group = resolve_pair(field, spec).group
    for a, X in enumerate(group.lie_basis):
        for b, Y in enumerate(group.lie_basis):
            want = group.lie_expander.coords_field(_flatten(mat_bracket(X, Y, field.one)))
            terms = group.lie_table.get((a, b), {})
            assert tuple(dense(terms, group.lie_dim, field.zero)) == want, (a, b)
            assert all(terms.values()) and ((a, b) in group.lie_table) == any(want)


@pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
@pytest.mark.parametrize("spec", REALISED)
def test_derived_vv_matches_dense_anticommutators(spec, field_name, monkeypatch):
    """The [V,V] a pair with row parities derives against the Lie
    coordinates of M_i·M_j + M_j·M_i from the dense anticommutator; only
    the nonzero brackets are stored."""
    monkeypatch.chdir(os.path.dirname(FIXTURES))
    field = CONJUGATION_FIELDS[field_name]
    pair = resolve_pair(field, spec)
    expander = pair.group.lie_expander
    for i, M in enumerate(pair.module_matrices):
        for j, N in enumerate(pair.module_matrices):
            want = expander.coords_field(_flatten(mat_bracket(M, N, -field.one)))
            assert pair.vv(i, j) == want and ((i, j) in pair._vv) == any(want), (i, j)


class TestDerivedVv:
    """With row parities the pair derives [V,V] from its module matrices;
    a given table is only compared with it."""

    @pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
    @pytest.mark.parametrize("name", ["gl11.pair.json", "gl21.pair.json", "osp12.pair.json"])
    def test_file_without_the_table_gives_the_shipped_pair(self, name, field_name):
        field = CONJUGATION_FIELDS[field_name]
        with open(os.path.join(FIXTURES, name)) as fh:
            data = json.load(fh)
        want = pair_to_json(pair_from_json(field, data))
        del data["bracket_vv"]
        assert pair_to_json(pair_from_json(field, data)) == want

    @pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
    def test_given_table_compared_after_symmetric_completion(self, field_name):
        field = CONJUGATION_FIELDS[field_name]
        pair = gl11_pair(field)
        one, zero = field.one, field.zero

        def build(vv):
            return HarishChandraPair(pair.group, pair.module_labels, vv,
                                     module_matrices=pair.module_matrices, row_parities=(0, 1))

        # one of the two mirror entries, and a zero bracket stated
        assert build({(0, 1): (one, one), (0, 0): (zero, zero)})._vv == pair._vv
        # no table, a bracket the anticommutator lacks, a key outside V x V
        for vv, key in (({}, (0, 1)), ({(0, 1): (one, one), (1, 1): (one, zero)}, (1, 1)),
                        ({(0, 1): (one, one), (1, 2): (one, one)}, (1, 2))):
            with pytest.raises(HCPError, match=re.escape("bracket_vv at (%d,%d)" % key)):
                build(vv)

    @pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
    def test_anticommutator_outside_lie_rejected(self, field_name):
        # G = diag(a, 1): E12·E21 + E21·E12 = I is not in Lie(G) = span{E11}
        field = CONJUGATION_FIELDS[field_name]
        one, zero = field.one, field.zero
        group = hcp.MatrixGroupModel(
            field, 2, ["m_0_1", "m_1_0", "m_1_1 - 1"], [[[one, zero], [zero, zero]]],
            [hcp.GenericPoint([["a", 0], [0, 1]], [["a_i", 0], [0, 1]], ["a*a_i - 1"])])
        units = [[[zero, one], [zero, zero]], [[zero, zero], [one, zero]]]
        with pytest.raises(HCPError, match="anticommutator of module matrices leaves Lie"):
            HarishChandraPair(group, ["v+", "v-"], module_matrices=units, row_parities=(0, 1))
        # without row parities the caller's [V,V] stands
        assert HarishChandraPair(group, ["v+", "v-"], module_matrices=units)._vv == {}


# -- rho(g) rho(h) = rho(gh) in both modes ------------------------------------


def represents_referee(pair, point):
    """rho(g) rho(h) = rho(gh) through rho_symbolic in either mode, for h
    the generic point g with each parameter x renamed x_h, modulo the
    relations of both.  validate_pair checks it for action matrices only:
    conjugation g M g^-1 is a representation once g g^-1 = I."""
    field = pair.field
    one = Poly.const(field, field.one)
    names = {v for e in _flatten(point.matrix) + point.relations for m in e.terms for v, _ in m}
    fresh = {v: Poly(field, {((v + "_h", 1),): field.one}) for v in names}

    def rename(M):
        return [[eval_at(e, fresh, one) for e in row] for row in M]

    h = hcp.GenericPoint(rename(point.matrix), rename(point.inverse),
                         [eval_at(r, fresh, one) for r in point.relations])
    gh = hcp.GenericPoint(mat_mul(point.matrix, h.matrix), mat_mul(h.inverse, point.inverse),
                          point.relations + h.relations)
    h.reducer = gh.reducer = Reducer(gh.relations)
    lhs = mat_mul(pair.rho_symbolic(point), pair.rho_symbolic(h))
    return all(gh.reducer.is_zero(x - y)
               for x, y in zip(_flatten(lhs), _flatten(pair.rho_symbolic(gh))))


@pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
@pytest.mark.parametrize("spec", SHIPPED_PAIRS)
def test_shipped_actions_are_representations(spec, field_name, monkeypatch):
    monkeypatch.chdir(os.path.dirname(FIXTURES))
    pair = resolve_pair(CONJUGATION_FIELDS[field_name], spec)
    for point in pair.group.generic_points:
        assert represents_referee(pair, point)
        if pair.mode == "matrix":
            assert hcp._represents(pair, point)


@pytest.mark.parametrize("field_name", sorted(CONJUGATION_FIELDS))
@pytest.mark.parametrize("entry", ["m_0_1", "m_0_1^2", "m_0_1^3"])
def test_representation_check_matches_referee(entry, field_name):
    """The square is no representation; the cube is one only in
    characteristic 3, where (s + t)^3 = s^3 + t^3."""
    field = CONJUGATION_FIELDS[field_name]
    pair = HarishChandraPair(pseudoabelian_example(field, 1).group, ["w1", "phi1"], {},
                             action_expr=[[1, entry], [0, 1]])
    point = pair.group.generic_points[0]
    want = entry == "m_0_1" or (entry == "m_0_1^3" and field_name == "F3")
    assert hcp._represents(pair, point) == represents_referee(pair, point) == want
