import pytest
import sympy

from superkit.fields import PrimeField, Rationals
from superkit.fixtures import BUILTIN_PAIRS, gl11_pair, gl21_pair, pair_from_json, pair_to_json
from superkit.hcp import (
    HCPError,
    Submodule,
    brute_force_largest_subordinated,
    check_exact_sequence,
    pseudoabelian_example,
    r_radical,
    subordinated_closure,
    validate_pair,
)
from superkit.linalg import Subspace, identity_matrix

Q = Rationals()
F5 = PrimeField(5)


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

    def test_broken_symmetry_detected(self):
        pair = gl11_pair(Q)
        pair._vv[(0, 1)] = (Q.one, Q.zero)  # no longer matches (1, 0)
        report = validate_pair(pair)
        assert not report.holds


class TestAssembledLie:
    def test_matches_gl_super(self):
        pair = gl11_pair(Q)
        L = pair.assembled_lie(check=True)
        # [v+, v-] = x1 + x2 (= E11 + E22 in the ambient matrices)
        br = L.bracket_basis(2, 3)
        assert br == {0: Q.one, 1: Q.one}

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
        for mk, lie_rows in [
            (lambda: pseudoabelian_example(Q, 1), None),
            (lambda: pseudoabelian_example(Q, 2), None),
            (lambda: gl11_pair(Q), [[Q.one, Q.one]]),
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


def _ga_group(field):
    from superkit.hcp import GenericPoint, MatrixGroupModel

    s = sympy.Symbol("s")
    m = [[sympy.Symbol("m_%d_%d" % (i, j)) for j in range(2)] for i in range(2)]
    point = GenericPoint([[1, s], [0, 1]], [[1, -s], [0, 1]], [])
    x = [[field.zero, field.one], [field.zero, field.zero]]
    return MatrixGroupModel(
        field, 2, [m[0][0] - 1, m[1][1] - 1, m[1][0]], [x], [point], name="Ga"
    )


def _make_submodule_pair(field):
    from superkit.hcp import HarishChandraPair

    return HarishChandraPair(
        _ga_group(field), ["w1"], {}, bracket_gv={}, name="inner"
    )


def _make_quotient_pair(field):
    from superkit.hcp import HarishChandraPair

    return HarishChandraPair(
        _ga_group(field), ["phi1"], {}, bracket_gv={}, name="outer"
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

    def test_pseudoabelian_roundtrip(self):
        pair = pseudoabelian_example(Q, 1)
        back = pair_from_json(Q, pair_to_json(pair))
        report = validate_pair(back)
        assert report.holds, report.failures
        W, lie_hr = r_radical(back, full_lie(back))
        assert W.sub.dim == 2 and lie_hr.dim == 1
