from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from superkit import algebra as algebra_module
from superkit.algebra import (
    AlgebraError,
    DualSuperNumbers,
    Element,
    SuperAlgebra,
    grassmann,
    odd_ideal,
    polynomial_truncation,
    quotient_by_ideal,
    tensor,
    tensor_pure,
)
from superkit.fields import PrimeField, Rationals

from conftest import random_element

Q = Rationals()
F5 = PrimeField(5)


def small_coords(dim):
    return st.lists(
        st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim
    )


def as_element(A, ints):
    return Element(A, [A.field.from_int(n) for n in ints])


class TestGrassmann:
    def test_basis_order_and_signs(self):
        A = grassmann(Q, ["a", "b"])
        assert list(A.space.labels) == ["1", "a", "b", "a*b"]
        a = A.element({"a": 1})
        b = A.element({"b": 1})
        ab = A.multiply(a, b)
        assert ab == A.element({"a*b": 1})
        assert A.multiply(b, a) == -ab
        assert A.multiply(a, a).is_zero()

    def test_parity_of_monomials(self):
        A = grassmann(Q, ["a", "b", "c"])
        assert list(A.space.parities) == [0, 1, 1, 1, 0, 0, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(small_coords(8), small_coords(8), small_coords(8))
    def test_associativity_random(self, xs, ys, zs):
        A = grassmann(Q, ["a", "b", "c"])
        x, y, z = as_element(A, xs), as_element(A, ys), as_element(A, zs)
        assert A.multiply(A.multiply(x, y), z) == A.multiply(x, A.multiply(y, z))

    @settings(max_examples=60, deadline=None)
    @given(small_coords(8), small_coords(8), st.sampled_from([0, 1]),
           st.sampled_from([0, 1]))
    def test_supercommutativity_random(self, xs, ys, p, q):
        A = grassmann(Q, ["a", "b", "c"])
        x = as_element(A, xs).homogeneous_part(p)
        y = as_element(A, ys).homogeneous_part(q)
        sign = -Q.one if p * q == 1 else Q.one
        assert A.multiply(x, y) == A.multiply(y, x).scale(sign)

    def test_prime_field_variant(self):
        A = grassmann(F5, ["a", "b"])
        a = A.element({"a": 1})
        b = A.element({"b": 1})
        assert A.multiply(a, b) == -A.multiply(b, a)


class TestDualSuperNumbers:
    def test_relations(self):
        K = polynomial_truncation(Q, "z", 1)
        D = DualSuperNumbers(K)
        e0, e1 = D.eps0(), D.eps1()
        A = D.algebra
        assert A.multiply(e0, e0).is_zero()
        assert A.multiply(e1, e1).is_zero()
        assert A.multiply(e0, e1).is_zero()
        assert e0.parity() == 0 and e1.parity() == 1

    def test_project_include_roundtrip(self):
        base = grassmann(Q, ["a"])
        D = DualSuperNumbers(base)
        r = base.element({"a": 2})
        assert D.project(D.include(r)) == r
        assert D.project(D.eps0()).is_zero()


class TestTensor:
    def test_koszul_sign(self):
        A = grassmann(Q, ["a"])
        B = grassmann(Q, ["b"])
        T = tensor(A, B)
        x = tensor_pure(T, A.element({"a": 1}), B.unit)
        y = tensor_pure(T, A.unit, B.element({"b": 1}))
        # (a⊗1)(1⊗b) = a⊗b, (1⊗b)(a⊗1) = -a⊗b
        ab = tensor_pure(T, A.element({"a": 1}), B.element({"b": 1}))
        assert T.multiply(x, y) == ab
        assert T.multiply(y, x) == -ab

    def test_unit_and_dims(self):
        A = grassmann(Q, ["a"])
        B = polynomial_truncation(Q, "t", 3)
        T = tensor(A, B)
        assert T.dim == 6
        assert T.multiply(T.unit, T.basis_element(4)) == T.basis_element(4)


class TestIdealsAndQuotients:
    def test_odd_ideal_of_grassmann(self):
        A = grassmann(Q, ["a", "b"])
        I = odd_ideal(A)
        assert I.sub.dim == 3  # a, b, a*b

    def test_quotient_is_even_part(self):
        A = grassmann(Q, ["a", "b"])
        Qa, proj, section = quotient_by_ideal(A, odd_ideal(A))
        assert Qa.dim == 1
        assert proj.apply(A.unit) == Qa.unit
        assert proj.apply(A.element({"a": 1})).is_zero()

    def test_quotient_multiplicative(self, rng):
        A = grassmann(Q, ["a", "b", "c"])
        I = odd_ideal(A)
        Qa, proj, _ = quotient_by_ideal(A, I)
        for _ in range(20):
            x = random_element(rng, A)
            y = random_element(rng, A)
            assert proj.apply(A.multiply(x, y)) == Qa.multiply(
                proj.apply(x), proj.apply(y)
            )


def idempotent_algebra(field):
    """K[t]/(t^2 - t): t is idempotent, so the algebra is not local."""
    one, zero = field.one, field.zero
    return SuperAlgebra(
        field, ["1", "t"], [0, 0], [one, zero],
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {1: one}},
        check=True, name="K[t]/(t^2-t)",
    )


LOCAL_ALGEBRAS = [
    A
    for field in (Q, F5)
    for A in [grassmann(field, ["a%d" % i for i in range(1, k + 1)]) for k in range(1, 6)]
    + [
        polynomial_truncation(field, "t", 4),
        tensor(grassmann(field, ["a", "b"]), polynomial_truncation(field, "t", 2)),
        DualSuperNumbers(grassmann(field, ["a"])).algebra,
    ]
]


def counting_solve():
    """Patch the linear solve behind Element.invert with a call counter."""
    return mock.patch.object(algebra_module, "solve", wraps=algebra_module.solve)


class TestInversion:
    def test_unipotent_inverse(self):
        A = grassmann(Q, ["a", "b"])
        u = A.unit + A.element({"a*b": 3})
        v = u.invert()
        assert A.multiply(u, v) == A.unit

    def test_non_invertible_raises(self):
        A = grassmann(Q, ["a", "b"])
        with pytest.raises(AlgebraError):
            A.element({"a": 1}).invert()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_local_inverse_matches_solve(self, data):
        A = data.draw(st.sampled_from(LOCAL_ALGEBRAS), label="algebra")
        x = as_element(A, data.draw(small_coords(A.dim), label="coords"))
        if not x.coords[A.unit_index]:
            x = x + A.unit.scale(A.field.from_int(data.draw(st.sampled_from([-2, -1, 1, 2]))))
        with counting_solve() as solve:
            inv = x.invert()
        assert solve.call_count == 0
        assert inv == x.invert_by_solve()
        assert A.multiply(x, inv) == A.unit

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nilpotent_raises_without_solve(self, data):
        A = data.draw(st.sampled_from(LOCAL_ALGEBRAS), label="algebra")
        coords = data.draw(small_coords(A.dim), label="coords")
        coords[A.unit_index] = 0
        x = as_element(A, coords)
        with counting_solve() as solve, pytest.raises(AlgebraError):
            x.invert()
        assert solve.call_count == 0
        with pytest.raises(AlgebraError):
            x.invert_by_solve()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([Q, F5]), small_coords(2))
    def test_non_local_algebra_uses_solve(self, field, ints):
        # only 0 is nilpotent here, so every x off the line K·1 needs the solve
        assume(ints[1] != 0)
        A = idempotent_algebra(field)
        x = as_element(A, ints)
        a, b = x.coords
        if a and a + b:
            with counting_solve() as solve:
                inv = x.invert()
            assert inv == x.invert_by_solve()
            assert A.multiply(x, inv) == A.unit
        else:
            with counting_solve() as solve, pytest.raises(AlgebraError):
                x.invert()
        assert solve.call_count == 1


class TestValidation:
    def test_bad_parity_rejected(self):
        # odd unit slot: product of two odds declared odd
        with pytest.raises(AlgebraError):
            SuperAlgebra(
                Q,
                ["1", "x"],
                [0, 1],
                [Q.one, Q.zero],
                {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one},
                 (1, 1): {1: Q.one}},
                check=True,
            )

    def test_non_supercommutative_rejected(self):
        # x*y = z but y*x = z as well for odd x, y
        with pytest.raises(AlgebraError):
            SuperAlgebra(
                Q,
                ["1", "x", "y", "z"],
                [0, 1, 1, 0],
                [Q.one, Q.zero, Q.zero, Q.zero],
                {
                    (0, 0): {0: Q.one},
                    (0, 1): {1: Q.one}, (1, 0): {1: Q.one},
                    (0, 2): {2: Q.one}, (2, 0): {2: Q.one},
                    (0, 3): {3: Q.one}, (3, 0): {3: Q.one},
                    (1, 2): {3: Q.one}, (2, 1): {3: Q.one},
                },
                check=True,
            )
