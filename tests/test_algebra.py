import random
from operator import add, mul, not_
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from superkit import algebra as algebra_module
from superkit.algebra import (
    AlgebraError,
    Element,
    SuperAlgebra,
    SuperIdeal,
    dual_numbers,
    first_non_multiplicative,
    grassmann,
    ground_algebra,
    mat_mul_over,
    sum_products,
    odd_ideal,
    polynomial_truncation,
    tensor,
    tensor_pure,
)
from superkit.fields import PrimeField, Rationals
from superkit.filtration import adic_filtration
from superkit.gamma import tangent_algebra
from superkit.hopf import grassmann_hopf
from superkit.hyp import additive_truncation, dual_hopf
from superkit.linalg import (
    BasisExpander, Subspace, dense, identity_matrix, invert_matrix, kernel, kron, mat_mul,
    nullspace, rref, solve, transpose,
)
from superkit.symbolic import Poly, Reducer

from conftest import random_element

Q = Rationals()
F3, F5 = PrimeField(3), PrimeField(5)


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
        D = dual_numbers(Q)
        e0, e1 = D.basis_element(1), D.basis_element(2)
        assert D.dim == 3 and D.unit == D.basis_element(0)
        assert D.multiply(e0, e0).is_zero()
        assert D.multiply(e1, e1).is_zero()
        assert D.multiply(e0, e1).is_zero()
        assert e0.parity() == 0 and e1.parity() == 1


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

    def test_closure_that_does_not_grow_raises(self, monkeypatch):
        """A round that adds vectors but leaves the span as it was cannot
        reach a fixpoint: _close raises instead of looping."""

        class Looping(Exception):
            pass

        calls = []

        def stuck(self, vectors):
            calls.append(vectors)
            if len(calls) > 5:
                raise Looping
            return self

        A = grassmann(Q, ["a", "b"])
        monkeypatch.setattr(Subspace, "add_vectors", stuck)
        with pytest.raises(AlgebraError, match="did not grow"):
            SuperIdeal(A, [A.element({"a": 1})])
        assert len(calls) == 1


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
        tensor(grassmann(field, ["a"]), dual_numbers(field)),
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


class TestKernel:
    @pytest.mark.parametrize("field", [Q, F3, F5], ids=lambda f: f.name)
    def test_no_rows_give_the_whole_space(self, field):
        for n in range(1, 5):
            assert kernel(field, n, []) == Subspace(field, n, identity_matrix(n, field))

    def test_zero_ambient_gives_the_zero_space(self):
        for rows in ([], [()], [(), ()]):
            assert kernel(Q, 0, rows) == Subspace(Q, 0)

    def test_rows_give_their_nullspace(self):
        rows = [(Q.one, Q.one, Q.zero), (Q.zero, Q.one, -Q.one)]
        K = kernel(Q, 3, rows)
        assert K.dim == 1 and K == Subspace(Q, 3, nullspace(rows, Q, 3))
        assert all(sum(r * x for r, x in zip(row, K.rows[0])) == 0 for row in rows)


def reference_coords_generic(field, basis, vec, scal, add, is_zero, zero):
    """The dense expansion that BasisExpander.coords_generic replaced: each
    coordinate reads every pivot, and every entry of vec is rebuilt."""
    _, pivots = rref(basis, field)
    pinv = invert_matrix([[b[p] for b in basis] for p in pivots], field)
    reads = [[(p, c) for p, c in zip(pivots, row) if c] for row in pinv]
    entries = [[(i, b[t]) for i, b in enumerate(basis) if b[t]] for t in range(len(basis[0]))]
    coords = []
    for row in reads:
        acc = None
        for p, c in row:
            x = vec[p]
            if x:
                term = scal(c, x)
                acc = term if acc is None else add(acc, term)
        coords.append(zero if acc is None else acc)
    minus_one = -field.one
    for t, x in enumerate(vec):
        recon = None
        for i, b in entries[t]:
            y = coords[i]
            if y:
                term = scal(b, y)
                recon = term if recon is None else add(recon, term)
        diff = x if recon is None else add(x, scal(minus_one, recon))
        if not is_zero(diff):
            return coords, False
    return coords, True


@pytest.mark.parametrize("field", [Q, F3, F5], ids=lambda f: f.name)
def test_coords_generic_matches_the_dense_reference(field):
    # over the field, over R = Λ(a, b) and over Polys modulo p*q - 1; the
    # last entry of K^7 lies in no basis vector's support, so it is never
    # rebuilt, and p*q - 1 there is nonzero yet zero modulo the ideal
    rng = random.Random(61 + field.char)
    R = grassmann(field, ["a", "b"])
    vanishing = Poly.read(field, "p*q - 1")
    polys = [Poly.read(field, t) for t in ("1", "p", "q", "p*q", "p^2 - q")]
    times = lambda c, x: x * c  # noqa: E731
    rings = [  # (sample, scal, is_zero, zero, an entry that vanishes in the ring)
        (lambda: field.from_int(rng.randint(-2, 2)), mul, not_, field.zero, None),
        (lambda: random_element(rng, R, bound=2), times, Element.is_zero, R.zero(), None),
        (lambda: rng.choice(polys) * field.from_int(rng.randint(-2, 2)), times,
         Reducer([vanishing]).is_zero, Poly(field), vanishing),
    ]
    seen = set()
    for sample, scal, is_zero, zero, null in rings:
        for _ in range(12):
            k = rng.randint(1, 4)
            basis = [tuple(field.from_int(rng.choice((0, 0, 1, -1, 2))) for _ in range(6))
                     + (field.zero,) for _ in range(k)]
            if len(rref(basis, field)[0]) < k:
                continue
            expander = BasisExpander(field, basis)
            inside = [zero] * 7
            for b in basis:
                c = sample()
                inside = [add(x, scal(e, c)) for x, e in zip(inside, b)]

            def shifted(t, y):
                return inside[:t] + [add(inside[t], y)] + inside[t + 1:]

            t = rng.randrange(7)
            vecs = [inside, shifted(t, sample())]
            if null is not None:
                vecs += [shifted(6, null), shifted(t, null)]
            for vec in vecs:
                want = reference_coords_generic(field, basis, vec, scal, add, is_zero, zero)
                assert expander.coords_generic(vec, scal, add, is_zero, zero) == want
                seen.add(want[1])
            assert all(reference_coords_generic(field, basis, vec, scal, add, is_zero, zero)[1]
                       for vec in vecs[:1] + vecs[2:])
    assert seen == {True, False}


def dense_unit_law_failure(A, unit):
    """The label of the first e_i with u·e_i != e_i or e_i·u != e_i, for the
    element u with coordinates unit, on the table of A; None if there is none."""
    u = Element(A, unit)
    for i in range(A.dim):
        e = A.basis_element(i)
        if dense_multiply(A, u, e) != e.coords or dense_multiply(A, e, u) != e.coords:
            return A.space.labels[i]
    return None


def test_unit_law_matches_the_dense_referee():
    import random

    rng = random.Random(5)
    seen = {"raise": 0, "hold": 0}
    for field in (Q, F3, F5):
        for A in (grassmann(field, ["a", "b"]), polynomial_truncation(field, "t", 3),
                  shifted_unit_algebra(field), idempotent_algebra(field)):
            even = [i for i in range(A.dim) if A.space.parities[i] == 0]
            for _ in range(4):
                unit = list(A.unit.coords)
                if rng.random() < 0.75:
                    i = rng.choice(even)
                    unit[i] = unit[i] + field.from_int(rng.choice((-1, 1, 2)))
                label = dense_unit_law_failure(A, unit)
                try:
                    SuperAlgebra(field, A.space.labels, A.space.parities, unit,
                                 table_of(A), check=False)
                    got = None
                except AlgebraError as exc:
                    got = str(exc)
                assert got == (None if label is None else "unit law fails at %s" % label)
                seen["hold" if label is None else "raise"] += 1
    assert min(seen.values()) > 0, seen


# -- the dense kernel, kept as the referee of the sparse one --------------


def dense_add(x, y, sign):
    return tuple(a + b if sign > 0 else a - b for a, b in zip(x.coords, y.coords))


def dense_scale(x, c):
    return tuple(c * a for a in x.coords)


def dense_multiply(A, x, y):
    """The dense product loop: every pair of nonzero coordinates through
    product_coords, summed into a dense out list."""
    out = [A.field.zero] * A.dim
    xc, yc = x.coords, y.coords
    for i in range(A.dim):
        for j in range(A.dim):
            if xc[i] and yc[j]:
                for k, s in A.product_coords(i, j).items():
                    out[k] = out[k] + xc[i] * yc[j] * s
    return tuple(out)


def dense_parity(x):
    seen = {x.algebra.space.parities[i] for i, c in enumerate(x.coords) if c}
    return None if len(seen) > 1 else (seen.pop() if seen else 0)


def dense_homogeneous_part(x, p):
    par, zero = x.algebra.space.parities, x.algebra.field.zero
    return tuple(c if par[i] == p else zero for i, c in enumerate(x.coords))


def dense_inverse(x):
    """Coordinates of x^-1 from the linear solve of x·y = 1 over dense
    products, or None."""
    A = x.algebra
    basis = [Element(A, [A.field.one if t == j else A.field.zero for t in range(A.dim)])
             for j in range(A.dim)]
    cols = [dense_multiply(A, x, e) for e in basis]
    return solve(transpose(cols), A.unit.coords, A.field)


def grassmann_mod_ab(field):
    """Λ(a,b,c)/(ab) on the basis 1, a, b, c, a*c, b*c: the products of
    Λ(a,b,c) with their terms in ab and abc dropped, keyed row by row."""
    one = field.one
    products = {(0, i): {i: one} for i in range(6)}
    products.update({(i, 0): {i: one} for i in range(1, 6)})
    products.update({(1, 3): {4: one}, (3, 1): {4: -one}, (2, 3): {5: one}, (3, 2): {5: -one}})
    return SuperAlgebra(
        field, ["1", "a", "b", "c", "a*c", "b*c"], [0, 1, 1, 1, 0, 0],
        [one] + [field.zero] * 5, dict(sorted(products.items())), name="Lambda(a,b,c)/I",
    )


def _kernel_algebras():
    out = []
    for field in (Q, F3, F5):
        out += [grassmann(field, ["a%d" % i for i in range(1, k + 1)]) for k in range(1, 7)]
        out += [polynomial_truncation(field, "t", m) for m in (2, 3, 5)]
        out.append(tensor(grassmann(field, ["a", "b"]), polynomial_truncation(field, "t", 2)))
        out.append(tensor(grassmann(field, ["a"]), dual_numbers(field)))
        out.append(grassmann_mod_ab(field))
    return out


KERNEL_ALGEBRAS = _kernel_algebras()

# mostly zeros, so that sums and products cancel often (3 is zero in F3)
SPARSE_INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])


def sparse_element(data, A, label):
    ints = data.draw(st.lists(SPARSE_INTS, min_size=A.dim, max_size=A.dim), label=label)
    return as_element(A, ints)


def assert_sparse(x, want):
    """x holds no zero coefficient and has the dense coordinates want."""
    assert all(x.terms.values())
    assert x.coords == tuple(want)
    assert x == Element(x.algebra, want)


KERNEL = settings(max_examples=150, deadline=None, database=None, derandomize=True)


class TestSparseKernel:
    @KERNEL
    @given(st.data())
    def test_arithmetic_matches_dense(self, data):
        A = data.draw(st.sampled_from(KERNEL_ALGEBRAS), label="algebra")
        x, y = sparse_element(data, A, "x"), sparse_element(data, A, "y")
        c = A.field.from_int(data.draw(SPARSE_INTS, label="c"))
        assert_sparse(x + y, dense_add(x, y, 1))
        assert_sparse(x - y, dense_add(x, y, -1))
        assert_sparse(-x, dense_scale(x, -A.field.one))
        assert_sparse(x.scale(c), dense_scale(x, c))
        assert_sparse(A.multiply(x, y), dense_multiply(A, x, y))
        assert_sparse(x * y, dense_multiply(A, x, y))
        assert x.parity() == dense_parity(x)
        for p in (0, 1):
            assert_sparse(x.homogeneous_part(p), dense_homogeneous_part(x, p))
        even, odd = x.homogeneous_part(0), x.homogeneous_part(1)
        assert_sparse(x.involution(), dense_add(even, odd, -1))
        assert x.support() == [i for i, v in enumerate(x.coords) if v]

    @KERNEL
    @given(st.data())
    def test_invert_matches_dense(self, data):
        A = data.draw(st.sampled_from(KERNEL_ALGEBRAS), label="algebra")
        x = sparse_element(data, A, "x")
        if data.draw(st.booleans(), label="shift by a unit"):
            x = x + A.unit.scale(A.field.from_int(data.draw(st.sampled_from([1, -1, 2]))))
        want = dense_inverse(x)
        if want is None:
            with pytest.raises(AlgebraError):
                x.invert()
        else:
            assert_sparse(x.invert(), want)

    @KERNEL
    @given(st.data())
    def test_cancellation_stores_nothing(self, data):
        A = data.draw(st.sampled_from(KERNEL_ALGEBRAS), label="algebra")
        x = sparse_element(data, A, "x")
        odd = x.homogeneous_part(1)
        # an odd element squares to zero, term by term cancelling in a sum
        for zero in (x - x, x + (-x), x.scale(A.field.zero), A.multiply(odd, odd)):
            assert zero.is_zero()
            assert zero == A.zero()
            assert zero.terms == {}

    @pytest.mark.parametrize("field", [Q, F3, F5])
    def test_product_sums_cancel(self, field):
        A = grassmann(field, ["a", "b"])
        x = A.element({"a": 1, "b": 1})
        # ab + ba: both pairs land on a*b and cancel
        assert A.multiply(x, x).terms == {}
        assert A.multiply(x, A.element({"a": 1, "b": -1})) == A.element({"a*b": -2})

    @KERNEL
    @given(st.data())
    def test_dense_and_sparse_builds_agree(self, data):
        A = data.draw(st.sampled_from(KERNEL_ALGEBRAS), label="algebra")
        ints = data.draw(st.lists(SPARSE_INTS, min_size=A.dim, max_size=A.dim), label="x")
        vec = [A.field.from_int(n) for n in ints]
        from_dense = Element(A, vec)
        by_label = A.element({A.space.labels[i]: n for i, n in enumerate(ints)})
        by_basis = A.zero()
        for i, c in enumerate(vec):
            by_basis = by_basis + A.basis_element(i).scale(c)
        for x in (by_label, by_basis):
            assert x == from_dense
            assert x.coords == from_dense.coords == tuple(vec)
            assert all(x.terms.values())


# -- the matrix kernel against linalg.mat_mul over Elements ---------------


def shifted_unit_algebra(field):
    """K[t]/(t^2) on the basis (1 + t, t): the unit is not a basis vector,
    so no entry is a multiple of the unit basis vector."""
    one = field.one
    return SuperAlgebra(
        field, ["1+t", "t"], [0, 0], [one, -one],
        {(0, 0): {0: one, 1: one}, (0, 1): {1: one}, (1, 0): {1: one}},
        check=True, name="K[t]/(t^2), shifted basis",
    )


def _matrix_algebras():
    out = []
    for field in (Q, F3, F5):
        out += [grassmann(field, ["a%d" % i for i in range(1, k + 1)]) for k in range(1, 6)]
        out.append(polynomial_truncation(field, "t", 3))
        out.append(tangent_algebra(field)[0])
        out.append(shifted_unit_algebra(field))
    return out


MATRIX_ALGEBRAS = _matrix_algebras()


def matrix_entry(data, A, label):
    """Zero, a multiple c·1 of the unit, or a few sparse terms."""
    kind = data.draw(st.sampled_from(["zero", "unit", "terms", "terms", "terms"]), label=label)
    if kind == "zero":
        return A.zero()
    if kind == "unit":
        return A.unit.scale(A.field.from_int(data.draw(st.sampled_from([1, -1, 2]))))
    picks = data.draw(
        st.dictionaries(st.integers(0, A.dim - 1), st.sampled_from([1, -1, 2, -2, 3]),
                        min_size=1, max_size=3),
        label=label,
    )
    return Element(A, [A.field.from_int(picks.get(i, 0)) for i in range(A.dim)])


def random_matrix(data, A, rows, cols, label):
    mat = [[matrix_entry(data, A, label) for _ in range(cols)] for _ in range(rows)]
    if data.draw(st.integers(0, 3), label=label + " zero row") == 0:
        mat[data.draw(st.integers(0, rows - 1))] = [A.zero()] * cols
    return mat


class TestMatrixKernel:
    """mat_mul_over against the entrywise product of linalg.mat_mul, and
    sum_products against products added one by one."""

    @KERNEL
    @given(st.data())
    def test_matches_mat_mul(self, data):
        A = data.draw(st.sampled_from(MATRIX_ALGEBRAS), label="algebra")
        n, m, l = (data.draw(st.integers(1, 3), label=s) for s in "nml")
        X = random_matrix(data, A, n, m, "X")
        Y = random_matrix(data, A, m, l, "Y")
        if m >= 2 and data.draw(st.booleans(), label="cancel"):
            # X[i][1]·Y[1][k] = -X[i][0]·Y[0][k]: those two products cancel
            for row in X:
                row[1] = -row[0]
            Y[1] = list(Y[0])
        got = mat_mul_over(A, X, Y)
        want = mat_mul(X, Y)
        event("zero entries %d of %d" % (sum(x.is_zero() for r in want for x in r), n * l))
        assert got == want
        for row in got:
            assert len(row) == l
            for x in row:
                assert x.algebra is A and all(x.terms.values())

    @KERNEL
    @given(st.data())
    def test_sum_products_matches_added_products(self, data):
        A = data.draw(st.sampled_from(MATRIX_ALGEBRAS), label="algebra")
        pieces = [
            (data.draw(st.sampled_from("pqr"), label="key"),
             matrix_entry(data, A, "x"), matrix_entry(data, A, "y"))
            for _ in range(data.draw(st.integers(0, 6), label="pieces"))
        ]
        if pieces and data.draw(st.booleans(), label="cancel"):
            key, x, y = pieces[0]
            pieces.append((key, -x, y))
        want = {}
        for key, x, y in pieces:
            want[key] = want.get(key, A.zero()) + A.multiply(x, y)
        got = sum_products(A, pieces)
        assert got == {key: v for key, v in want.items() if not v.is_zero()}
        for x in got.values():
            assert x.algebra is A and all(x.terms.values())

    @pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
    def test_sums_cancel_to_zero(self, field):
        A = grassmann(field, ["a", "b"])
        a, b = A.element({"a": 1}), A.element({"b": 1})
        # a·b + b·a = 0 and 2·1·a + (-2)·a = 0, through contraction and scaling
        got = mat_mul_over(A, [[a, b], [A.unit.scale(field.from_int(2)), A.zero()]],
                           [[b, A.zero()], [a, A.unit]])
        assert got == [[A.zero(), b], [b.scale(field.from_int(2)), A.zero()]]
        assert [x.terms for x in got[0]] == [{}, b.terms]
        got = mat_mul_over(A, [[A.unit.scale(field.from_int(2)), A.unit]],
                           [[a], [a.scale(field.from_int(-2))]])
        assert got[0][0].terms == {}


# -- algebra-morphism check against the dense per-pair loop --------------


def dense_first_non_multiplicative(source, target, images):
    """The first pair (i, j), row by row, with phi(e_i e_j) != phi(e_i)
    phi(e_j), the images expanded to dense coordinates and every product
    taken by the dense loop; None if there is none."""
    zero = target.field.zero
    cols = [dense(images[k], target.dim, zero) for k in range(source.dim)]

    def phi(coords):
        out = [zero] * target.dim
        for k, c in enumerate(coords):
            if c:
                out = [a + c * b for a, b in zip(out, cols[k])]
        return Element(target, out)

    basis = [source.basis_element(i) for i in range(source.dim)]
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = phi(dense_multiply(source, basis[i], basis[j]))
            rhs = dense_multiply(target, phi(basis[i].coords), phi(basis[j].coords))
            if lhs.coords != rhs:
                return i, j
    return None


MORPHISM_ALGEBRAS = [A for A in KERNEL_ALGEBRAS if A.dim <= 8]


class TestFirstNonMultiplicative:
    @KERNEL
    @given(st.data())
    def test_matches_dense(self, data):
        source = data.draw(st.sampled_from(MORPHISM_ALGEBRAS), label="source")
        kind = data.draw(st.sampled_from(["identity", "augmentation", "random"]), label="map")
        if kind == "identity":
            target = source
            images = [{i: source.field.one} for i in range(source.dim)]
        else:
            targets = [A for A in MORPHISM_ALGEBRAS if A.field == source.field]
            target = data.draw(st.sampled_from(targets), label="target")
            if kind == "augmentation":
                images = [dict(target.unit.terms) if i == source.unit_index else {}
                          for i in range(source.dim)]
            else:
                images = [sparse_element(data, target, "image %d" % i).terms
                          for i in range(source.dim)]
        if data.draw(st.booleans(), label="perturb"):
            k = data.draw(st.integers(0, source.dim - 1), label="column")
            shift = sparse_element(data, target, "shift")
            images[k] = (Element._from_terms(target, images[k]) + shift).terms
        want = dense_first_non_multiplicative(source, target, images)
        event("multiplicative" if want is None else "not multiplicative")
        assert first_non_multiplicative(source, target, images) == want

    @pytest.mark.parametrize("field", [Q, F3, F5])
    def test_first_failing_pair_row_by_row(self, field):
        A = grassmann(field, ["a", "b"])
        images = [{i: field.one} for i in range(A.dim)]
        assert first_non_multiplicative(A, A, images) is None
        images[A.space.index("a*b")] = {}
        assert first_non_multiplicative(A, A, images) == (1, 2)


# -- full validation against the dense associativity sweep ----------------


def dense_associativity_failure(A):
    """The message the dense triple loop raises first, or None."""
    n, one, zero = A.dim, A.field.one, A.field.zero

    def e(i):
        return Element(A, [one if t == i else zero for t in range(n)])

    for i in range(n):
        for j in range(n):
            eij = Element(A, dense_multiply(A, e(i), e(j)))
            for k in range(n):
                lhs = dense_multiply(A, eij, e(k))
                rhs = dense_multiply(A, e(i), Element(A, dense_multiply(A, e(j), e(k))))
                if lhs != rhs:
                    return "not associative at (%s,%s,%s)" % tuple(
                        A.space.labels[t] for t in (i, j, k))
    return None


def table_of(A):
    return {key: dict(terms) for key, terms in A._prod.items()}


def validation_outcome(field, labels, parities, unit, products):
    """(message of the full check or None, message of the dense referee or None)."""
    try:
        SuperAlgebra(field, labels, parities, unit, products, check=True)
        full = None
    except AlgebraError as exc:
        full = str(exc)
    A = SuperAlgebra(field, labels, parities, unit, products, check=False)
    return full, dense_associativity_failure(A)


def perturbed_table(A, rng):
    """A's table with one product of two non-unit basis vectors changed,
    keeping parity additivity and supercommutativity."""
    field, par = A.field, A.space.parities
    idx = [i for i in range(A.dim) if i != A.unit_index]
    products = table_of(A)
    i, j = rng.choice(idx), rng.choice(idx)
    k = rng.choice([t for t in range(A.dim) if par[t] == (par[i] + par[j]) % 2])
    c = field.from_int(rng.choice([1, -1, 2]))
    sign = -field.one if par[i] * par[j] else field.one
    if i == j and sign == -field.one:
        # an odd square is forced to zero by supercommutativity
        products.pop((i, i), None)
    else:
        products.setdefault((i, j), {})[k] = c
        products.setdefault((j, i), {})[k] = sign * c
    return products


def test_full_validation_matches_dense_on_shipped_json():
    import json
    from pathlib import Path

    from superkit.fixtures import algebra_from_json

    root = Path(__file__).resolve().parent.parent / "fixtures"
    for name in ("grassmann2.alg.json", "grassmann3.hopf.json"):
        data = json.loads((root / name).read_text())
        for field in (Q, F3, F5):
            A = algebra_from_json(field, data)
            assert dense_associativity_failure(A) is None


def test_full_validation_matches_dense_on_perturbed_tables():
    import random

    rng = random.Random(8)
    seen = {"raise": 0, "hold": 0}
    for field in (Q, F3, F5):
        bases = [
            grassmann(field, ["a", "b"]),
            grassmann(field, ["a", "b", "c"]),
            polynomial_truncation(field, "t", 4),
            tensor(grassmann(field, ["a"]), polynomial_truncation(field, "t", 2)),
        ]
        for _ in range(20):
            A = rng.choice(bases)
            products = perturbed_table(A, rng)
            full, dense = validation_outcome(
                field, A.space.labels, A.space.parities, A.unit.coords, products)
            assert full == dense
            seen["raise" if full else "hold"] += 1
    assert sum(seen.values()) >= 50 and min(seen.values()) > 0, seen


# -- tensor against the validated build it replaced -------------------------


def validated_tensor(A, B):
    """The Koszul-sign tensor product handed to the public constructor, which
    checks parity additivity, supercommutativity and the unit law: the
    referee for algebra.tensor, which assembles the same table unchecked."""
    field = A.field
    dimB = B.dim
    labels = ["%s⊗%s" % (la, lb) for la in A.space.labels for lb in B.space.labels]
    parities = [(pa + pb) % 2 for pa in A.space.parities for pb in B.space.parities]
    products = {}
    for (i, k), pa in A._prod.items():
        for (j, l), pb in B._prod.items():
            sign = field.one if B.space.parities[j] * A.space.parities[k] == 0 else -field.one
            terms = {}
            for u, cu in pa.items():
                for v, cv in pb.items():
                    terms[u * dimB + v] = sign * cu * cv
            products[(i * dimB + j, k * dimB + l)] = terms
    unit = kron(A.unit.coords, B.unit.coords, field)
    return SuperAlgebra(
        field, labels, parities, unit, products, check=False,
        name="%s⊗%s" % (A.name or "?", B.name or "?"),
    )


def tensor_factors(field):
    lam2 = grassmann(field, ["a", "b"])
    return [grassmann(field, ["a%d" % i for i in range(1, k + 1)]) for k in range(4)] + [
        polynomial_truncation(field, "t", 2),
        polynomial_truncation(field, "t", 3),
        ground_algebra(field),
        tensor(ground_algebra(field), dual_numbers(field)),
        additive_truncation(field, 3).algebra,
        adic_filtration(lam2, odd_ideal(lam2)).companion.gr,
        dual_hopf(grassmann_hopf(field, ["t1", "t2"])).algebra,
        shifted_unit_algebra(field),
    ]


@pytest.mark.parametrize("field", [Q, F3, F5], ids=lambda f: f.name)
def test_tensor_matches_the_validated_referee(field):
    factors = tensor_factors(field)
    full = 0
    for A in factors:
        for B in factors:
            if A.dim * B.dim > 32:
                continue
            T, ref = tensor(A, B), validated_tensor(A, B)
            assert (T.name, T.space.labels, T.space.parities) == (
                ref.name, ref.space.labels, ref.space.parities)
            assert list(T._unit_terms.items()) == list(ref._unit_terms.items())
            assert T.unit_index == ref.unit_index
            assert [(key, list(terms.items())) for key, terms in T._prod.items()] == [
                (key, list(terms.items())) for key, terms in ref._prod.items()]
            if T.dim <= 16:
                T._validate(full=True)
                full += 1
    assert full >= 120
