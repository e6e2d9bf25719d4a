import random
from itertools import combinations_with_replacement, permutations

import pytest

from conftest import mat_bracket
from superkit.fields import PrimeField, Rationals
from superkit.linalg import row_entries, solve, sparse, supercommutator, transpose
from superkit.liesuper import (
    LieError,
    LieSuperAlgebra,
    MatrixLieSuper,
    gl_super,
)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)


def basis_coords(L, i):
    """The coordinate vector of the i-th basis vector of L."""
    return tuple(L.field.one if k == i else L.field.zero for k in range(L.dim))


def test_gl11_bracket_of_odd_pair():
    L = gl_super(Q, 1, 1)
    i_v = L.space.index("E12")
    i_w = L.space.index("E21")
    x = basis_coords(L, i_v)
    y = basis_coords(L, i_w)
    br = L.bracket(x, y)
    # {E12, E21} = E11 + E22
    want = [Q.zero] * L.dim
    want[L.space.index("E11")] = Q.one
    want[L.space.index("E22")] = Q.one
    assert list(br) == want


def reference_bracket(L, x, y):
    """The dense triple loop that LieSuperAlgebra.bracket replaced."""
    out = [L.field.zero] * L.dim
    for i, ci in enumerate(x):
        if not ci:
            continue
        for j, cj in enumerate(y):
            if not cj:
                continue
            c = ci * cj
            for k, s in L.bracket_basis(i, j).items():
                out[k] = out[k] + c * s
    return tuple(out)


def test_bracket_matches_the_dense_referee():
    rng = random.Random(31)
    seen = set()
    for field in (Q, F3, F5):
        for m, n in ((1, 1), (2, 1), (1, 2)):
            L = gl_super(field, m, n)

            def vector(parity=None):
                return [field.from_int(rng.choice((0, 0, -1, 1, 2)))
                        if parity is None or L.space.parities[i] == parity else field.zero
                        for i in range(L.dim)]

            for _ in range(10):
                x, y = vector(), vector()
                even = vector(0)
                for a, b in ((x, y), (y, x), (even, even), (x, basis_coords(L, 0))):
                    want = reference_bracket(L, a, b)
                    assert L.bracket(a, b) == want
                    seen.add(any(want))
    assert seen == {True, False}


def test_odd_self_bracket_is_anticommutator():
    L = gl_super(Q, 1, 1)
    i_v = L.space.index("E12")
    assert list(L.bracket(basis_coords(L, i_v), basis_coords(L, i_v))) == [Q.zero] * 4


def test_axioms_various_sizes():
    for field in (Q, F3):
        for (m, n) in [(1, 1), (2, 1), (1, 2)]:
            L = gl_super(field, m, n)
            report = L.check_axioms()
            assert report.holds, (m, n, field, report.failures)


def test_broken_b3_detected():
    # [x, y] = z but [y, x] = z too, both even
    with pytest.raises(LieError):
        LieSuperAlgebra(
            Q,
            ["x", "y", "z"],
            [0, 0, 0],
            {(0, 1): {2: Q.one}, (1, 0): {2: Q.one}},
            check=True,
        )


def test_b2_independent_of_b4_in_char_3():
    # u, w odd, x even with [u,u] = x, [x,u] = w and all else zero.
    # (B4) at (u,u,u) reads w = -2w, which holds exactly in
    # characteristic 3, yet [[u,u],u] = w is nonzero, so (B2) fails and
    # must be checked on its own.
    table = {
        (0, 0): {2: F3.one},
        (2, 0): {1: F3.one},
        (0, 2): {1: -F3.one},
    }
    L = LieSuperAlgebra(F3, ["u", "w", "x"], [1, 1, 0], table, check=False)
    report = L.check_axioms()
    assert not report.holds
    assert all("(B2)" in f for f in report.failures), report.failures


def test_ad_is_super_derivation():
    """[x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]] on basis vectors."""
    L = gl_super(Q, 2, 1)
    indices = (0, 1, 5)
    for i in indices:
        for j in indices:
            sign = -Q.one if L.space.parities[i] and L.space.parities[j] else Q.one
            x, y = basis_coords(L, i), basis_coords(L, j)
            for z in (basis_coords(L, k) for k in indices):
                lhs = L.bracket(x, L.bracket(y, z))
                t1 = L.bracket(L.bracket(x, y), z)
                t2 = L.bracket(y, L.bracket(x, z))
                assert lhs == tuple(a + sign * b for a, b in zip(t1, t2))


def test_matrix_basis_must_close():
    field = Q
    # E12 alone in gl(2): [E12, E12] = 0 fine; add E21 without E11, E22
    mats = [
        [[field.zero, field.one], [field.zero, field.zero]],
        [[field.zero, field.zero], [field.one, field.zero]],
    ]
    with pytest.raises(LieError):
        MatrixLieSuper(field, ["a", "b"], [0, 0], mats, [0, 0])


def test_open_matrix_basis_raises_the_closure_error():
    # {E12, E21} of gl(1|1): [E12, E21] = E11 + E22 lies outside their span
    L = gl_super(Q, 1, 1)
    mats = [L.matrices[L.space.index("E12")], L.matrices[L.space.index("E21")]]
    with pytest.raises(LieError, match="^matrix basis does not close under the supercommutator$"):
        MatrixLieSuper(Q, ["E12", "E21"], [1, 1], mats, (0, 1))


def test_dependent_matrix_basis_rejected():
    # E11 and 2·E11 close under the commutator but are not independent
    one, two, zero = Q.one, Q.from_int(2), Q.zero
    mats = [[[one, zero], [zero, zero]], [[two, zero], [zero, zero]]]
    with pytest.raises(LieError):
        MatrixLieSuper(Q, ["a", "b"], [0, 0], mats, [0, 0])


def test_inhomogeneous_matrix_basis_rejected():
    # gl(1|1) with every parity declared even is ordinary gl(2), which passes
    # the axiom sweep, but E12 and E21 are odd for the row parities (0, 1)
    L = gl_super(Q, 1, 1)
    with pytest.raises(LieError):
        MatrixLieSuper(Q, list(L.space.labels), [0] * 4, L.matrices, (0, 1))


# -- the sparse sweep and build against the dense reference ------------------


def dense_failures(L):
    """The axiom sweep over dense basis vectors, three dense brackets per
    basis triple: the reference for LieSuperAlgebra.check_axioms."""
    field, n, par = L.field, L.dim, L.space.parities
    labels = L.space.labels
    failures = []
    for i in range(n):
        for j in range(n):
            sign = -field.one if par[i] * par[j] == 0 else field.one
            lhs, rhs = L.bracket_basis(j, i), L.bracket_basis(i, j)
            if any(lhs.get(k, field.zero) != sign * rhs.get(k, field.zero)
                   for k in set(lhs) | set(rhs)):
                failures.append("(B3) fails at (%s,%s)" % (labels[i], labels[j]))
    basis = [basis_coords(L, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            bij = L.bracket(basis[i], basis[j])
            s2 = field.one if par[i] * par[j] == 0 else -field.one
            for k in range(n):
                lhs = L.bracket(bij, basis[k])
                mid = L.bracket(basis[i], L.bracket(basis[j], basis[k]))
                rot = L.bracket(basis[j], L.bracket(basis[i], basis[k]))
                if not all(lhs[t] == mid[t] - s2 * rot[t] for t in range(n)):
                    failures.append(
                        "(B4) fails at (%s,%s,%s)" % (labels[i], labels[j], labels[k])
                    )
    odd = [i for i in range(n) if par[i] == 1]
    for multiset in combinations_with_replacement(odd, 3):
        acc = [field.zero] * n
        for (i, j, k) in set(permutations(multiset)):
            term = L.bracket(L.bracket(basis[i], basis[j]), basis[k])
            acc = [a + t for a, t in zip(acc, term)]
        if any(acc):
            failures.append(
                "(B2) fails on coefficient of %s" % "*".join(labels[t] for t in multiset)
            )
    return failures


def dense_table(L):
    """The bracket table of a matrix Lie superalgebra from dense
    supercommutators and one linear solve per basis pair."""
    field, par = L.field, L.space.parities
    flat = [[x for row in m for x in row] for m in L.matrices]
    table = {}
    for i, a in enumerate(L.matrices):
        for j, b in enumerate(L.matrices):
            sign = field.one if par[i] * par[j] == 0 else -field.one
            comm = mat_bracket(a, b, sign)
            coords = solve(transpose(flat), [x for row in comm for x in row], field)
            assert coords is not None
            terms = {k: c for k, c in enumerate(coords) if c}
            if terms:
                table[(i, j)] = terms
    return table


@pytest.mark.parametrize("field", [Q, F3, F5], ids=str)
def test_supercommutator_matches_dense(field):
    """linalg.supercommutator against the dense a·b - sign·b·a, with both
    signs, on random sparse square matrices."""
    rng = random.Random(31 + field.char)
    for _ in range(60):
        size = rng.randint(1, 4)
        a, b = ([[field.from_int(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(size)]
                 for _ in range(size)] for _ in range(2))
        for sign in (field.one, -field.one):
            want = sparse([x for row in mat_bracket(a, b, sign) for x in row])
            assert supercommutator(row_entries(a), row_entries(b), sign, field) == want


def table_items(table):
    return [(key, list(terms.items())) for key, terms in table.items()]


def perturbed(L, rng):
    """L's table with entries scaled and parity-correct terms added."""
    field, par = L.field, L.space.parities
    table = {key: dict(terms) for key, terms in L.table.items()}
    for _ in range(rng.randint(1, 3)):
        if table and rng.random() < 0.5:
            key = rng.choice(sorted(table))
            k = rng.choice(sorted(table[key]))
            table[key][k] = table[key][k] * field.from_int(rng.randint(2, 4))
        else:
            i, j = rng.randrange(L.dim), rng.randrange(L.dim)
            want = (par[i] + par[j]) % 2
            k = rng.choice([t for t in range(L.dim) if par[t] == want])
            terms = table.setdefault((i, j), {})
            terms[k] = terms.get(k, field.zero) + field.from_int(rng.randint(1, 4))
    return LieSuperAlgebra(field, L.space.labels, par, table, check=False)


def sorted_witness(L, failure):
    """The failure with its basis labels in index order: the sorted pair or
    triple of its orbit.  (B2) failures name a multiset and stay as they are."""
    head, at, rest = failure.partition(" at (")
    if not at:
        return failure
    indices = sorted(L.space.index(label) for label in rest[:-1].split(","))
    return "%s at (%s)" % (head, ",".join(L.space.labels[i] for i in indices))


def representatives(L, failures):
    """The failures at sorted pairs and triples, in their order: (B3) at
    i <= j and (B4) at i <= j <= k, the witnesses check_axioms reports."""
    return [f for f in failures if sorted_witness(L, f) == f]


SMALL_GL = [(m, n) for m in range(4) for n in range(4) if 2 <= m + n <= 3]


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
@pytest.mark.parametrize("m,n", SMALL_GL)
def test_sparse_paths_match_dense_reference(m, n, field):
    L = gl_super(field, m, n)
    assert table_items(L.table) == table_items(dense_table(L))
    assert L.check_axioms().failures == dense_failures(L) == []
    rng = random.Random(1000 * m + 10 * n + field.char)
    for _ in range(3):
        P = perturbed(L, rng)
        assert P.check_axioms().failures == representatives(P, dense_failures(P))


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
@pytest.mark.parametrize("m,n", [(2, 2), (3, 1), (1, 3)])
def test_sparse_build_matches_the_dense_table(m, n, field):
    L = gl_super(field, m, n)
    assert table_items(L.table) == table_items(dense_table(L))


def test_perturbations_are_caught():
    rng = random.Random(7)
    caught = sum(
        bool(perturbed(gl_super(field, 1, 1), rng).check_axioms().failures)
        for field in (Q, F3, F5)
        for _ in range(10)
    )
    assert caught >= 20


def alternating_perturbation(L, rng):
    """L's table with random entries changed at (i, j) and at its mirror
    (j, i) with the sign of (B3), so that (B3) still holds."""
    field, par = L.field, L.space.parities
    table = {key: dict(terms) for key, terms in L.table.items()}
    for _ in range(rng.randint(1, 2)):
        i, j = sorted((rng.randrange(L.dim), rng.randrange(L.dim)))
        if i == j and not par[i]:
            continue  # [x,x] = 0 for even x
        want = (par[i] + par[j]) % 2
        k = rng.choice([t for t in range(L.dim) if par[t] == want])
        terms = table.setdefault((i, j), {})
        if k in terms and rng.random() < 0.5:
            terms[k] = terms[k] * field.from_int(rng.randint(2, 4))
        else:
            terms[k] = terms.get(k, field.zero) + field.from_int(rng.randint(1, 4))
        sign = -field.one if par[i] * par[j] == 0 else field.one
        table.setdefault((j, i), {})[k] = sign * terms[k]
    return LieSuperAlgebra(field, L.space.labels, par, table, check=False)


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
def test_orbit_sweep_matches_the_dense_sweep_when_b3_holds(field):
    # given (B3) the Jacobiator is graded-alternating, so the sorted sweep
    # fails exactly on the orbits of the dense sweep's failures
    rng = random.Random(300 + field.char)
    holds = set()
    for (m, n), count in [(mn, 4) for mn in SMALL_GL] + [((2, 2), 2)]:
        L = gl_super(field, m, n)
        for _ in range(count):
            P = alternating_perturbation(L, rng)
            dense = dense_failures(P)
            assert not any(f.startswith("(B3)") for f in dense)
            report = P.check_axioms()
            assert report.holds == (not dense)
            assert set(report.failures) == {sorted_witness(P, f) for f in dense}
            holds.add(report.holds)
    assert holds == {True, False}
