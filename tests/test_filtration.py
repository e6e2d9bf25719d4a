import gc
import random
import weakref
from unittest import mock

import pytest

from superkit import cli

from superkit.algebra import (
    Element,
    SuperIdeal,
    grassmann,
    ideal_generated_by,
    odd_ideal,
    polynomial_truncation,
    span_products,
    tensor,
)
from superkit.fields import PrimeField, Rationals
from superkit.filtration import (
    AdaptedBasis,
    FiltrationError,
    FilteredSuperAlgebra,
    adic_filtration,
    GradedCompanion,
    check_gr_tensor_iso,
    tensor_filtration,
)
from superkit.hopf import grassmann_hopf
from superkit.hyp import HypFiltration, additive_truncation, augmentation_filtration, tensor_hopf
from superkit.linalg import Subspace, identity_matrix, invert_matrix, sparse

Q = Rationals()
F3, F5 = PrimeField(3), PrimeField(5)


def test_adic_chain_dims_grassmann2():
    A = grassmann(Q, ["a", "b"])
    F = adic_filtration(A, odd_ideal(A))
    assert [F.piece(k).dim for k in range(F.length)] == [4, 3, 1, 0]


def test_non_multiplicative_chain_rejected():
    A = polynomial_truncation(Q, "t", 4)
    full = Subspace(Q, 4, [[Q.one if i == j else Q.zero for j in range(4)]
                           for i in range(4)])
    # jump straight to (t^3): violates I_1 I_1 <= I_2 = (t^3)? actually
    # (t)(t) = (t^2) is not inside (t^3), with I_1 = (t)
    i1 = ideal_generated_by(A, [A.element({"t": 1})]).sub
    i3 = ideal_generated_by(A, [A.element({"t^3": 1})]).sub
    zero = Subspace(Q, 4)
    F = FilteredSuperAlgebra(A, [full, i1, i3, zero])
    assert not reference_filtration_law(A, F.chain)
    with pytest.raises(FiltrationError):
        F.companion


def test_chain_shape_is_checked_at_construction():
    A = grassmann(Q, ["a", "b"])
    full = Subspace(Q, 4, identity_matrix(4, Q))
    odd = odd_ideal(A).sub
    mixed = Subspace(Q, 4, [[0, 1, 0, 1]])  # a + a*b has no parity
    for chain in ([odd, Subspace(Q, 4)], [full, odd], [full, mixed, odd, Subspace(Q, 4)],
                  [full, mixed, Subspace(Q, 4)]):
        with pytest.raises(FiltrationError):
            FilteredSuperAlgebra(A, chain)


def test_graded_companion_dims_and_degrees():
    A = grassmann(Q, ["a", "b", "c"])
    F = adic_filtration(A, odd_ideal(A))
    comp = F.companion
    dims = {}
    for d in comp.degrees:
        dims[d] = dims.get(d, 0) + 1
    assert dims == {0: 1, 1: 3, 2: 3, 3: 1}
    assert reference_well_defined(comp, F)


def test_gr_of_polynomial_truncation():
    A = polynomial_truncation(Q, "t", 4)
    F = adic_filtration(A, ideal_generated_by(A, [A.element({"t": 1})]))
    comp = F.companion
    assert comp.degrees == [0, 1, 2, 3]
    g = comp.gr
    # gr is again the truncated polynomial algebra
    t1 = g.basis_element(1)
    assert g.multiply(g.multiply(t1, t1), t1) == g.basis_element(3)
    assert g.multiply(g.multiply(g.multiply(t1, t1), t1), t1).is_zero()


def test_class_coords_raises_below_level():
    A = grassmann(Q, ["a", "b"])
    comp = adic_filtration(A, odd_ideal(A)).companion
    with pytest.raises(FiltrationError):
        comp.class_coords(A.element({"a": 1}), 2)


def test_tensor_filtration_and_iso_fixture():
    A = grassmann(Q, ["a", "b"])
    B = polynomial_truncation(Q, "t", 3)
    FA = adic_filtration(A, odd_ideal(A))
    FB = adic_filtration(B, ideal_generated_by(B, [B.element({"t": 1})]))
    FT = tensor_filtration(FA, FB)
    assert FT.algebra.dim == 12
    report = check_gr_tensor_iso(FA, FB)
    assert report.holds, report.failures
    assert all(a == b for a, b in report.degree_dims.values())


def test_iso_over_prime_field():
    F5 = PrimeField(5)
    A = grassmann(F5, ["a", "b"])
    B = grassmann(F5, ["c"])
    FA = adic_filtration(A, odd_ideal(A))
    FB = adic_filtration(B, odd_ideal(B))
    report = check_gr_tensor_iso(FA, FB)
    assert report.holds, report.failures


# -- AdaptedBasis against the two loops it replaced ---------------------------


def _descending_reference(F):
    """The adapted basis of a descending chain as GradedCompanion built it."""
    field, n = F.algebra.field, F.algebra.dim
    vecs, degrees = [], []
    for k in range(F.length - 1):
        running = Subspace(field, n, F.piece(k + 1).rows)
        for row in F.piece(k).rows:
            if not running.contains(row):
                vecs.append(row)
                degrees.append(k)
                running = running.add_vectors([row])
    return vecs, degrees


def _increasing_reference(field, n, F):
    """The adapted basis of an increasing chain as check_gr_hyp_duality built
    it, accumulating one running span over all levels."""
    vecs, degrees = [], []
    running = Subspace(field, n)
    for k in range(F.length):
        for row in F.piece(k).rows:
            if not running.contains(row):
                vecs.append(row)
                degrees.append(k)
                running = running.add_vectors([row])
    return vecs, degrees


def _reference_coords(field, vecs, vec):
    """Adapted coordinates through the inverse of the transposed basis."""
    n = len(vecs)
    inv = invert_matrix([[vecs[j][i] for j in range(n)] for i in range(n)], field)
    return [field.sum(inv[i][j] * vec[j] for j in range(n)) for i in range(n)]


def _assert_matches(basis, field, n, vecs, degrees):
    assert [tuple(v) for v in basis.vecs] == [tuple(v) for v in vecs]
    assert basis.degrees == degrees
    for vec in identity_matrix(n, field) + [list(v) for v in vecs]:
        assert basis.coords(sparse(vec)) == sparse(_reference_coords(field, vecs, vec))


def _descending_cases():
    for t in range(1, 5):
        A = grassmann(Q, ["a%d" % (i + 1) for i in range(t)])
        yield "Lambda%d" % t, adic_filtration(A, odd_ideal(A))
    for m in range(2, 6):
        A = polynomial_truncation(Q, "t", m)
        yield "K[t]/t^%d" % m, adic_filtration(A, ideal_generated_by(A, [A.element({"t": 1})]))


def _hyp_cases():
    yield "L2/Q", grassmann_hopf(Q, ["t1", "t2"])
    yield "add3/F3", additive_truncation(F3, 3).as_hopf()
    yield "add5/F5", additive_truncation(F5, 5).as_hopf()
    yield "add3xL1/F3", tensor_hopf(additive_truncation(F3, 3).as_hopf(), grassmann_hopf(F3, ["t1"]))


@pytest.mark.parametrize("F", [pytest.param(F, id=name) for name, F in _descending_cases()])
def test_adapted_basis_descending_matches_reference(F):
    field, n = F.algebra.field, F.algebra.dim
    basis = AdaptedBasis(field, n, F.piece, F.length, 1)
    _assert_matches(basis, field, n, *_descending_reference(F))


@pytest.mark.parametrize("H", [pytest.param(H, id=name) for name, H in _hyp_cases()])
def test_adapted_basis_increasing_matches_reference(H):
    field, n = H.field, H.algebra.dim
    F = HypFiltration(H, augmentation_filtration(H))
    basis = AdaptedBasis(field, n, F.piece, F.length, -1)
    _assert_matches(basis, field, n, *_increasing_reference(field, n, F))


def _rebuild_per_row(n, piece, length, step):
    """AdaptedBasis as it was first built: the running span is a Subspace
    rebuilt by rref for every new vector."""
    vecs, degrees = [], []
    for k in range(length):
        running = piece(k + step)
        for row in piece(k).rows:
            if not running.contains(row):
                vecs.append(row)
                degrees.append(k)
                running = running.add_vectors([row])
    return vecs, degrees


def _seeded_chain(field, seed, step):
    """A seeded chain of subspaces of field^n, each the span of a slice of
    one shuffled spanning list that holds dependent vectors: a prefix for
    an increasing chain, a suffix for a descending one."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    vecs = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(rng.randint(0, n))]
    vecs += identity_matrix(n, field)
    vecs += [rng.choice(vecs) for _ in range(2)]
    vecs += [[x + y for x, y in zip(rng.choice(vecs), rng.choice(vecs))]]
    rng.shuffle(vecs)
    cuts = [0] + sorted(rng.sample(range(1, len(vecs)), rng.randint(1, 4))) + [len(vecs)]
    if step == 1:
        chain = [Subspace(field, n, vecs[c:]) for c in cuts]
    else:
        chain = [Subspace(field, n, vecs[:c]) for c in cuts[1:]]

    def piece(k):
        return chain[k] if 0 <= k < len(chain) else Subspace(field, n)

    return n, piece, len(chain)


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
def test_adapted_basis_matches_rebuild_per_row(field, step):
    for seed in range(40):
        n, piece, length = _seeded_chain(field, seed, step)
        basis = AdaptedBasis(field, n, piece, length, step)
        vecs, degrees = _rebuild_per_row(n, piece, length, step)
        assert basis.vecs == vecs
        assert basis.degrees == degrees


def test_class_coords_far_side_raises_both_ways():
    A = grassmann(Q, ["a", "b"])
    F = adic_filtration(A, odd_ideal(A))
    down = AdaptedBasis(Q, A.dim, F.piece, F.length, 1)
    a = A.element({"a": 1}).terms
    with pytest.raises(FiltrationError):
        down.class_coords(a, 2)
    # the near side (degree 2 seen from degree 1) is cut off
    assert not down.class_coords(A.element({"a*b": 1}).terms, 1)
    assert down.class_coords(a, 1)

    H = grassmann_hopf(Q, ["a", "b"])
    G = HypFiltration(H, augmentation_filtration(H))
    up = AdaptedBasis(Q, H.algebra.dim, G.piece, G.length, -1)
    top = sparse(up.vecs[up.degrees.index(2)])
    with pytest.raises(FiltrationError):
        up.class_coords(top, 1)
    assert not up.class_coords(sparse(H.eps), 1)
    assert up.class_coords(top, 2)


# -- algebra.span_products against the loops it replaced -----------------------


def _reference_close(A, generators):
    """The ideal spanned by the generators' homogeneous parts, closed by the
    per-row loop of e_i·v products that SuperIdeal._close used to run."""
    sub = Subspace(A.field, A.dim, [
        part.coords for g in generators for p in (0, 1)
        if not (part := g.homogeneous_part(p)).is_zero()
    ])
    while True:
        new = []
        for row in sub.rows:
            v = Element(A, row)
            for i in range(A.dim):
                prod = A.multiply(A.basis_element(i), v).coords
                if not sub.contains(prod):
                    new.append(prod)
        if not new:
            return sub
        sub = sub.add_vectors(new)


def _reference_adic_chain(A, ideal):
    """The pieces of adic_filtration as its per-pair product loop built them."""
    chain = [Subspace(A.field, A.dim, identity_matrix(A.dim, A.field))]
    current = ideal.sub
    while current.dim > 0:
        chain.append(current)
        current = Subspace(A.field, A.dim, [
            A.multiply(Element(A, ru), Element(A, rv)).coords
            for ru in current.rows for rv in ideal.sub.rows
        ])
    return chain + [Subspace(A.field, A.dim)]


def reference_filtration_law(A, chain):
    """The sweep FilteredSuperAlgebra once made when it was built: each level
    is an ideal, and I_k I_l <= I_{k+l} (pieces past the end are zero)."""
    basis = identity_matrix(A.dim, A.field)
    for k in range(1, len(chain)):
        if not all(map(chain[k].contains, span_products(A, basis, chain[k].rows))):
            return False
    for k in range(len(chain)):
        for l in range(len(chain)):
            target = chain[min(k + l, len(chain) - 1)]
            if not all(map(target.contains, span_products(A, chain[k].rows, chain[l].rows))):
                return False
    return True


def reference_well_defined(comp, chain):
    """The check GradedCompanion once made after building gr: products of
    classes do not depend on the chosen representatives."""
    A = comp.algebra
    for i in range(len(comp.reps)):
        k = comp.degrees[i]
        for row in chain.piece(k + chain.step).rows:
            shifted = comp.reps[i] + Element(A, row)
            for j in range(len(comp.reps)):
                l = comp.degrees[j]
                got = comp.class_coords(A.multiply(shifted, comp.reps[j]), k + l)
                ref = comp.class_coords(A.multiply(comp.reps[i], comp.reps[j]), k + l)
                if got != ref:
                    return False
    return True


def _reference_multiplicative(A, chain):
    """I_k I_l <= I_{k+l} by a product loop over every pair of rows."""
    elems = [[Element(A, row) for row in piece.rows] for piece in chain]
    for k in range(len(chain)):
        for l in range(len(chain)):
            target = chain[min(k + l, len(chain) - 1)]
            for u in elems[k]:
                for v in elems[l]:
                    if not target.contains(A.multiply(u, v).coords):
                        return False
    return True


def _kernel_algebras(field):
    for t in (2, 3, 4):
        yield grassmann(field, ["a%d" % (i + 1) for i in range(t)])
    for m in (3, 5):
        yield polynomial_truncation(field, "t", m)
    yield tensor(grassmann(field, ["a", "b"]), polynomial_truncation(field, "t", 3))
    yield tensor(grassmann(field, ["a"]), grassmann(field, ["b", "c"]))


def _random_homogeneous(rng, A, rows=None):
    """A homogeneous element: a few random basis vectors of one parity
    (other than the unit), or the parity-p part of a random combination of
    the given rows."""
    p = rng.randrange(2)
    if rows is not None:
        combo = Element(A, [A.field.zero] * A.dim)
        for row in rng.sample(rows, min(len(rows), 2)):
            combo = combo + Element(A, row).scale(A.field.from_int(rng.choice([-2, -1, 1, 2])))
        return combo.homogeneous_part(p)
    idx = [i for i in range(1, A.dim) if A.space.parities[i] == p] or [1]
    coords = [A.field.zero] * A.dim
    for i in rng.sample(idx, min(len(idx), rng.randint(1, 3))):
        coords[i] = A.field.from_int(rng.choice([-2, -1, 1, 2]))
    return Element(A, coords)


@pytest.mark.parametrize("field", [Q, F3, F5], ids=["Q", "F3", "F5"])
def test_span_products_callers_match_product_loops(field):
    rng = random.Random(1300 + (field.char or 0))
    outcomes = []
    for A in _kernel_algebras(field):
        for _ in range(6):
            gens = [_random_homogeneous(rng, A) for _ in range(rng.randint(1, 2))]
            I1 = SuperIdeal(A, gens)
            assert I1.sub.rows == _reference_close(A, gens).rows
            F = adic_filtration(A, I1)
            assert [p.rows for p in F.chain] == [p.rows for p in _reference_adic_chain(A, I1)]
            assert reference_filtration_law(A, F.chain)
            # a seeded chain A >= I1 >= I2 >= 0, often not multiplicative
            gens2 = [_random_homogeneous(rng, A, I1.sub.rows) for _ in range(rng.randint(1, 2))]
            I2 = SuperIdeal(A, gens2)
            assert I2.sub.rows == _reference_close(A, gens2).rows
            assert reference_filtration_law(A, adic_filtration(A, I2).chain)
            chain = [F.chain[0], I1.sub, I2.sub, Subspace(field, A.dim)]
            want = reference_filtration_law(A, chain)
            assert _reference_multiplicative(A, chain) == want
            filtered = FilteredSuperAlgebra(A, chain)
            try:
                comp = filtered.companion
            except FiltrationError:
                comp = None
            assert (comp is not None) == want
            if comp is not None:
                assert reference_well_defined(comp, filtered)
            outcomes.append(want)
    # both outcomes are exercised
    assert any(outcomes) and not all(outcomes)


# -- gr is built once per filtration -------------------------------------------


def _counting_companions():
    """Patch GradedCompanion.__init__ to record the chain of every build."""
    return mock.patch.object(GradedCompanion, "__init__", autospec=True,
                             side_effect=GradedCompanion.__init__)


def test_cli_gr_with_builds_each_companion_once(capsys):
    with _counting_companions() as init:
        assert cli.main(["gr", "Lambda3", "--with", "Lambda2"]) == 0
    assert "gr tensor iso with Lambda2: PASS" in capsys.readouterr().out
    # gr of Λ3, of Λ2 and of Λ3 ⊗ Λ2
    assert sorted(call.args[1].dim for call in init.call_args_list) == [4, 8, 32]


def test_gr_tensor_iso_reuses_the_factor_companions():
    A, B = grassmann(F3, ["a", "b"]), polynomial_truncation(F3, "t", 3)
    FA = adic_filtration(A, odd_ideal(A))
    FB = adic_filtration(B, ideal_generated_by(B, [B.element({"t": 1})]))
    with _counting_companions() as init:
        for _ in range(2):
            assert check_gr_tensor_iso(FA, FB).holds
    chains = [call.args[2] for call in init.call_args_list]
    assert len(chains) == 4
    assert sum(c is FA for c in chains) == 1 and sum(c is FB for c in chains) == 1


def test_filtration_with_companion_is_freed_without_the_cyclic_collector():
    A = grassmann(Q, ["a", "b", "c"])
    gc.disable()
    try:
        F = adic_filtration(A, odd_ideal(A))
        refs = [weakref.ref(F), weakref.ref(F.companion)]
        del F
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
