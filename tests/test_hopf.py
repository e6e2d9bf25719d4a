import random

import pytest

from superkit.algebra import AxiomReport, Element, grassmann, span_products, tensor, tensor_pure
from superkit.fields import PrimeField, Rationals
from superkit.linalg import Subspace, nullspace, rank
from superkit.hopf import (
    Coaction,
    HopfError,
    HopfSuperAlgebra,
    _coassociative,
    check_hopf_axioms,
    grassmann_hopf,
    regular_coaction,
    trivial_coaction,
)
from superkit.hyp import additive_truncation, tensor_hopf

Q = Rationals()
F5 = PrimeField(5)


def test_grassmann_hopf_axioms():
    for field in (Q, F5):
        H = grassmann_hopf(field, ["t1", "t2"])
        report = check_hopf_axioms(H)
        assert report.holds, report.failures


def reference_grassmann_delta(field, generators):
    """The coproduct tables that grassmann_hopf built before it wrote them
    down: the product of the theta⊗1 + 1⊗theta over the generators of each
    basis monomial, multiplied out in A ⊗ A."""
    A = grassmann(field, generators)
    n = A.dim
    sq = tensor(A, A)
    delta = []
    for b in range(n):
        acc = tensor_pure(sq, A.unit, A.unit)
        if b:
            for gname in A.space.labels[b].split("*"):
                g = A.basis_element(A.space.index(gname))
                acc = sq.multiply(acc, tensor_pure(sq, g, A.unit) + tensor_pure(sq, A.unit, g))
        delta.append({divmod(t, n): c for t, c in acc.terms.items()})
    return delta


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5], ids=lambda f: f.name)
def test_grassmann_coproduct_matches_the_product_expansion(field):
    for k in range(5):
        gens = ["t%d" % i for i in range(1, k + 1)]
        H = grassmann_hopf(field, gens)
        want = reference_grassmann_delta(field, gens)
        assert [list(table.items()) for table in H.delta] == [
            list(table.items()) for table in want]


def test_coproduct_of_product_has_cross_terms():
    H = grassmann_hopf(Q, ["t1", "t2"])
    A = H.algebra
    d = H.coproduct(A.element({"t1*t2": 1}))
    sq = H.square
    i1 = A.space.index("t1")
    i2 = A.space.index("t2")
    # coefficient of t1 ⊗ t2 is +1, of t2 ⊗ t1 is -1
    assert d.coords[i1 * A.dim + i2] == Q.one
    assert d.coords[i2 * A.dim + i1] == -Q.one


def test_antipode_on_monomials():
    H = grassmann_hopf(Q, ["t1", "t2"])
    A = H.algebra
    assert H.apply_antipode(A.element({"t1": 1})) == -A.element({"t1": 1})
    assert H.apply_antipode(A.element({"t1*t2": 1})) == A.element({"t1*t2": 1})


def test_regular_coinvariants_trivial_line():
    H = grassmann_hopf(Q, ["t1", "t2"])
    co = regular_coaction(H)
    sub = co.coinvariants()
    assert sub.dim == 1
    assert sub.contains(H.algebra.unit.coords)
    assert co.check_alpha_surjective()


def test_trivial_coaction_everything_coinvariant():
    H = grassmann_hopf(Q, ["t1"])
    co = trivial_coaction(H.algebra, H)
    assert co.coinvariants().dim == H.algebra.dim
    assert not co.check_alpha_surjective()


def test_bad_antipode_rejected():
    from superkit.hopf import HopfSuperAlgebra

    H = grassmann_hopf(Q, ["t1"])
    bad = [list(col) for col in H.antipode]
    bad[1][1] = Q.one  # S(t1) = +t1 violates the antipode law
    with pytest.raises(HopfError):
        HopfSuperAlgebra(H.algebra, H.delta, H.eps, bad, check=True)


# -- referee: check_hopf_axioms and Coaction.check_axioms as dense sweeps,
# every basis pair multiplied as Elements and mapped through the tables ----


def dense_apply(table, elem, target, m):
    """sum c·s·(i⊗j) over the terms b: c of elem and (i, j): s of table[b]."""
    coords = [target.field.zero] * target.dim
    for b, c in elem.terms.items():
        for (i, j), s in table[b].items():
            coords[i * m + j] = coords[i * m + j] + c * s
    return Element(target, coords)


def dense_antipode(H, elem):
    A = H.algebra
    coords = [A.field.zero] * A.dim
    for b, c in elem.terms.items():
        for r, s in enumerate(H.antipode[b]):
            coords[r] = coords[r] + c * s
    return Element(A, coords)


def dense_counit(H, elem):
    return H.field.sum(c * H.eps[i] for i, c in elem.terms.items())


def dense_hopf_report(H):
    report = AxiomReport()
    A, sq, field = H.algebra, H.square, H.field
    n = A.dim

    def cop(x):
        return dense_apply(H.delta, x, sq, n)

    def S(x):
        return dense_antipode(H, x)

    def fail_at(what, i, j):
        report.fail("%s is not multiplicative at (%s,%s)"
                    % (what, A.space.labels[i], A.space.labels[j]))

    if cop(A.unit) != tensor_pure(sq, A.unit, A.unit):
        report.fail("coproduct does not fix the unit")
    for i in range(n):
        bi = A.basis_element(i)
        di = cop(bi)
        if di.parity() != bi.parity() and not di.is_zero():
            report.fail("coproduct changes parity at %s" % A.space.labels[i])
        bad = next((j for j in range(n) if cop(A.multiply(bi, A.basis_element(j)))
                    != sq.multiply(di, cop(A.basis_element(j)))), None)
        if bad is not None:
            fail_at("coproduct", i, bad)
            break

    if dense_counit(H, A.unit) != field.one:
        report.fail("counit of the unit is not 1")
    for i in range(n):
        if A.space.parities[i] == 1 and H.eps[i] != field.zero:
            report.fail("counit does not kill odd element %s" % A.space.labels[i])
    bad = next(((i, j) for i in range(n) for j in range(n)
                if dense_counit(H, A.multiply(A.basis_element(i), A.basis_element(j)))
                != dense_counit(H, A.basis_element(i)) * dense_counit(H, A.basis_element(j))),
               None)
    if bad is not None:
        fail_at("counit", *bad)

    if S(A.unit) != A.unit:
        report.fail("antipode does not fix the unit")
    for i in range(n):
        bi = A.basis_element(i)
        si = S(bi)
        if not si.is_zero() and si.parity() != A.space.parities[i]:
            report.fail("antipode changes parity at %s" % A.space.labels[i])
        bad = next((j for j in range(n) if S(A.multiply(bi, A.basis_element(j)))
                    != A.multiply(si, S(A.basis_element(j)))), None)
        if bad is not None:
            fail_at("antipode", i, bad)
            break

    for b in range(n):
        if not _coassociative(H.delta, H.delta, b, field.zero):
            report.fail("coassociativity fails at %s" % A.space.labels[b])
        lid = [field.zero] * n
        rid = [field.zero] * n
        for (i, j), c in H.delta[b].items():
            lid[j] = lid[j] + H.eps[i] * c
            rid[i] = rid[i] + c * H.eps[j]
        target = A.basis_element(b)
        if Element(A, lid) != target or Element(A, rid) != target:
            report.fail("counit law fails at %s" % A.space.labels[b])
        acc_l = acc_r = A.zero()
        for (i, j), c in H.delta[b].items():
            bi, bj = A.basis_element(i), A.basis_element(j)
            acc_l = acc_l + A.multiply(S(bi), bj).scale(c)
            acc_r = acc_r + A.multiply(bi, S(bj)).scale(c)
        want = A.unit.scale(H.eps[b])
        if acc_l != want or acc_r != want:
            report.fail("antipode law fails at %s" % A.space.labels[b])
    return report


def dense_coaction_report(co):
    report = AxiomReport()
    A, D, T = co.carrier, co.hopf.algebra, co.mixed
    field = A.field

    def tau(x):
        return dense_apply(co.tau, x, T, D.dim)

    if tau(A.unit) != tensor_pure(T, A.unit, D.unit):
        report.fail("coaction does not fix the unit")
    bad = next(((i, j) for i in range(A.dim) for j in range(A.dim)
                if tau(A.multiply(A.basis_element(i), A.basis_element(j)))
                != T.multiply(tau(A.basis_element(i)), tau(A.basis_element(j)))), None)
    if bad is not None:
        report.fail("coaction is not multiplicative at (%s,%s)"
                    % tuple(A.space.labels[t] for t in bad))
    for b in range(A.dim):
        if not _coassociative(co.tau, co.hopf.delta, b, field.zero):
            report.fail("coaction coassociativity fails at %s" % A.space.labels[b])
        acc = [field.zero] * A.dim
        for (i, j), c in co.tau[b].items():
            acc[i] = acc[i] + c * co.hopf.eps[j]
        if Element(A, acc) != A.basis_element(b):
            report.fail("coaction counit law fails at %s" % A.space.labels[b])
    return report


def _referee_hopfs():
    F3 = PrimeField(3)
    return [
        grassmann_hopf(Q, ["t1", "t2"]),
        grassmann_hopf(F3, ["t1", "t2", "t3"]),
        grassmann_hopf(F5, ["t1", "t2"]),
        additive_truncation(F3, 3).as_hopf(),
        additive_truncation(F5, 5).as_hopf(),
        additive_truncation(Q, 3).as_hopf(check=False),
        tensor_hopf(additive_truncation(F3, 3).as_hopf(), grassmann_hopf(F3, ["t1"])),
    ]


def _bump(field, rng):
    return field.from_int(rng.choice((-2, -1, 1, 2)))


def perturbed_hopf(H, rng):
    """H with up to two entries of its Δ, ε or S tables shifted."""
    field, n = H.field, H.algebra.dim
    delta = [dict(table) for table in H.delta]
    eps = list(H.eps)
    antipode = [list(col) for col in H.antipode]
    for _ in range(rng.randint(0, 2)):
        b = rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            key = (rng.randrange(n), rng.randrange(n))
            delta[b][key] = delta[b].get(key, field.zero) + _bump(field, rng)
        elif kind == 1:
            eps[b] = eps[b] + _bump(field, rng)
        else:
            r = rng.randrange(n)
            antipode[b][r] = antipode[b][r] + _bump(field, rng)
    return HopfSuperAlgebra(H.algebra, delta, eps, antipode, check=False)


def perturbed_coaction(H, rng):
    """The regular or trivial coaction of H with up to two τ entries shifted."""
    co = regular_coaction(H) if rng.random() < 0.5 else trivial_coaction(H.algebra, H)
    field, n, m = H.field, co.carrier.dim, H.algebra.dim
    tau = [dict(table) for table in co.tau]
    for _ in range(rng.randint(0, 2)):
        b, key = rng.randrange(n), (rng.randrange(n), rng.randrange(m))
        tau[b][key] = tau[b].get(key, field.zero) + _bump(field, rng)
    return Coaction(co.carrier, H, tau, check=False)


def test_sweeps_match_the_dense_referee_on_perturbed_tables():
    rng = random.Random(9)
    seen = {"hopf": {True: 0, False: 0}, "coaction": {True: 0, False: 0}}
    for H in _referee_hopfs():
        for _ in range(8):
            P = perturbed_hopf(H, rng)
            report = check_hopf_axioms(P)
            assert report.failures == dense_hopf_report(P).failures
            assert report.holds == (not report.failures)
            seen["hopf"][report.holds] += 1
        if H.algebra.dim <= 6 and check_hopf_axioms(H).holds:
            for _ in range(8):
                co = perturbed_coaction(H, rng)
                report = co.check_axioms()
                assert report.failures == dense_coaction_report(co).failures
                seen["coaction"][report.holds] += 1
    assert sum(seen["hopf"].values()) + sum(seen["coaction"].values()) >= 50
    assert min(min(counts.values()) for counts in seen.values()) > 0, seen


def test_structure_table_key_outside_the_basis_is_rejected():
    H = grassmann_hopf(Q, ["t1"])
    delta = [dict(table) for table in H.delta]
    delta[0][(0, 2)] = Q.one
    with pytest.raises(HopfError, match="outside the basis"):
        HopfSuperAlgebra(H.algebra, delta, H.eps, H.antipode, check=True)
    tau = [dict(table) for table in H.delta]
    tau[1][(2, 0)] = Q.one
    with pytest.raises(HopfError, match="outside the basis"):
        Coaction(H.algebra, H, tau, check=True)
    for antipode in (H.antipode[:1], [col + (Q.zero,) for col in H.antipode]):
        with pytest.raises(HopfError, match="antipode matrix has wrong shape"):
            HopfSuperAlgebra(H.algebra, H.delta, H.eps, antipode, check=True)


# -- referees: the loops that coinvariants and the alpha rank test
# replaced, compared on seeded inputs ---------------------------------------


def reference_coinvariants(co):
    """The coinvariant rows, or the failure message of the closure test."""
    A, D = co.carrier, co.hopf.algebra
    field = A.field
    n = A.dim
    cols = []
    for b in range(n):
        col = dict(co.tau[b])
        for u, cu in D.unit.terms.items():
            col[(b, u)] = col.get((b, u), field.zero) - cu
        cols.append(col)
    keys = sorted({k for col in cols for k in col})
    mat = [[cols[b].get(key, field.zero) for b in range(n)] for key in keys]
    sub = Subspace(field, n, nullspace(mat, field, n))
    if not all(map(sub.contains, span_products(A, sub.rows, sub.rows))):
        return "coinvariants failed to close under product"
    return sub.rows


def reference_alpha_surjective(co):
    A, D = co.carrier, co.hopf.algebra
    field = A.field
    nA, nD = A.dim, D.dim
    cols = []
    for a in range(nA):
        ba = A.basis_element(a)
        for b in range(nA):
            coords = [field.zero] * (nA * nD)
            for (i, j), c in co.tau[b].items():
                prod = A.multiply(ba, A.basis_element(i))
                for t, x in prod.terms.items():
                    idx = t * nD + j
                    coords[idx] = coords[idx] + c * x
            cols.append(coords)
    return rank(cols, field) == nA * nD


def coinvariants_outcome(co):
    try:
        return co.coinvariants().rows
    except HopfError as exc:
        return str(exc)


def test_kernels_and_alpha_match_the_referee_on_perturbed_tables():
    rng = random.Random(14)
    seen = {"coinvariants": set(), "alpha": set()}
    for H in _referee_hopfs():
        if H.algebra.dim <= 6 and check_hopf_axioms(H).holds:
            for _ in range(6):
                co = perturbed_coaction(H, rng)
                want = reference_coinvariants(co)
                assert coinvariants_outcome(co) == want
                seen["coinvariants"].add(isinstance(want, str))
                want = reference_alpha_surjective(co)
                assert co.check_alpha_surjective() == want
                seen["alpha"].add(want)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


# -- the coaction target ------------------------------------------------------


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5], ids=["Q", "F3", "F5"])
def test_regular_coaction_lands_in_the_cached_square(field):
    H = grassmann_hopf(field, ["t1", "t2"])
    assert regular_coaction(H).mixed is H.square


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5], ids=["Q", "F3", "F5"])
def test_trivial_coaction_on_another_carrier_builds_its_own_target(field):
    H = grassmann_hopf(field, ["t1"])
    A = grassmann(field, ["a", "b"])
    co = trivial_coaction(A, H)
    assert co.mixed is not H.square
    want = tensor(A, H.algebra)
    assert (co.mixed.space.labels, co.mixed.space.parities) == (
        want.space.labels, want.space.parities)
    assert [(key, list(terms.items())) for key, terms in co.mixed._prod.items()] == [
        (key, list(terms.items())) for key, terms in want._prod.items()]
