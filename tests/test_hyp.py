import pytest

from superkit.algebra import odd_ideal
from superkit.fields import PrimeField, Rationals
from superkit.filtration import adic_filtration
from superkit.hopf import check_hopf_axioms, grassmann_hopf
from superkit.hyp import (
    CanonicalDecomposition,
    HypError,
    HypFiltration,
    additive_truncation,
    augmentation_filtration,
    check_gr_hyp_duality,
    check_hyp_filtration,
    dual_hopf,
    graded_hopf,
    tensor_hopf,
)

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestDual:
    def test_dual_of_grassmann_is_hopf(self):
        H = grassmann_hopf(Q, ["t1", "t2"])
        D = dual_hopf(H, check=True)
        report = check_hopf_axioms(D)
        assert report.holds, report.failures

    def test_dual_generators_anticommute(self):
        H = grassmann_hopf(Q, ["t1", "t2"])
        D = dual_hopf(H, check=False).algebra
        g1 = D.basis_element(1)
        g2 = D.basis_element(2)
        assert D.multiply(g1, g2) == -D.multiply(g2, g1)
        assert D.multiply(g1, g1).is_zero()

    def test_dual_of_additive_truncation_char_p(self):
        H = additive_truncation(F5, 5).as_hopf()
        D = dual_hopf(H, check=True)
        # divided power structure: (T')^i = i! * (T^i)'
        t1 = D.algebra.basis_element(1)
        sq = D.algebra.multiply(t1, t1)
        assert sq == D.algebra.basis_element(2).scale(F5.from_int(2))


class TestFiltration:
    def test_lambda3_lemmas(self):
        H = grassmann_hopf(Q, ["t1", "t2", "t3"])
        report = check_hyp_filtration(H, augmentation_filtration(H))
        assert report.holds, report.failures

    def test_char_p_truncation_lemmas(self):
        H = additive_truncation(F5, 5).as_hopf()
        report = check_hyp_filtration(H, augmentation_filtration(H))
        assert report.holds, report.failures

    def test_odd_ideal_variant(self):
        H = tensor_hopf(
            additive_truncation(F3, 3).as_hopf(), grassmann_hopf(F3, ["t1"])
        )
        chain = adic_filtration(H.algebra, odd_ideal(H.algebra))
        report = check_hyp_filtration(H, chain, local=False)
        assert report.holds, report.failures

    def test_levels(self):
        H = grassmann_hopf(Q, ["t1", "t2"])
        F = HypFiltration(H, augmentation_filtration(H))
        assert F.level(tuple(H.eps)) == 0
        delta = [Q.zero, Q.one, Q.zero, Q.zero]
        assert F.level(delta) == 1


class TestLenientTruncation:
    def test_char0_truncation_is_not_hopf(self):
        from superkit.hopf import HopfError

        with pytest.raises(HopfError):
            additive_truncation(Q, 2).as_hopf()

    def test_delta_square_vanishes_at_shallow_level(self):
        T = additive_truncation(Q, 2)
        delta = [Q.zero, Q.one]
        sq, exact = T.convolve(delta, delta)
        assert sq == [Q.zero, Q.zero]
        assert not exact

    def test_deeper_truncation_recovers_value(self):
        T = additive_truncation(Q, 4)
        delta = [Q.zero, Q.one, Q.zero, Q.zero]
        sq, exact = T.convolve(delta, delta)
        assert exact
        assert sq == [Q.zero, Q.zero, Q.from_int(2), Q.zero]

    def test_counit_is_neutral_and_exact(self):
        T = additive_truncation(Q, 2)
        delta = [Q.zero, Q.one]
        out, exact = T.convolve(list(T.eps), delta)
        assert out == delta and exact


@pytest.mark.parametrize("field", [Q, F3, F5], ids=lambda f: f.name)
def test_tensor_hopf_satisfies_the_axioms(field):
    # tensor_hopf builds unchecked; this is its referee, on factors with
    # odd parts on both sides and on one side only
    lam = grassmann_hopf
    pairs = [(lam(field, ["a"]), lam(field, ["b"])),
             (lam(field, ["a", "b"]), lam(field, ["c"])),
             (lam(field, ["a"]), lam(field, ["b", "c"]))]
    if field.char:
        add = additive_truncation(field, field.char).as_hopf()
        pairs += [(add, lam(field, ["a", "b"])), (lam(field, ["a", "b"]), add)]
    for HA, HB in pairs:
        report = check_hopf_axioms(tensor_hopf(HA, HB))
        assert report.holds, report.failures


class TestCanonicalDecomposition:
    def test_roundtrip_char3(self, rng):
        H = tensor_hopf(
            additive_truncation(F3, 3).as_hopf(),
            grassmann_hopf(F3, ["t1", "t2"]),
        )
        cd = CanonicalDecomposition(H)
        n = H.algebra.dim
        for _ in range(10):
            phi = [F3.from_int(rng.randrange(3)) for _ in range(n)]
            assert cd.recompose(cd.decompose(phi)) == phi

    def test_pure_gamma_term(self):
        H = tensor_hopf(
            additive_truncation(F3, 3).as_hopf(), grassmann_hopf(F3, ["t1"])
        )
        cd = CanonicalDecomposition(H)
        # the dual of t1 is phi[1] * gamma_1 on the nose
        n = H.algebra.dim
        phi = [F3.zero] * n
        phi[1] = F3.one  # basis order: (1,1),(1,t1),(T,1),...
        table = cd.decompose(phi)
        assert table == {(0, 1): F3.one}

    def test_requires_splitting(self):
        H = grassmann_hopf(Q, ["t1"])
        with pytest.raises(HypError):
            CanonicalDecomposition(H)

    def test_singular_recomposition_matrix(self, monkeypatch):
        H = tensor_hopf(
            additive_truncation(F3, 3).as_hopf(), grassmann_hopf(F3, ["t1"])
        )
        # invert_matrix reports a singular matrix by returning None
        monkeypatch.setattr("superkit.hyp.invert_matrix", lambda m, field: None)
        with pytest.raises(HypError, match="singular"):
            CanonicalDecomposition(H)


class TestGrHyp:
    def test_graded_hopf_of_lambda(self):
        H = grassmann_hopf(Q, ["t1", "t2"])
        grH, comp = graded_hopf(H, augmentation_filtration(H))
        report = check_hopf_axioms(grH)
        assert report.holds, report.failures

    def test_duality_lambda3(self):
        H = grassmann_hopf(Q, ["t1", "t2", "t3"])
        report = check_gr_hyp_duality(H, augmentation_filtration(H))
        assert report.holds, report.failures
        assert all(a == b for a, b in report.degree_dims.values())

    def test_duality_char5(self):
        H = additive_truncation(F5, 5).as_hopf()
        report = check_gr_hyp_duality(H, augmentation_filtration(H))
        assert report.holds, report.failures

    def test_duality_mixed_char3(self):
        H = tensor_hopf(
            additive_truncation(F3, 3).as_hopf(),
            grassmann_hopf(F3, ["t1", "t2"]),
        )
        report = check_gr_hyp_duality(H, augmentation_filtration(H))
        assert report.holds, report.failures
