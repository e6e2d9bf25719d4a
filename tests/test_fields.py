from fractions import Fraction

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import float_guard
import pytest
from float_guard import FloatScalarError

from superkit.algebra import Element, grassmann
from superkit.cli import main
from superkit.fields import FieldError, FpElement, PrimeField, Rationals, _is_prime, parse_field
from superkit.fixtures import _parse_scalar
from superkit import linalg


def test_parse_field_variants():
    assert isinstance(parse_field("q"), Rationals)
    F = parse_field("p=5")
    assert isinstance(F, PrimeField) and F.p == 5


def test_characteristic_two_rejected():
    with pytest.raises(FieldError):
        parse_field("p=2")
    with pytest.raises(FieldError):
        PrimeField(2)


def test_non_prime_rejected():
    with pytest.raises(FieldError):
        PrimeField(9)


def test_rational_parse_render():
    K = Rationals()
    x = K.parse("-3/7")
    assert x == Fraction(-3, 7)
    assert K.render(x) == "-3/7"
    assert K.render(K.from_int(4)) == "4"


def test_fp_arithmetic():
    F = PrimeField(7)
    a = F.from_int(3)
    b = F.from_int(5)
    assert (a + b).v == 1
    assert (a * b).v == 1
    assert (a - b).v == 5
    assert (a * F.inv(b)).v == (3 * pow(5, -1, 7)) % 7
    assert (-a).v == 4
    assert F.from_fraction(Fraction(1, 2)).v == pow(2, -1, 7)


def test_fp_parse_render():
    F = PrimeField(5)
    assert F.parse("7") == F.from_int(2)
    assert F.parse("1/2") == F.from_int(3)
    assert F.render(F.from_int(3)) == "3"


def test_fp_mixed_with_int():
    """An F_p scalar combines only with scalars of its own field."""
    F = PrimeField(5)
    a = F.from_int(2)
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y)
    for other in (4, Fraction(1, 2)):
        for op in ops:
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
        assert (a == other) is False
    assert (F.from_int(2) == 2) is False
    b = PrimeField(7).from_int(2)
    with pytest.raises(FieldError):
        a + b
    with pytest.raises(FieldError):
        a == b


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if _trial_division(n)
    ]


@pytest.mark.parametrize("n", [
    3825123056546413051,  # strong pseudoprime to the bases 2 ... 23
    318665857834031151167461,  # strong pseudoprime to the bases 2 ... 37
])
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(FieldError):
        PrimeField(n)


def test_primality_bound_is_a_field_error():
    with pytest.raises(FieldError):
        parse_field("p=%d" % (10 ** 25 + 13))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_large_prime_field_answers_at_once():
    t0 = time.perf_counter()
    code, out, _ = _cli(["--field", "p=1000000000000000003", "validate", "gl11"])
    assert time.perf_counter() - t0 < 5
    assert code == 0 and "PASS" in out
    code, _, err = _cli(["--field", "p=%d" % (10 ** 25 + 13), "validate", "gl11"])
    assert code == 2 and err.count("\n") == 1


# -- Q scalars are ints unless they need a denominator ----------------------


def test_rational_integers_are_ints():
    Q = Rationals()
    assert type(Q.zero) is int and type(Q.one) is int
    assert type(Q.from_int(3)) is int and Q.from_int(3) == 3
    two = Q.from_fraction(Fraction(4, 2))
    assert type(two) is int and two == 2
    assert type(Q.parse("-6/3")) is int and Q.parse("-6/3") == -2
    assert type(Q.parse("-3/7")) is Fraction


@pytest.mark.parametrize("x,want", [
    (2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (1, 1), (-1, -1),
    (Fraction(1, 3), 3), (Fraction(-1, 4), -4), (Fraction(2, 3), Fraction(3, 2)),
    (Fraction(-2, 3), Fraction(-3, 2)), (Fraction(5), Fraction(1, 5)),
])
def test_rational_inverse(x, want):
    got = Rationals().inv(x)
    assert got == want and x * got == 1
    assert type(got) is (int if Fraction(want).denominator == 1 else Fraction)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Rationals().inv(0)
    with pytest.raises(ZeroDivisionError):
        Rationals().inv(Fraction(0))
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    assert F.inv(F.from_int(2)) * F.from_int(2) == F.one


def test_render_same_for_ints_and_fractions():
    Q = Rationals()
    for n in (0, 1, -1, 12, -40):
        assert Q.render(n) == Q.render(Fraction(n)) == str(n)
    assert Q.render(Fraction(-3, 7)) == "-3/7"
    assert Q.render(Fraction(6, 4)) == "3/2"


def test_bool_fixture_scalar_is_rejected():
    with pytest.raises(FieldError):
        _parse_scalar(Rationals(), True)
    assert _parse_scalar(Rationals(), 2) == 2


def test_float_guard_trips_on_a_float_inverse(monkeypatch):
    Q = Rationals()
    R = grassmann(Q, ["a"])
    x = R.element({"1": 2, "a": 1})
    assert x.invert() * x == R.unit
    assert linalg.rref([[2, 1]], Q)[0] == [(1, Fraction(1, 2))]
    monkeypatch.setattr(Rationals, "inv", lambda self, x: 1 / x)
    with pytest.raises(FloatScalarError):
        x.invert()
    with pytest.raises(FloatScalarError):
        linalg.rref([[2, 1]], Q)
    with pytest.raises(FloatScalarError):
        Element(R, [True, 0])
    float_guard.HITS.clear()
