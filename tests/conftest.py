import random

import float_guard
import pytest

from superkit.algebra import Element
from superkit.fields import PrimeField, Rationals

float_guard.install()


@pytest.fixture(autouse=True)
def no_float_scalars():
    """Fail a test during which a float, complex or bool scalar was stored."""
    float_guard.HITS.clear()
    yield
    assert not float_guard.HITS, float_guard.HITS[0]


@pytest.fixture
def Q():
    return Rationals()


@pytest.fixture
def F3():
    return PrimeField(3)


@pytest.fixture
def F5():
    return PrimeField(5)


def random_element(rng, A, parity=None, bound=3):
    """Random (optionally homogeneous) element with small integer coords."""
    field = A.field
    coords = [field.zero] * A.dim
    for i in range(A.dim):
        if parity is not None and A.space.parities[i] != parity:
            continue
        coords[i] = field.from_int(rng.randint(-bound, bound))
    return Element(A, coords)


@pytest.fixture
def rng():
    return random.Random(20240824)
