import random
from pathlib import Path
from unittest import mock

import float_guard
import pytest

from superkit.algebra import Element
from superkit.fields import PrimeField, Rationals
from superkit.fixtures import BUILTIN_PAIRS, load_fixture
from superkit.gamma import GammaElement, GammaError, rmat_inverse
from superkit.hcp import HarishChandraPair, pseudoabelian_example
from superkit.linalg import identity_matrix, mat_mul, transpose

float_guard.install()

ROOT = Path(__file__).resolve().parent.parent

# the pairs realised by supermatrices (with row parities): the gl(m|n)
# builtins and every shipped pair file, osp(1|2) among them
REALISED = ["gl11", "gl21", "fixtures/gl11.pair.json", "fixtures/gl21.pair.json",
            "fixtures/osp12.pair.json"]
# every shipped pair: the builtins and the pair files
SHIPPED_PAIRS = sorted(BUILTIN_PAIRS) + sorted(
    "fixtures/" + path.name for path in (ROOT / "fixtures").glob("*.pair.json"))


def shipped_pair(spec, field):
    """A builtin pair by name, or a pair file by its path from the root."""
    return BUILTIN_PAIRS[spec](field) if spec in BUILTIN_PAIRS else load_fixture(field, ROOT / spec)


def osp12_pair(field):
    return shipped_pair("fixtures/osp12.pair.json", field)


def shear_pair(field):
    """G_a acting on span{w1, phi1} by its own matrices, phi1 -> phi1 + s·w1,
    with [V,V] = 0: a matrix-mode pair whose [g,V] (x1·phi1 = w1) is the
    derivative of its action."""
    return HarishChandraPair(pseudoabelian_example(field, 1).group, ["w1", "phi1"], {},
                             action_expr=[[1, "m_0_1"], [0, 1]], name="shear")


def linear_action(pair):
    """(rho(I), [rho(X_k)]): t x t field matrices of the action at the
    identity and at each Lie basis vector, column i of rho(X_k) being
    [x_k, v_i] read off the pair's [g,V] table.  The action is polynomial
    in the group entries, so for X = sum c_k X_k and b^2 = 0,
    rho(I + bX) = I + b sum c_k rho(X_k) exactly.  The instrument of the
    pair golden test and of the closed-form conjugation referee."""
    t = pair.t
    return identity_matrix(t, pair.field), [
        transpose([pair.gv(k, i) for i in range(t)]) for k in range(pair.lie_dim)]


@pytest.fixture(autouse=True)
def no_float_scalars():
    """Fail a test during which a float, complex or bool scalar was stored."""
    float_guard.HITS.clear()
    yield
    assert not float_guard.HITS, float_guard.HITS[0]


def check_normal_form(u):
    """The referee of a normal form: GammaError unless every entry of the
    even part is even, every chain coefficient odd, and the even part in
    G(R) and invertible.  gamma checks the tokens a normal form is built
    from, not the normal form itself."""
    if any(x.parity() != 0 for row in u.even for x in row):
        raise GammaError("even part has an odd entry")
    if any(not a.is_zero() and a.parity() != 1 for a in u.coords):
        raise GammaError("odd coordinate is not odd")
    if not u.pair.group.membership_over(u.R, u.even):
        raise GammaError("even part fails the membership predicate")
    rmat_inverse(u.R, u.even)  # GammaError when singular


@pytest.fixture(scope="session", autouse=True)
def referee_every_normal_form():
    """Every GammaElement built in a test, by gamma or by the test, passes
    check_normal_form as it is built."""
    init = GammaElement.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        check_normal_form(self)

    with mock.patch.object(GammaElement, "__init__", checked):
        yield


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


def mat_bracket(a, b, sign):
    """a·b - sign·b·a from two dense matrix products: the commutator for
    sign 1, the anticommutator for -1.  The referee of the sparse
    linalg.supercommutator."""
    return [
        [x - sign * y for x, y in zip(r, s)]
        for r, s in zip(mat_mul(a, b), mat_mul(b, a))
    ]


def random_point(rng, pair, R):
    """An invertible even point over R of the pair's group: block diagonal
    for gl(m|n) (unit-part scalars plus even nilpotents), upper unitriangular
    for the additive group of the pseudoabelian pairs."""
    field, n = R.field, pair.group.size
    u = R.unit_index
    even = [i for i in range(R.dim) if R.space.parities[i] == 0 and i != u]

    def entry(c):
        coords = [field.zero] * R.dim
        coords[u] = field.from_int(c)
        for i in even:
            coords[i] = field.from_int(rng.randint(-1, 1))
        return Element(R, coords)

    while True:
        if pair.row_parities is None:
            g = [[R.unit, entry(rng.randint(-2, 2))], [R.zero(), R.unit]]
        else:
            rp = pair.row_parities
            g = [[entry(rng.choice([1, 2, -1]) if i == j else rng.randint(-1, 1))
                  if rp[i] == rp[j] else R.zero() for j in range(n)] for i in range(n)]
        try:
            g_inv = rmat_inverse(R, g)
        except GammaError:
            continue
        assert pair.group.membership_over(R, g)
        return g, g_inv


@pytest.fixture
def rng():
    return random.Random(20240824)
