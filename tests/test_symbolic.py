import json
import random
import string
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import sympy_reference as ref
from conftest import shipped_pair
from superkit.algebra import Element, grassmann
from superkit.cli import parse_element
from superkit.fields import PrimeField, Rationals
from superkit.fixtures import BUILTIN_PAIRS, pair_from_json, pair_to_json
from superkit.hcp import (
    HarishChandraPair, HCPError, Submodule, check_exact_sequence, validate_pair,
)
from superkit.linalg import Subspace
from superkit.liesuper import LieError
from superkit.symbolic import Poly, Reducer, eval_at, parse

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
FIELDS = (Q, F3, F5)


def P(field, text):
    return Poly.read(field, text)


def test_read_rejects_unknown_names():
    assert P(Q, "a^2 - 1") == Poly.read(Q, "a**2 - 1", {"a"})
    with pytest.raises(ValueError):
        Poly.read(Q, "a*b", {"a"})


def test_reducer_inverse_relation():
    red = Reducer([P(Q, "a*a_i - 1")])
    assert red.is_zero(P(Q, "a*a_i - 1"))
    assert red.is_zero(P(Q, "a^2*a_i^2 - 1"))
    assert not red.is_zero(P(Q, "a*a_i"))


def test_reducer_mod_p():
    red = Reducer([])
    assert red.is_zero(P(F5, "5*x"))
    assert not red.is_zero(P(F5, "3*x"))


def test_eval_at_even_elements():
    R = grassmann(Q, ["a", "b"])
    val = R.unit + R.element({"a*b": 1})
    out = eval_at(P(Q, "x^2 - 1"), {"x": val}, R.unit)
    # (1 + ab)^2 - 1 = 2ab
    assert out == R.element({"a*b": 2})


def test_grammar():
    x, y = P(Q, "x"), P(Q, "y")
    assert P(Q, "-(x + 2*y)^2") == -(x + y * Fraction(2)) * (x + y * Fraction(2))
    assert P(Q, "x**3") == P(Q, "x^3") == x * x * x
    assert P(Q, " 3/4 * x ^ 0 ") == Poly.const(Q, Fraction(3, 4))
    assert str(P(Q, "-x + 3/2*y^2*x - 7")) == "3/2*x*y^2 - x - 7"
    assert str(P(F5, "-x + 3/2*y^2*x - 7")) == "4*x*y^2 + 4*x + 3"
    for bad in ["", "x +", "x--y", "2x", "x*", "x^-1", "x^y", "x^2^2", "(x", "x)",
                "x/2", "1.5", "x^65", "__import__('os')", "x;y", "(" * 70 + "x" + ")" * 70]:
        with pytest.raises(ValueError):
            P(Q, bad)


# -- grammar properties ---------------------------------------------------

NAMES = ["a", "b", "x1", "T", "alpha_i", "m_0_1"]


@st.composite
def polys(draw):
    field = draw(st.sampled_from(FIELDS))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = draw(st.dictionaries(st.sampled_from(NAMES), st.integers(1, 4), max_size=3))
        num = draw(st.integers(-30, 30))
        den = draw(st.integers(1, 12)) if field is Q else 1
        c = field.from_fraction(Fraction(num, den))
        if c:
            terms[tuple(sorted(exps.items()))] = c
    return Poly(field, terms)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(polys())
def test_read_str_roundtrip(p):
    assert Poly.read(p.field, str(p)) == p


GRAMMAR_CHARS = "0123456789/+-*^() ab_"
R_TEXT = grassmann(Q, ["a1", "a2"])


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.text(string.printable, max_size=30),
                 st.text(GRAMMAR_CHARS, max_size=30)))
def test_parse_raises_only_value_error(text):
    for read in (lambda s: Poly.read(F3, s), lambda s: Poly.read(Q, s, {"a"}),
                 lambda s: parse_element(R_TEXT, s)):
        try:
            read(text)
        except ValueError:
            pass


def test_parse_builds_in_any_ring():
    assert parse("2*(3 - 1)^3 - 1/2", Fraction, lambda name: 0) == Fraction(31, 2)
    R = grassmann(F5, ["a1", "a2"])
    el = parse("(1 + a1)*(1 + a2) - 1", lambda s: R.unit.scale(F5.parse(s)),
               lambda name: R.element({name: 1}))
    assert el == R.element({"a1": 1, "a2": 1, "a1*a2": 1})


def test_shipped_texts_read_as_sympy_reads_them():
    for path in ("fixtures/gl11.pair.json", "fixtures/gl21.pair.json"):
        with open(path) as fh:
            data = json.load(fh)
        texts = list(data["closed_conditions"])
        for pt in data["generic_points"]:
            texts += [e for row in pt["matrix"] + pt["inverse"] for e in row]
            texts += pt["relations"]
        for text in texts:
            got = ref.to_expr(Poly.read(Q, text))
            assert sympy.expand(got - sympy.sympify(text, rational=True)) == 0, text


# -- differential tests against the sympy referee ---------------------------

VARS = ["x", "y", "z"]


def random_poly(rng, field, names, degree=2, nterms=3):
    p = Poly(field)
    for _ in range(nterms):
        exps = {}
        for _ in range(rng.randint(0, degree)):
            v = rng.choice(names)
            exps[v] = exps.get(v, 0) + 1
        c = field.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3) if field is Q else 1))
        p = p + Poly(field, {tuple(sorted(exps.items())): c} if c else {})
    return p


def _membership_cases(rng, field, gens, names, count):
    """count polynomials: every other one a combination of gens, the rest
    such a combination plus a random polynomial."""
    out = []
    for k in range(count):
        p = Poly(field) if k % 2 == 0 else random_poly(rng, field, names)
        for g in gens:
            p = p + random_poly(rng, field, names) * g
        out.append(p)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_is_zero_matches_sympy_on_random_ideals(field):
    rng = random.Random(7 + field.char)
    verdicts = []
    for _ in range(30):
        names = VARS[:rng.randint(1, 3)]
        gens = [random_poly(rng, field, names) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if g]
        native = Reducer(gens)
        oracle = ref.Reducer([ref.to_expr(g) for g in gens], field)
        for p in _membership_cases(rng, field, gens, names, 4):
            got = native.is_zero(p)
            assert got == oracle.is_zero(ref.to_expr(p)), (gens, p)
            verdicts.append(got)
    assert len(verdicts) >= 100 and 0.2 < sum(verdicts) / len(verdicts) < 0.9


SHIPPED = ["gl11", "gl21", "pseudoabelian", "pseudoabelian2",
           "fixtures/gl11.pair.json", "fixtures/gl21.pair.json", "fixtures/osp12.pair.json"]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_is_zero_matches_sympy_on_shipped_relations(field):
    rng = random.Random(11 + field.char)
    for name in SHIPPED:
        for pt in shipped_pair(name, field).group.generic_points:
            entries = [e for row in pt.matrix for e in row] + pt.relations
            names = sorted({v for e in entries for m in e.terms for v, _ in m})
            oracle = ref.Reducer([ref.to_expr(r) for r in pt.relations], field)
            for p in _membership_cases(rng, field, pt.relations, names, 10):
                assert pt.reducer.is_zero(p) == oracle.is_zero(ref.to_expr(p)), (name, p)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_eval_at_matches_sympy_over_grassmann(field):
    rng = random.Random(13 + field.char)
    R = grassmann(field, ["a1", "a2", "a3", "a4"])
    even = [i for i in range(R.dim) if R.space.parities[i] == 0]
    for _ in range(40):
        p = random_poly(rng, field, VARS, degree=3, nterms=4)
        values = {}
        for v in VARS:
            coords = [field.zero] * R.dim
            for i in even:
                coords[i] = field.from_int(rng.randint(-2, 2))
            values[v] = Element(R, coords)
        want = ref.eval_at(ref.to_expr(p), {sympy.Symbol(v): x for v, x in values.items()}, R)
        assert eval_at(p, values, R.unit) == want


def _perturbed(pair, rng):
    """pair rebuilt from its JSON data with one entry changed at random,
    without row parities: with them the pair derives [V,V] from its module
    matrices, and a perturbed bracket_vv or module matrix fails to load."""
    data = pair_to_json(pair)
    data.pop("row_parities", None)
    kind = rng.choice(["vv", "module_matrices" if "module_matrices" in data else "action"])
    if kind == "vv":
        key = "%d,%d" % (rng.randrange(pair.t), rng.randrange(pair.t))
        data["bracket_vv"][key] = [str(rng.randint(-1, 1)) for _ in range(pair.lie_dim)]
    elif kind == "module_matrices":
        M = rng.choice(data["module_matrices"])
        M[rng.randrange(len(M))][rng.randrange(len(M))] = str(rng.randint(-1, 2))
    else:
        row = rng.choice(data["action"])
        row[rng.randrange(len(row))] = rng.choice(
            ["m_0_1", "m_0_0 - 1", "m_0_1^2", "2*m_1_1", "m_0_0*m_1_1", "0", "1"])
    return pair_from_json(pair.field, data)


def differential_pairs(field, count):
    rng = random.Random(17 + field.char)
    pairs = [shipped_pair(name, field) for name in SHIPPED]
    tries = 0
    while len(pairs) < len(SHIPPED) + count and tries < 10 * count:
        tries += 1
        try:
            pairs.append(_perturbed(rng.choice(pairs[:len(SHIPPED)]), rng))
        except (HCPError, LieError):
            continue  # the perturbation made the module basis dependent
    # rho(I) = I and the derivative is 0, yet rho(g) rho(h) = [[1, s^2 + t^2], [0, 1]];
    # the cube has rho(g) rho(g^-1) = I and is a representation only over F3
    group = BUILTIN_PAIRS["pseudoabelian"](field).group
    for entry in ("m_0_1*m_0_1", "m_0_1^3"):
        pairs.append(HarishChandraPair(group, ["w1", "phi1"], {}, name="action " + entry,
                                       action_expr=[[1, entry], [0, 1]]))
    return pairs


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pair_reports_match_sympy(field):
    rng = random.Random(19 + field.char)
    failing, outcomes = 0, set()
    for pair in differential_pairs(field, 18):
        got = validate_pair(pair)
        want = ref.validate_pair(pair)
        assert got.failures == want.failures, pair.name
        failing += not got.holds
        t = pair.t
        for _ in range(2):
            rows = [[field.from_int(rng.randint(-1, 1)) for _ in range(t)]
                    for _ in range(rng.randint(1, t))]
            sub = Subspace(field, t, rows)
            stable = Submodule(pair, sub).check_stable()
            assert stable == ref.check_stable(pair, sub)
            outcomes.add(stable)
            w_to_v = [list(r) for r in zip(*sub.rows)] if sub.dim else []
            v_to_u = [[field.from_int(rng.randint(-1, 1)) for _ in range(t)]]
            lie_embed = [[field.one] + [field.zero] * (pair.lie_dim - 1)]
            inner = _same_group_pair(pair, sub.dim)
            args = (inner, w_to_v, lie_embed, pair, _same_group_pair(pair, 1), v_to_u)
            got_seq, want_seq = check_exact_sequence(*args), ref.check_exact_sequence(*args)
            assert got_seq.failures == want_seq.failures, pair.name
    assert failing >= 8 and outcomes == {True, False}


def _same_group_pair(pair, t):
    return HarishChandraPair(pair.group, ["w%d" % i for i in range(t)], {})


# -- eval_at against the term-by-term evaluation it replaced ------------------


def eval_at_referee(poly, assignment, one):
    """eval_at as it was: each term starts from one·c and takes its
    factors one by one, and the sum starts from one·0."""
    out = one * poly.field.zero
    for mono, c in poly.terms.items():
        term = one * c
        for name, e in mono:
            for _ in range(e):
                term = term * assignment[name]
        out = out + term
    return out


def _eval_rings(rng, field):
    """(one, draw) for the three kinds of value eval_at takes: field
    scalars, Polys and even Elements of Λ(4)."""
    R = grassmann(field, ["a1", "a2", "a3", "a4"])
    even = [i for i in range(R.dim) if R.space.parities[i] == 0]

    def element():
        coords = [field.zero] * R.dim
        for i in even:
            coords[i] = field.from_int(rng.randint(-2, 2))
        return Element(R, coords)

    return [
        (field.one, lambda: field.from_int(rng.randint(-3, 3))),
        (Poly.const(field, field.one), lambda: random_poly(rng, field, ["s", "u"])),
        (R.unit, element),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_eval_at_matches_term_by_term_referee(field):
    rng = random.Random(23 + field.char)
    conditions = [c for name in sorted(BUILTIN_PAIRS)
                  for c in BUILTIN_PAIRS[name](field).group.closed_conditions]
    randoms = [random_poly(rng, field, VARS, degree=4, nterms=5) for _ in range(12)]
    randoms += [Poly(field), Poly.const(field, field.from_int(2)),
                P(field, "3*x^3*y^2 - 2*z^2 + 1")]
    assert any(() in p.terms for p in randoms)
    assert any(e > 1 for p in randoms for m in p.terms for _, e in m)
    for one, draw in _eval_rings(rng, field):
        for _ in range(3):
            at = {"m_%d_%d" % (i, j): draw() for i in range(3) for j in range(3)}
            for c in conditions:
                assert eval_at(c, at, one) == eval_at_referee(c, at, one), c
            at = {v: draw() for v in VARS}
            for p in randoms:
                assert eval_at(p, at, one) == eval_at_referee(p, at, one), p
