"""The four benchmark workloads: seeded item lists and their output checks.

Each workload builds a fixed list of items from its seed.  One round runs
every item once, in order; a run repeats whole rounds, so every run does
the same operations in the same proportions.  An item is timed alone; its
check runs afterwards, outside the timed span, and compares the output
with a computation made here, apart from superkit, or with a property the
mathematics guarantees.

The seed changes the inputs but not the amount of work, so that every
run does the same work and runs on different seeds can be compared:

- Γ(R) words and pools are drawn once from a fixed base seed; the run's
  seed then relabels and re-signs the odd generators of R (an
  automorphism of Λ(k)), word by word or pool by pool.  Rewriting is
  natural under algebra maps, so the rewriting takes the same steps on
  every seed.  With freely seeded words the work of a round moved by
  ±10 % between seeds.
- Elsewhere the seed chooses between instances of equal size: gl(m|n)
  or its parity twin gl(n|m), which structure constant is perturbed,
  which generators of Λ(k) span a filtration ideal, and the linear forms
  and rewrite strategy of the seeded `nf` command.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction


class Wrong(Exception):
    """The operation completed but its output is not correct."""


class Failed(Exception):
    """The operation did not complete as it must (error, wrong exit code)."""


class Item:
    """One benchmark operation.

    run() is the timed operation; check(result) raises Wrong or Failed.
    inprocess(), when set, does the same work inside this process so that
    the traced run can see the layer calls of a subprocess item.
    """

    __slots__ = ("label", "run", "check", "fp", "inprocess", "argv")

    def __init__(self, label, run, check, *, fp=False, inprocess=None, argv=None):
        self.label = label
        self.run = run
        self.check = check
        self.fp = fp
        self.inprocess = inprocess
        self.argv = argv


class Workload:
    """A seeded item list plus what the harness needs to run it."""

    def __init__(self, name, items, *, probe_reps, subprocess_items=False):
        self.name = name
        self.items = items
        self.probe_reps = probe_reps
        self.subprocess_items = subprocess_items


# -- exact scalars apart from superkit ------------------------------------


def _scalar(field, x):
    """A field element as a plain Fraction (Q) or int residue (F_p)."""
    if field.char == 0:
        return Fraction(x)
    return x.v % field.char


def _rank(rows, p):
    """Rank by Gaussian elimination over Q (p == 0) or F_p."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p) if p else 1 / Fraction(rows[rank][col])
        rows[rank] = [_red(x * inv, p) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [_red(a - c * b, p) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _red(x, p):
    return x % p if p else x


def _equalizer_equations(co):
    """Linear equations for {a : tau(a) = a ⊗ 1}, read off the coaction table."""
    A, D = co.carrier, co.hopf.algebra
    field = A.field
    p = field.char
    n, m = A.dim, D.dim
    unit = [_scalar(field, c) for c in D.unit.coords]
    eqs = [[0] * n for _ in range(n * m)]
    for b in range(n):
        for (i, j), c in co.tau[b].items():
            eqs[i * m + j][b] = _red(eqs[i * m + j][b] + _scalar(field, c), p)
        for u, cu in enumerate(unit):
            eqs[b * m + u][b] = _red(eqs[b * m + u][b] - cu, p)
    return eqs, p


def _check_coinvariants(co, sub, want_dim):
    eqs, p = _equalizer_equations(co)
    n = co.carrier.dim
    field = co.carrier.field
    dim = n - _rank(eqs, p)
    if dim != want_dim or sub.dim != dim:
        raise Wrong("coinvariants dim %d, equalizer dim %d, expected %d"
                    % (sub.dim, dim, want_dim))
    rows = [[_scalar(field, c) for c in r] for r in sub.rows]
    for r in rows:
        for eq in eqs:
            if _red(sum(a * b for a, b in zip(eq, r)), p):
                raise Wrong("a coinvariant basis vector is not in the equalizer")
    if _rank(rows, p) != dim:
        raise Wrong("coinvariant basis is not independent")


# -- random ingredients ---------------------------------------------------


def _rand_odd(rng, R):
    """A nonzero odd element: a combination of two odd basis vectors."""
    odd = [i for i in range(R.dim) if R.space.parities[i] == 1]
    while True:
        out = R.zero()
        for i in rng.sample(odd, min(len(odd), 2)):
            c = rng.choice((-2, -1, 1, 2))
            out = out + R.basis_element(i).scale(R.field.from_int(c))
        if not out.is_zero():
            return out


def _rand_sqzero(rng, R):
    return R.multiply(_rand_odd(rng, R), _rand_odd(rng, R))


def _group_points(pair):
    """Invertible field matrices in GL; their inverses stay over Z[1/6]."""
    if pair.group.size == 2:
        cands = [[[2, 0], [0, 3]], [[1, 0], [0, 2]], [[-1, 0], [0, 1]]]
    else:
        cands = [
            [[1, 1, 0], [0, 1, 0], [0, 0, 2]],
            [[2, 0, 0], [1, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [-1, 0, 0], [0, 0, 3]],
        ]
    f = pair.field
    return [[[f.from_int(x) for x in row] for row in m] for m in cands]


def _random_word(pair, R, rng, length, points):
    """e with probability 0.7, f 0.2 and a group point g 0.1."""
    word = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.7:
            word.append(("e", _rand_odd(rng, R), rng.randrange(pair.t)))
        elif roll < 0.9:
            k = rng.randrange(pair.lie_dim)
            x = tuple(pair.field.one if s == k else pair.field.zero
                      for s in range(pair.lie_dim))
            word.append(("f", _rand_sqzero(rng, R), x))
        else:
            word.append(("g", rng.choice(points)))
    return word


def _automorphism(R, rng):
    """A seeded signed permutation of the generators a1..ak of R = Λ(k)."""
    k = R.dim.bit_length() - 1
    perm = rng.sample(range(k), k)
    gens = [R.element({"a%d" % (perm[i] + 1): rng.choice((1, -1))}) for i in range(k)]
    images = []
    for label in R.space.labels:
        img = R.unit
        if label != "1":
            for g in label.split("*"):
                img = R.multiply(img, gens[int(g[1:]) - 1])
        images.append(img)

    def apply(x):
        out = R.zero()
        for i in x.support():
            out = out + images[i].scale(x.coords[i])
        return out

    return apply


def _relabel(word, apply):
    return [tok if tok[0] == "g" else (tok[0], apply(tok[1]), tok[2]) for tok in word]


def _describe_word(word):
    parts = []
    for tok in word:
        if tok[0] == "g":
            parts.append("g%s" % [[str(x) for x in row] for row in tok[1]])
        else:
            parts.append("%s(%s,%s)" % (tok[0], [str(c) for c in tok[1].coords],
                                        tok[2]))
    return " ".join(parts)


def _lambda(field, k):
    from superkit.algebra import grassmann

    return grassmann(field, ["a%d" % (i + 1) for i in range(k)])


def _rmat_product(R, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = R.zero()
            for k in range(n):
                acc = acc + R.multiply(A[i][k], B[k][j])
            row.append(acc)
        out.append(tuple(row))
    return out


# -- nf-oracle --------------------------------------------------------------

# the fixed draw of Γ(R) words; the run's seed only relabels them
BASE_SEED = 202


def nf_oracle(seed):
    """Short random words over Λ(4), normalised twice and sent to both oracles.

    Per round: on gl(1|1)/Q six words of each length 1..6, on gl(1|1)/F5
    three, on gl(2|1)/Q five (84 words, 18 of them over F5).  Each word
    gets its own seeded relabelling of a1..a4."""
    from superkit import gamma as G
    from superkit.fields import PrimeField, Rationals
    from superkit.fixtures import gl11_pair, gl21_pair

    Q, F5 = Rationals(), PrimeField(5)
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    items = []
    for pair, per_length in ((gl11_pair(Q), 6), (gl11_pair(F5), 3), (gl21_pair(Q), 5)):
        R = _lambda(pair.field, 4)
        points = _group_points(pair)
        for length in range(1, 7):
            for _ in range(per_length):
                word = _random_word(pair, R, base, length, points)
                word = _relabel(word, _automorphism(R, rng))
                items.append(_nf_item(G, pair, R, word))
    return Workload("nf-oracle", items, probe_reps=1)


def _nf_item(G, pair, R, word):
    has_g = any(tok[0] == "g" for tok in word)

    def run():
        u = G.normalize(pair, R, word, "leftmost")
        w = G.normalize(pair, R, word, "rightmost")
        env = None
        if not has_g:
            env = (G.oracle_enveloping(pair, word, R=R), G.oracle_enveloping(u))
        sm = (G.oracle_supermatrix(pair, word, R=R), G.oracle_supermatrix(u))
        return u, w, env, sm

    def check(res):
        u, w, env, sm = res
        if u != w:
            raise Wrong("leftmost and rightmost normal forms differ")
        if env is not None and env[0] != env[1]:
            raise Wrong("enveloping oracle: word and normal form differ")
        if sm[0] != sm[1]:
            raise Wrong("supermatrix oracle: word and normal form differ")

    label = "nf %s/%s %s" % (pair.name, pair.field.name, _describe_word(word))
    return Item(label, run, check, fp=pair.field.char != 0)


# -- group-law --------------------------------------------------------------


def group_law(seed):
    """Group laws in Γ(R) over larger coefficient algebras, no enveloping oracle.

    Pools of four normal forms of length-4 words for gl(1|1)/Λ(5),
    gl(1|1)/Λ(6) and gl(2|1)/Λ(5), one seeded relabelling per pool.  Per
    pool and round: two associativity triples, one identity check and one
    inverse check (12 items)."""
    from superkit import gamma as G
    from superkit.fields import Rationals
    from superkit.fixtures import gl11_pair, gl21_pair

    Q = Rationals()
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    gl11, gl21 = gl11_pair(Q), gl21_pair(Q)
    items = []
    for pair, k in ((gl11, 5), (gl11, 6), (gl21, 5)):
        R = _lambda(Q, k)
        points = _group_points(pair)
        apply = _automorphism(R, rng)
        pool = [G.normalize(pair, R, _relabel(_random_word(pair, R, base, 4, points), apply))
                for _ in range(4)]
        oracle = _OracleCache(G)
        name = "%s/Λ(%d)" % (pair.name, k)
        for _ in range(2):
            u, w, z = (base.choice(pool) for _ in range(3))
            items.append(_assoc_item(G, oracle, name, u, w, z))
        items.append(_identity_item(G, name, base.choice(pool)))
        items.append(_inverse_item(G, oracle, name, base.choice(pool)))
    return Workload("group-law", items, probe_reps=32)


class _OracleCache:
    """Supermatrix images of pool elements, computed once, outside timing."""

    def __init__(self, G):
        self.G = G
        self.images = {}

    def image(self, u):
        key = id(u)
        if key not in self.images:
            self.images[key] = (u, self.G.oracle_supermatrix(u))
        return self.images[key][1]

    def check_hom(self, u, w, uw):
        R = u.R
        if self.G.oracle_supermatrix(uw) != _rmat_product(R, self.image(u), self.image(w)):
            raise Wrong("supermatrix oracle is not multiplicative")


def _pool_label(u):
    def coords(x):
        return ",".join(str(c) for c in x.coords)

    return "[%s | %s]" % (" ; ".join(coords(x) for row in u.even for x in row),
                          " ; ".join(coords(a) for a in u.coords))


def _assoc_item(G, oracle, name, u, w, z):
    def run():
        uw = G.multiply(u, w)
        wz = G.multiply(w, z)
        return uw, G.multiply(uw, z), G.multiply(u, wz)

    def check(res):
        uw, left, right = res
        if left != right:
            raise Wrong("(uw)z != u(wz)")
        oracle.check_hom(u, w, uw)

    label = "assoc %s %s %s %s" % (name, _pool_label(u), _pool_label(w), _pool_label(z))
    return Item(label, run, check)


def _identity_item(G, name, u):
    e = G.identity(u.pair, u.R)

    def run():
        return G.multiply(e, u), G.multiply(u, e)

    def check(res):
        if res[0] != u or res[1] != u:
            raise Wrong("identity law fails")

    return Item("identity %s %s" % (name, _pool_label(u)), run, check)


def _inverse_item(G, oracle, name, u):
    e = G.identity(u.pair, u.R)

    def run():
        v = G.inverse(u)
        return v, G.multiply(u, v), G.multiply(v, u)

    def check(res):
        v, uv, vu = res
        if uv != e or vu != e:
            raise Wrong("inverse law fails")
        oracle.check_hom(u, v, uv)

    return Item("inverse %s %s" % (name, _pool_label(u)), run, check)


# -- axiom-sweep ------------------------------------------------------------


def axiom_sweep(seed):
    """Lie, Hopf, coaction, gr ⊗ and gr/hyp checks; no Γ(R) at all.

    Per round (24 items, 17 over F3/F5):
      gl(m|n) suite: (1|1)/Q, (1|2) or (2|1) over each field, (2|2)/F3,
        (1|3) or (3|1) over F5; plus gl(1|2)/F5 with one structure
        constant doubled, which must fail;
      Hopf sweeps: Λ2/Q, Λ3/F3, Λ2/F5, add3/F3, add5/F5, add3⊗Λ1/F3, and
        add3/Q, which must fail (the binomial coproduct needs char 3);
      coinvariants of the regular coaction (Λ2/Q, Λ3/F5, add3/F3) and of
        the trivial coaction (Λ2/F3) against an equalizer computed here;
      gr ⊗ on Λ3 ⊗ Λ1 over Q, Λ3 ⊗ K[t]/t^2 over F3 and K[t]/t^4 ⊗ Λ2
        over F5, each Λ(k) filtered by the ideal of seeded generators;
      gr/hyp duality on Λ2/Q, add5/F5 and add3⊗Λ1/F3.
    """
    from superkit import filtration, hopf, hyp, liesuper
    from superkit.fields import PrimeField, Rationals

    Q, F3, F5 = Rationals(), PrimeField(3), PrimeField(5)
    rng = random.Random(seed)
    items = []

    def twin(m, n):
        return rng.choice([(m, n), (n, m)])

    for field, shapes in (
        (Q, [(1, 1), twin(1, 2)]),
        (F3, [twin(1, 2), (2, 2)]),
        (F5, [twin(1, 2), twin(1, 3)]),
    ):
        for m, n in shapes:
            items.append(_lie_item(liesuper, field, m, n))
    items.append(_broken_lie_item(liesuper, F5, rng))

    def lam(field, t):
        return hopf.grassmann_hopf(field, ["t%d" % (i + 1) for i in range(t)])

    def add(field, m):
        return hyp.additive_truncation(field, m).as_hopf()

    L2Q, L3F3, L2F5, L2F3, L3F5 = lam(Q, 2), lam(F3, 3), lam(F5, 2), lam(F3, 2), lam(F5, 3)
    add3F3, add5F5 = add(F3, 3), add(F5, 5)
    add3L1 = hyp.tensor_hopf(add(F3, 3), lam(F3, 1))
    add3Q = hyp.additive_truncation(Q, 3).as_hopf(check=False)

    for name, H in (("Λ2/Q", L2Q), ("Λ3/F3", L3F3), ("Λ2/F5", L2F5),
                    ("add3/F3", add3F3), ("add5/F5", add5F5), ("add3⊗Λ1/F3", add3L1)):
        items.append(_hopf_item(hopf, name, H, True))
    items.append(_hopf_item(hopf, "add3/Q", add3Q, False))

    for name, H in (("Λ2/Q", L2Q), ("Λ3/F5", L3F5), ("add3/F3", add3F3)):
        items.append(_coinv_item(hopf, "regular " + name, H, lambda H=H: hopf.regular_coaction(H), 1))
    items.append(_coinv_item(hopf, "trivial Λ2/F3", L2F3,
                             lambda: hopf.trivial_coaction(L2F3.algebra, L2F3), L2F3.algebra.dim))

    for field, left, right in (
        (Q, _filtered_lambda(Q, 3, 2, rng), _filtered_lambda(Q, 1, 1, rng)),
        (F3, _filtered_lambda(F3, 3, 1, rng), _filtered_truncation(F3, 2)),
        (F5, _filtered_truncation(F5, 4), _filtered_lambda(F5, 2, 1, rng)),
    ):
        items.append(_gr_tensor_item(filtration, field, *left, *right))

    for name, H in (("Λ2/Q", L2Q), ("add5/F5", add5F5), ("add3⊗Λ1/F3", add3L1)):
        items.append(_gr_hyp_item(hyp, name, H))
    return Workload("axiom-sweep", items, probe_reps=3)


def _lie_item(liesuper, field, m, n):
    def run():
        L = liesuper.gl_super(field, m, n)
        return L, L.check_axioms()

    def check(res):
        L, report = res
        size = m + n
        if L.dim != size * size:
            raise Wrong("gl(%d|%d) has dim %d" % (m, n, L.dim))
        if sum(L.space.parities) != 2 * m * n:
            raise Wrong("gl(%d|%d) has the wrong odd dimension" % (m, n))
        if not report.holds:
            raise Wrong("gl(%d|%d) axioms reported failing" % (m, n))

    return Item("lie gl(%d|%d)/%s" % (m, n, field.name), run, check, fp=field.char != 0)


def _broken_lie_item(liesuper, field, rng):
    """gl(1|2) with one structure constant [x_i, x_j] (i != j) doubled.

    Its mirror [x_j, x_i] is left alone, so (B3) must fail."""
    good = liesuper.gl_super(field, 1, 2)
    keys = sorted(k for k in good.table if k[0] != k[1])
    i, j = rng.choice(keys)
    k = sorted(good.table[(i, j)])[0]
    table = {key: dict(terms) for key, terms in good.table.items()}
    table[(i, j)][k] = table[(i, j)][k] * field.from_int(2)
    labels, parities = list(good.space.labels), list(good.space.parities)

    def run():
        L = liesuper.LieSuperAlgebra(field, labels, parities, table, check=False)
        return L.check_axioms()

    def check(report):
        if report.holds:
            raise Wrong("a perturbed bracket passed the axiom suite")

    return Item("lie gl(1|2)/%s perturbed at %s" % (field.name, (i, j, k)), run, check,
                fp=field.char != 0)


def _hopf_item(hopf, name, H, holds):
    def run():
        return hopf.check_hopf_axioms(H)

    def check(report):
        if report.holds != holds:
            raise Wrong("Hopf axioms on %s: holds=%s, expected %s"
                        % (name, report.holds, holds))

    return Item("hopf " + name, run, check, fp=H.field.char != 0)


def _coinv_item(hopf, name, H, make, want_dim):
    def run():
        co = make()
        return co, co.coinvariants()

    def check(res):
        _check_coinvariants(res[0], res[1], want_dim)

    return Item("coinvariants " + name, run, check, fp=H.field.char != 0)


def _filtered_lambda(field, k, gens, rng):
    """Λ(s1..sk) filtered by the powers of the ideal of `gens` seeded generators."""
    from superkit.algebra import grassmann, ideal_generated_by
    from superkit.filtration import adic_filtration

    A = grassmann(field, ["s%d" % (i + 1) for i in range(k)])
    chosen = sorted(rng.sample(range(1, k + 1), gens))
    ideal = ideal_generated_by(A, [A.element({"s%d" % i: 1}) for i in chosen])
    return adic_filtration(A, ideal), "Λ%d(%s)" % (k, ",".join("s%d" % i for i in chosen))


def _filtered_truncation(field, m):
    """K[t]/t^m filtered by the powers of (t)."""
    from superkit.algebra import ideal_generated_by, polynomial_truncation
    from superkit.filtration import adic_filtration

    A = polynomial_truncation(field, "t", m)
    return adic_filtration(A, ideal_generated_by(A, [A.basis_element(1)])), "K[t]/t^%d" % m


def _gr_tensor_item(filtration, field, FA, da, FB, db):
    total = FA.algebra.dim * FB.algebra.dim

    def run():
        return filtration.check_gr_tensor_iso(FA, FB)

    def check(rep):
        if not rep.holds:
            raise Wrong("gr ⊗ iso fails: %s" % rep.failures[:1])
        if any(a != b for a, b in rep.degree_dims.values()):
            raise Wrong("gr ⊗ degree dims differ")
        if sum(a for a, _ in rep.degree_dims.values()) != total:
            raise Wrong("gr ⊗ degree dims do not add up to dim A·dim B")

    return Item("gr⊗ %s ⊗ %s /%s" % (da, db, field.name), run, check, fp=field.char != 0)


def _gr_hyp_item(hyp, name, H):
    def run():
        return hyp.check_gr_hyp_duality(H, hyp.augmentation_filtration(H))

    def check(rep):
        if not rep.holds:
            raise Wrong("gr/hyp duality fails on %s" % name)
        if any(a != b for a, b in rep.degree_dims.values()):
            raise Wrong("gr/hyp degree dims differ on %s" % name)
        if sum(a for a, _ in rep.degree_dims.values()) != H.algebra.dim:
            raise Wrong("gr/hyp degree dims do not add up on %s" % name)

    return Item("gr/hyp " + name, run, check, fp=H.field.char != 0)


# -- cli-readme -------------------------------------------------------------


def cli_readme(seed, root):
    """The README commands, each a fresh `python -m superkit.cli` process.

    Per round (13 commands, 2 of them over F3): the eight README commands;
    a seeded `nf` word e(x,v-) e(y,v+) over Λ(4) whose normal form is
    known by hand (even part diag(1 - x·y), odd parts y and x); `axioms
    add3` over Q, which must fail; and three malformed inputs, which must
    exit 2 with one line on stderr.  Two of those three exit 1 with "check
    failed" or a traceback today and are counted as failed.
    """
    rng = random.Random(seed)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    items = []

    def add(args, code, check=None):
        items.append(_cli_item(args, code, check, root, env))

    add(["validate", "gl11"], 0, _text("validate gl11: PASS\n"))
    add(["validate", "fixtures/gl21.pair.json"], 0,
        _text("validate fixtures/gl21.pair.json: PASS\n"))
    add(["nf", "gl11", "--coeffs", "Lambda(a1,a2)", "e(a1,v-) e(a2,v+)", "--check-oracle"],
        0, _nf_text_check({1: 1}, {2: 1}))
    x, y = _linear_form(rng), _linear_form(rng)
    word = "e(%s,v-) e(%s,v+)" % (_render_linear(x), _render_linear(y))
    add(["--json", "nf", "gl11", "--coeffs", "Lambda(a1,a2,a3,a4)", word,
         "--strategy", rng.choice(["leftmost", "rightmost"]), "--check-oracle"], 0,
        _nf_json_check(x, y))
    add(["--json", "gr", "Lambda3", "--with", "Lambda2"], 0, _gr_check)
    add(["--json", "radical", "pseudoabelian", "--lie-r", "full", "--check-oracle"], 0,
        _radical_check)
    add(["--field", "p=3", "hyp-decompose", "add3xL1", "0,1,0,0,0,0"], 0,
        _text("phi[1]*g1 : 1\nroundtrip: PASS\n"))
    add(["axioms", "L2"], 0, _text("axioms L2: PASS\n"))
    add(["axioms", "add3"], 1, _first_line("axioms add3: FAIL"))
    add(["coinvariants", "L2", "--mode", "regular"], 0,
        _text("coinvariants dim 1\n  1,0,0,0\nalpha surjective: True\n"))
    add(["--field", "p=4", "validate", "gl11"], 2)
    add(["nf", "gl11", "--coeffs", "Lambda(a1)", "e(a1*,v+)"], 2)
    add(["--field", "p=3", "hyp-decompose", "add3", "x,0,0"], 2)
    return Workload("cli-readme", items, probe_reps=16, subprocess_items=True)


def _cli_item(args, code, check, root, env):
    argv = [sys.executable, "-m", "superkit.cli"] + args

    def run():
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    def inprocess():
        from superkit import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(args)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error ends the process
                rc = 1
                print("Traceback (most recent call last):\n%r" % exc, file=sys.stderr)
        return rc, out.getvalue(), err.getvalue()

    def check_result(res):
        rc, out, err = res
        if "Traceback" in err:
            raise Failed("exit %d with a traceback" % rc)
        if rc != code:
            raise Failed("exit %d, expected %d: %s" % (rc, code, err.strip()[:200]))
        if code == 2:
            lines = [ln for ln in err.splitlines() if ln.strip()]
            if len(lines) != 1:
                raise Failed("malformed input gave %d stderr lines" % len(lines))
        elif check is not None:
            check(out)

    fp = "--field" in args and args[args.index("--field") + 1] in ("p=3", "p=5")
    return Item("superkit " + " ".join(args), run, check_result, fp=fp,
                inprocess=inprocess, argv=argv)


def _text(want):
    def check(out):
        if out != want:
            raise Wrong("output %r, expected %r" % (out[:200], want))
    return check


def _first_line(want):
    def check(out):
        if out.splitlines()[:1] != [want]:
            raise Wrong("first line %r, expected %r" % (out[:80], want))
    return check


def _linear_form(rng):
    """{generator index: nonzero integer} on two or three of a1..a4."""
    gens = sorted(rng.sample(range(1, 5), rng.randint(2, 3)))
    return {g: rng.choice((-2, -1, 1, 2)) for g in gens}


def _render_linear(x):
    out = ""
    for g, c in sorted(x.items()):
        term = ("" if abs(c) == 1 else "%d*" % abs(c)) + "a%d" % g
        out += ("-" if c < 0 else ("+" if out else "")) + term
    return out


def _parse_poly(text):
    """Parse a rendered element ("1 - a1*a2 + 2/3*a3") to {monomial: Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        factors = term.lstrip("-").split("*")
        coeff = Fraction(1)
        if re.fullmatch(r"\d+(/\d+)?", factors[0]):
            coeff = Fraction(factors[0])
            factors = factors[1:]
        mono = tuple(factors)
        out[mono] = out.get(mono, 0) + sign * coeff
    return {m: c for m, c in out.items() if c}


def _expected_nf(x, y):
    """Hand-derived normal form of e(x,v-) e(y,v+) in gl(1|1).

    One application of relation (1) with [v-,v+] = E11 + E22 = I gives
    f(-x·y, I) e(y,v+) e(x,v-), so the even part is (1 - x·y)·I.  For
    linear forms x·y = sum over i<j of (x_i y_j - x_j y_i) a_i a_j."""
    diag = {(): Fraction(1)}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            c = x.get(i, 0) * y.get(j, 0) - x.get(j, 0) * y.get(i, 0)
            if c:
                diag[("a%d" % i, "a%d" % j)] = Fraction(-c)
    even = [[diag, {}], [{}, diag]]
    odd = {
        "v+": {("a%d" % g,): Fraction(c) for g, c in y.items()},
        "v-": {("a%d" % g,): Fraction(c) for g, c in x.items()},
    }
    return even, odd


def _nf_text_check(x, y):
    even, odd = _expected_nf(x, y)

    def check(out):
        got = {}
        for line in out.splitlines():
            key, _, val = line.partition(" = ")
            got[key] = val
        for i in range(2):
            for j in range(2):
                if _parse_poly(got.get("even[%d][%d]" % (i, j), "?")) != even[i][j]:
                    raise Wrong("even[%d][%d] = %r" % (i, j, got.get("even[%d][%d]" % (i, j))))
        for lab, want in odd.items():
            if _parse_poly(got.get("odd " + lab, "?")) != want:
                raise Wrong("odd %s = %r" % (lab, got.get("odd " + lab)))
        if "oracle: ok" not in out.splitlines():
            raise Wrong("oracle line missing or not ok")
    return check


def _nf_json_check(x, y):
    even, odd = _expected_nf(x, y)

    def check(out):
        data = json.loads(out)
        got_even = [[_parse_poly(s) for s in row] for row in data["even"]]
        got_odd = {lab: _parse_poly(s) for lab, s in data["odd"].items()}
        if got_even != even or got_odd != odd or data.get("oracle") != "ok":
            raise Wrong("nf json %r" % (data,))
    return check


def _gr_check(out):
    data = json.loads(out)
    dims3 = {str(k): math.comb(3, k) for k in range(4)}
    dims5 = {str(k): [math.comb(5, k)] * 2 for k in range(6)}
    iso = data["tensor_iso"]
    if (data["degree_dims"] != dims3 or not data["well_defined"] or not iso["holds"]
            or iso["degree_dims"] != dims5):
        raise Wrong("gr Λ3 ⊗ Λ2: %r" % (data,))


def _radical_check(out):
    # With Lie(R) = Lie(G) every vector is subordinated: W_R = V, Lie(H_R) = Lie(G).
    data = json.loads(out)
    if (data["W_dim"] != 2 or data["W_basis"] != [["1", "0"], ["0", "1"]]
            or data["lie_hr_dim"] != 1 or data["oracle"] != "ok"):
        raise Wrong("radical pseudoabelian: %r" % (data,))


WORKLOADS = {
    "nf-oracle": lambda seed, root: nf_oracle(seed),
    "group-law": lambda seed, root: group_law(seed),
    "axiom-sweep": lambda seed, root: axiom_sweep(seed),
    "cli-readme": cli_readme,
}
