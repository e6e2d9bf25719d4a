"""The sympy implementation of the polynomial layer, kept as the referee of
superkit.symbolic: its Groebner-basis `Reducer` and `eval_at`, and the
symbolic parts of `validate_pair` (with the check that an action matrix
is a representation, rho(g) rho(h) = rho(gh)), `Submodule.check_stable` and
`check_exact_sequence` computed through them, as superkit had them before
its polynomials became native.  Polys enter through `to_expr`."""

from copy import copy
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from operator import add

import sympy

from superkit.algebra import AxiomReport
from superkit.fields import FpElement, Rationals
from superkit.hcp import HCPError, _flatten
from superkit.linalg import Subspace, mat_mul, nullspace, rank


def to_sympy(scalar):
    if isinstance(scalar, Fraction):
        return sympy.Rational(scalar.numerator, scalar.denominator)
    if isinstance(scalar, FpElement):
        return sympy.Integer(scalar.v)
    if isinstance(scalar, int):
        return sympy.Integer(scalar)
    raise TypeError("cannot convert %r to sympy" % (scalar,))


def from_sympy(expr, field):
    q = sympy.Rational(expr)
    return field.from_fraction(Fraction(int(q.p), int(q.q)))


def to_expr(poly):
    """A superkit Poly as a sympy expression."""
    return sympy.Add(*[
        to_sympy(c) * sympy.Mul(*[sympy.Symbol(v) ** e for v, e in mono])
        for mono, c in poly.terms.items()
    ])


class Reducer:
    """Zero test modulo the ideal of relations: sympy's lex Groebner basis
    over Q or F_p, in the sorted variables of the relations and of the
    tested polynomial (superkit's former Reducer fixed the variables of
    the relations and failed on any other, and on constant relations)."""

    def __init__(self, relations, field):
        self.relations = [sympy.expand(r) for r in relations]
        self.bases = {}
        self.options = {"order": "lex"}
        if isinstance(field, Rationals):
            self.options["domain"] = sympy.QQ
        else:
            self.options["modulus"] = field.p

    def is_zero(self, expr):
        expr = sympy.expand(expr)
        if expr == 0:
            return True
        names = set(expr.free_symbols).union(*(r.free_symbols for r in self.relations))
        # a last, smallest variable keeps the generator list nonempty
        gens = tuple(sorted(names, key=str)) + (sympy.Symbol("~"),)
        if gens not in self.bases:
            self.bases[gens] = sympy.groebner(
                self.relations or [sympy.Integer(0)], *gens, **self.options)
        return self.bases[gens].contains(expr)


def eval_at(expr, assignment, R):
    """Evaluate a polynomial at even elements of a superalgebra R;
    assignment: {sympy.Symbol: Element of R}."""
    field = R.field
    expr = sympy.expand(expr)
    syms = sorted(expr.free_symbols, key=str)
    if not syms:
        return R.unit.scale(from_sympy(expr, field))
    poly = sympy.Poly(expr, *syms)
    out = R.zero()
    for exps, coeff in poly.terms():
        term = R.unit.scale(from_sympy(coeff, field))
        for s, e in zip(syms, exps):
            val = assignment[s]
            for _ in range(int(e)):
                term = R.multiply(term, val)
        out = out + term
    return out


class Point:
    """A generic point of a pair's group as sympy expressions."""

    def __init__(self, point, field):
        self.matrix = [[to_expr(e) for e in row] for row in point.matrix]
        self.inverse = [[to_expr(e) for e in row] for row in point.inverse]
        self.relations = [to_expr(r) for r in point.relations]
        self.reducer = Reducer(self.relations, field)


def _coords(expander, vec, reducer):
    return expander.coords_generic(
        vec, lambda c, x: to_sympy(c) * x, add, reducer.is_zero, sympy.Integer(0)
    )


def rho_symbolic(pair, point):
    t = pair.t
    if pair.mode == "matrix":
        size = pair.group.size
        mapping = {
            sympy.Symbol("m_%d_%d" % (i, j)): point.matrix[i][j]
            for i in range(size) for j in range(size)
        }
        return [[to_expr(e).xreplace(mapping) for e in row] for row in pair.action_expr]
    cols = []
    for i in range(t):
        M = [[to_sympy(x) for x in row] for row in pair.module_matrices[i]]
        conj = mat_mul(mat_mul(point.matrix, M), point.inverse)
        coords, ok = _coords(pair.module_expander, _flatten(conj), point.reducer)
        if not ok:
            raise HCPError("generic action escapes the module")
        cols.append(coords)
    return [[cols[j][i] for j in range(t)] for i in range(t)]


def ad_symbolic(pair, point):
    g = pair.group
    cols = []
    for k in range(g.lie_dim):
        X = [[to_sympy(x) for x in row] for row in g.lie_basis[k]]
        conj = mat_mul(mat_mul(point.matrix, X), point.inverse)
        coords, ok = _coords(g.lie_expander, _flatten(conj), point.reducer)
        if not ok:
            raise HCPError("adjoint action escapes the Lie algebra")
        cols.append(coords)
    return [[cols[j][i] for j in range(g.lie_dim)] for i in range(g.lie_dim)]


def _represents(pair, point, field):
    """rho(g) rho(h) = rho(gh) modulo the relations of g and h, for h the
    generic point g with every symbol x replaced by a fresh symbol x_h."""
    symbols = set().union(*(e.free_symbols for row in point.matrix for e in row),
                          *(r.free_symbols for r in point.relations))
    fresh = {x: sympy.Symbol(x.name + "_h") for x in symbols}
    h, gh = copy(point), copy(point)
    h.matrix = [[e.xreplace(fresh) for e in row] for row in point.matrix]
    gh.matrix = mat_mul(point.matrix, h.matrix)
    reducer = Reducer(point.relations + [r.xreplace(fresh) for r in point.relations], field)
    diff = [[x - y for x, y in zip(r, s)] for r, s in zip(
        mat_mul(rho_symbolic(pair, point), rho_symbolic(pair, h)), rho_symbolic(pair, gh))]
    return all(reducer.is_zero(x) for row in diff for x in row)


def validate_pair(pair):
    report = AxiomReport()
    field = pair.field
    t = pair.t

    for i in range(t):
        for j in range(t):
            if pair.vv(i, j) != pair.vv(j, i):
                report.fail(
                    "(a) bracket not symmetric at (%s,%s)"
                    % (pair.module_labels[i], pair.module_labels[j])
                )

    for idx, gp in enumerate(pair.group.generic_points):
        point = Point(gp, field)
        try:
            rho = rho_symbolic(pair, point)
            ad = ad_symbolic(pair, point)
        except HCPError as exc:
            report.fail("(b) %s (generic point %d)" % (exc, idx))
            continue
        if pair.mode == "matrix" and not _represents(pair, point, field):
            report.fail("(b) the action is not a representation: rho(g) rho(h) is not rho(gh) "
                        "(generic point %d)" % idx)
        for i in range(t):
            for j in range(i, t):
                for m in range(pair.lie_dim):
                    lhs = sympy.Integer(0)
                    for k in range(t):
                        for l in range(t):
                            c = pair.vv(k, l)[m]
                            if c:
                                lhs = lhs + rho[k][i] * rho[l][j] * to_sympy(c)
                    rhs = sympy.Integer(0)
                    for k in range(pair.lie_dim):
                        c = pair.vv(i, j)[k]
                        if c:
                            rhs = rhs + ad[m][k] * to_sympy(c)
                    if not point.reducer.is_zero(lhs - rhs):
                        report.fail(
                            "(b) equivariance fails at (%s,%s), generic point %d"
                            % (pair.module_labels[i], pair.module_labels[j], idx)
                        )
                        break
                else:
                    continue
                break

    for multiset in combinations_with_replacement(range(t), 3):
        acc = [field.zero] * t
        for (i, j, k) in set(permutations(multiset)):
            term = pair.apply_gv(pair.vv(i, j), k)
            acc = [a + x for a, x in zip(acc, term)]
        if any(acc):
            report.fail(
                "(c) cubic identity fails on coefficient of %s"
                % "*".join(pair.module_labels[x] for x in multiset)
            )

    if report.holds:
        try:
            lie_rep = pair.assembled_lie().check_axioms()
            if not lie_rep.holds:
                for f in lie_rep.failures:
                    report.fail("assembled Lie superalgebra: %s" % f)
        except HCPError as exc:
            report.fail("assembled Lie superalgebra: %s" % exc)
    return report


def _symbolic_residue(vec, sub):
    vec = list(vec)
    for row, p in zip(sub.rows, sub.pivots):
        c = vec[p]
        vec = [x - c * to_sympy(r) for x, r in zip(vec, row)]
    return vec


def check_stable(pair, sub):
    for gp in pair.group.generic_points:
        point = Point(gp, pair.field)
        rho = rho_symbolic(pair, point)
        for row in sub.rows:
            vec = []
            for m in range(pair.t):
                acc = sympy.Integer(0)
                for i, c in enumerate(row):
                    if c != pair.field.zero:
                        acc = acc + rho[m][i] * to_sympy(c)
                vec.append(acc)
            res = _symbolic_residue(vec, sub)
            if not all(point.reducer.is_zero(x) for x in res):
                return False
    return True


def check_exact_sequence(inner, w_to_v, lie_embed, mid, outer, v_to_u,
                         *, even_level_exact=True):
    report = AxiomReport()
    field = mid.field
    if not even_level_exact:
        report.fail("even-level group exactness flagged false by fixture")

    t_in, t_mid, t_out = inner.t, mid.t, outer.t
    if w_to_v and (len(w_to_v) != t_mid or any(len(r) != t_in for r in w_to_v)):
        raise HCPError("embedding matrix has wrong shape")
    if v_to_u and (len(v_to_u) != t_out or any(len(r) != t_mid for r in v_to_u)):
        raise HCPError("projection matrix has wrong shape")

    w_cols = [tuple(w_to_v[i][j] for i in range(t_mid)) for j in range(t_in)]
    if rank(w_cols, field) != t_in:
        report.fail("(1) W -> V is not injective")
    proj_rows = [tuple(r) for r in v_to_u]
    if rank(proj_rows, field) != t_out:
        report.fail("(1) V -> U is not surjective")
    ker = Subspace(field, t_mid, nullspace(proj_rows, field, t_mid)) if t_mid else Subspace(field, 0)
    img = Subspace(field, t_mid, w_cols)
    if ker != img:
        report.fail("(1) kernel of V -> U differs from the image of W")

    if not check_stable(mid, img):
        report.fail("(2a) W is not G-stable")

    for gp in inner.group.generic_points:
        point = Point(gp, field)
        rho = rho_symbolic(mid, point)
        for j in range(t_mid):
            vec = [
                rho[m][j] - (sympy.Integer(1) if m == j else sympy.Integer(0))
                for m in range(t_mid)
            ]
            res = _symbolic_residue(vec, img)
            if not all(point.reducer.is_zero(x) for x in res):
                report.fail("(2b) inner group moves V/W at %s" % mid.module_labels[j])
                break

    lie_inner = Subspace(field, mid.lie_dim, [tuple(r) for r in lie_embed])
    for row in img.rows:
        for j in range(t_mid):
            if not lie_inner.contains(mid.apply_vv(row, j)):
                report.fail("(2c) [V, W] escapes Lie(inner)")
                break
    return report
