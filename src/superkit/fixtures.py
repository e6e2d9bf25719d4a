"""Built-in pair fixtures: gl(1|1), gl(2|1) and the pseudoabelian example;
JSON fixtures; and the named fixtures of the command line.

gl(1|1) and gl(2|1) come from one builder, _gl_pair, which gives the
matrix units and their row parities; hcp derives the Lie(G), [g,V] and
[V,V] tables once.  A pair file gives module_matrices or an action, not
both, row_parities only with module_matrices, and its optional
"bracket_gv" is checked against the derived [g,V]; with row_parities its
"bracket_vv" is optional too and checked against the derived [V,V].

Each fixture loads only the modules it is built from, so that a process
compiles no module its command does not run: hcp (with liesuper and
symbolic) is imported by the pair builders, pair_from_json and
resolve_pair, hopf by the Hopf builders, hyp only for the add<m> names
and the tensor fixtures, filtration by resolve_filtered and json by
load_fixture."""

from __future__ import annotations

import os
import re

from .algebra import (
    SuperAlgebra, SuperIdeal, dual_numbers, grassmann, ground_algebra, odd_ideal,
)


def _gl_pair(field, m, n, labels, point, group_name, name):
    """The pair of gl(m|n) on its (m+n)x(m+n) matrix units in row-major
    order: the even units span Lie(G), the odd units are V (labelled by
    labels), G is cut out by m_i_j = 0 at the odd positions and takes the
    generic point.  HarishChandraPair derives [V,V] (the anticommutator, as
    the row parities make the units a supermatrix realisation) and [g,V]."""
    from .hcp import HarishChandraPair, MatrixGroupModel

    size = m + n
    parities = [0] * m + [1] * n
    even, odd = [], []
    for i in range(size):
        for j in range(size):
            unit = [[field.one if (a, b) == (i, j) else field.zero for b in range(size)]
                    for a in range(size)]
            (odd if parities[i] != parities[j] else even).append(((i, j), unit))
    group = MatrixGroupModel(
        field, size, ["m_%d_%d" % ij for ij, _ in odd], [M for _, M in even], [point],
        name=group_name,
    )
    return HarishChandraPair(group, labels, module_matrices=[M for _, M in odd],
                             row_parities=parities, name=name)


def gl11_pair(field):
    """G = invertible diagonal 2x2, V = span{v+, v-} (the odd part of gl(1|1))."""
    from .hcp import GenericPoint

    point = GenericPoint(
        [["alpha", 0], [0, "delta"]],
        [["alpha_i", 0], [0, "delta_i"]],
        ["alpha*alpha_i - 1", "delta*delta_i - 1"],
    )
    return _gl_pair(field, 1, 1, ["v+", "v-"], point, "GL1xGL1", "gl11")


def gl21_pair(field):
    """G = GL(2) x GL(1) block-diagonal in 3x3, V = odd part of gl(2|1)."""
    from .hcp import GenericPoint

    point = GenericPoint(
        [["a", "b", 0], ["c", "d", 0], [0, 0, "u"]],
        [["d*T", "-b*T", 0], ["-c*T", "a*T", 0], [0, 0, "u_i"]],
        ["(a*d - b*c)*T - 1", "u*u_i - 1"],
    )
    return _gl_pair(field, 2, 1, ["v13", "v23", "v31", "v32"], point, "GL2xGL1", "gl21")


def _pseudoabelian_pair(field, t):
    from .hcp import pseudoabelian_example

    return pseudoabelian_example(field, t)


BUILTIN_PAIRS = {
    "gl11": gl11_pair,
    "gl21": gl21_pair,
    "pseudoabelian": lambda field: _pseudoabelian_pair(field, 1),
    "pseudoabelian2": lambda field: _pseudoabelian_pair(field, 2),
}


# -- JSON fixtures ------------------------------------------------------
#
# Shapes, lengths and indices are checked where the JSON is read, so that
# a malformed file raises a plain ValueError (a usage error) before any
# structure is built from it.


def _parse_scalar(field, s):
    # a JSON true or false is no scalar: parse rejects its text
    if isinstance(s, int) and not isinstance(s, bool):
        return field.from_int(s)
    return field.parse(str(s))


def _typed(value, kind, what):
    # JSON true and false are ints to isinstance, and never what is meant
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError("%s has the wrong type" % what)
    return value


def _entry(data, key, kind=list, optional=False):
    """data[key] of the given JSON type; an optional key defaults to empty."""
    if key not in data:
        if optional:
            return kind()
        raise ValueError("fixture lacks %r" % key)
    return _typed(data[key], kind, "fixture entry %r" % key)


def _sized(items, size, what):
    if not isinstance(items, list) or len(items) != size:
        raise ValueError("%s must have %d entries" % (what, size))
    return items


def _each(items, kind, what):
    for x in items:
        _typed(x, kind, "an entry of " + what)
    return items


def _parities(items, size, what):
    """size parities, each 0 or 1 (an integer or its decimal text)."""
    for p in _each(_sized(items, size, what), (int, str), what):
        if str(p) not in ("0", "1"):
            raise ValueError("an entry of %s is not a parity 0 or 1" % what)
    return [int(p) for p in items]


def _scalars(field, items, size, what):
    return [_parse_scalar(field, c) for c in _sized(items, size, what)]


def _matrix(rows, nrows, ncols, what):
    """rows, checked to be an nrows x ncols matrix of strings or integers."""
    for row in _sized(rows, nrows, what):
        _each(_sized(row, ncols, what + " row"), (str, int), what)
    return rows


def _key(key, bounds, what):
    """The indices of an "i,j" table key, each below its bound."""
    idx = tuple(int(x) for x in key.split(","))
    if len(idx) != len(bounds) or not all(0 <= i < b for i, b in zip(idx, bounds)):
        raise ValueError("%s key %r is out of range" % (what, key))
    return idx


def algebra_from_json(field, data):
    labels = _each(_entry(data, "labels"), str, "labels")
    n = len(labels)
    parities = _parities(_entry(data, "parities"), n, "parities")
    products = {}
    for key, terms in _entry(data, "products", dict).items():
        products[_key(key, (n, n), "product")] = {
            _key(k, (n,), "product term")[0]: _parse_scalar(field, c)
            for k, c in _typed(terms, dict, "product %r" % key).items()
        }
    return SuperAlgebra(
        field,
        labels,
        parities,
        _scalars(field, _entry(data, "unit"), n, "unit"),
        products,
        check=True,
        name=data.get("name"),
    )


def hopf_from_json(field, data):
    from .hopf import HopfSuperAlgebra

    A = algebra_from_json(field, data)
    n = A.dim
    delta = []
    for table in _sized(_entry(data, "delta"), n, "delta"):
        delta.append({
            _key(key, (n, n), "delta"): _parse_scalar(field, c)
            for key, c in _typed(table, dict, "delta entry").items()
        })
    eps = _scalars(field, _entry(data, "eps"), n, "eps")
    antipode = [
        _scalars(field, col, n, "antipode column")
        for col in _sized(_entry(data, "antipode"), n, "antipode")
    ]
    return HopfSuperAlgebra(A, delta, eps, antipode, check=True)


def pair_to_json(pair):
    field = pair.field
    g = pair.group
    data = {
        "kind": "pair",
        "name": pair.name,
        "size": g.size,
        "closed_conditions": [str(c) for c in g.closed_conditions],
        "lie_basis": [
            [[field.render(x) for x in row] for row in M] for M in g.lie_basis
        ],
        "generic_points": [
            {
                "matrix": [[str(e) for e in row] for row in pt.matrix],
                "inverse": [[str(e) for e in row] for row in pt.inverse],
                "relations": [str(r) for r in pt.relations],
            }
            for pt in g.generic_points
        ],
        "module_labels": list(pair.module_labels),
        "bracket_vv": {
            "%d,%d" % key: [field.render(c) for c in coords]
            for key, coords in sorted(pair._vv.items())
        },
    }
    if pair.mode == "conjugation":
        data["module_matrices"] = [
            [[field.render(x) for x in row] for row in M]
            for M in pair.module_matrices
        ]
    else:
        data["bracket_gv"] = {
            "%d,%d" % key: [field.render(c) for c in coords]
            for key, coords in sorted(pair._gv.items())
        }
        data["action"] = [[str(e) for e in row] for row in pair.action_expr]
    if pair.row_parities is not None:
        data["row_parities"] = list(pair.row_parities)
    return data


def pair_from_json(field, data):
    from .hcp import GenericPoint, HCPError, HarishChandraPair, MatrixGroupModel

    size = int(_entry(data, "size", (int, str)))

    def field_matrix(M, what):
        return [[_parse_scalar(field, x) for x in row] for row in _matrix(M, size, size, what)]

    lie = [field_matrix(M, "Lie basis matrix") for M in _entry(data, "lie_basis")]
    points = []
    for pt in _entry(data, "generic_points"):
        _typed(pt, dict, "generic point")
        points.append(GenericPoint(
            _matrix(_entry(pt, "matrix"), size, size, "generic point"),
            _matrix(_entry(pt, "inverse"), size, size, "generic point inverse"),
            _each(_entry(pt, "relations"), (str, int), "relations"),
        ))
    group = MatrixGroupModel(
        field, size, _each(_entry(data, "closed_conditions"), (str, int), "closed_conditions"),
        lie, points,
        name=data.get("name"),
    )
    labels = _each(_entry(data, "module_labels"), str, "module_labels")
    t, l = len(labels), len(lie)
    vv = {
        _key(key, (t, t), "bracket_vv"): tuple(_scalars(field, coords, l, "bracket_vv entry"))
        for key, coords in _entry(data, "bracket_vv", dict).items()
    } if "bracket_vv" in data else None
    row_parities = data.get("row_parities")
    if row_parities is not None:
        row_parities = _parities(row_parities, size, "row_parities")
    kwargs = {"name": data.get("name"), "row_parities": row_parities}
    if "module_matrices" in data and "action" in data:
        raise ValueError("a pair file gives module_matrices or an action, not both")
    if row_parities is not None and "module_matrices" not in data:
        raise ValueError("a pair file gives row_parities only with module_matrices")
    if "module_matrices" in data:
        kwargs["module_matrices"] = [
            field_matrix(M, "module matrix")
            for M in _sized(data["module_matrices"], t, "module_matrices")
        ]
    elif "action" in data:
        kwargs["action_expr"] = _matrix(data["action"], t, t, "action")
    given = {
        _key(key, (l, t), "bracket_gv"): tuple(_scalars(field, coords, t, "bracket_gv entry"))
        for key, coords in _entry(data, "bracket_gv", dict, optional=True).items()
    }
    pair = HarishChandraPair(group, labels, vv, **kwargs)
    # the pair derives [g,V] from its action; a file's table is only checked
    if "bracket_gv" in data:
        zero = (field.zero,) * t
        for k in range(l):
            for i in range(t):
                if given.get((k, i), zero) != pair.gv(k, i):
                    raise HCPError("bracket_gv at (%d,%d) differs from the derived [g,V]"
                                   % (k, i))
    return pair


def load_fixture(field, path):
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError("cannot read %s as JSON: %s" % (path, exc))
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "pair":
        return pair_from_json(field, data)
    if kind == "hopf":
        return hopf_from_json(field, data)
    if kind == "algebra":
        return algebra_from_json(field, data)
    raise ValueError("unknown fixture kind %r" % (kind,))


# -- builtin named fixtures for the command line ------------------------


def resolve_pair(field, spec):
    from .hcp import HarishChandraPair

    if spec in BUILTIN_PAIRS:
        return BUILTIN_PAIRS[spec](field)
    if os.path.exists(spec):
        obj = load_fixture(field, spec)
        if not isinstance(obj, HarishChandraPair):
            raise ValueError("%s is not a pair fixture" % spec)
        return obj
    raise ValueError("unknown pair %r" % (spec,))


def unit_hopf(field):
    """The one dimensional Hopf superalgebra K."""
    from .hopf import HopfSuperAlgebra

    return HopfSuperAlgebra(
        ground_algebra(field), [{(0, 0): field.one}], [field.one], [[field.one]],
        check=True,
    )


def _named_hopf_factors(field, spec):
    """(B, Λ) for the names L<t>, add<m> and add<m>xL<t>, or None.

    B is K[T]/(T^m) with the binomial coproduct (None for L<t>) and Λ the
    Grassmann Hopf algebra on t generators (None for add<m>)."""
    from .hopf import grassmann_hopf

    m = re.fullmatch(r"L(\d+)|add(\d+)(?:xL(\d+))?", spec)
    if m is None:
        return None
    if m.group(2) and int(m.group(2)) == 0:
        raise ValueError("add<m> needs m >= 1")
    t = m.group(1) or m.group(3)
    B = None
    if m.group(2):
        from .hyp import additive_truncation

        B = additive_truncation(field, int(m.group(2))).as_hopf()
    L = grassmann_hopf(field, ["th%d" % (i + 1) for i in range(int(t))]) if t else None
    return B, L


def resolve_hopf(field, spec):
    factors = _named_hopf_factors(field, spec)
    if factors is not None:
        B, L = factors
        if B is not None and L is not None:
            from .hyp import tensor_hopf

            return tensor_hopf(B, L)
        return L if B is None else B
    if os.path.exists(spec):
        from .hopf import HopfSuperAlgebra

        obj = load_fixture(field, spec)
        if not isinstance(obj, HopfSuperAlgebra):
            raise ValueError("%s is not a Hopf fixture" % spec)
        return obj
    raise ValueError("unknown Hopf fixture %r" % (spec,))


def resolve_decomposable(field, spec):
    """B ⊗ Λ with its tensor splitting: L<t> (B = K), add<m> (Λ = K) or
    add<m>xL<t>."""
    from .hopf import grassmann_hopf
    from .hyp import tensor_hopf

    factors = _named_hopf_factors(field, spec)
    if factors is None:
        raise ValueError("unknown decomposable fixture %r" % (spec,))
    B, L = factors
    return tensor_hopf(
        unit_hopf(field) if B is None else B,
        grassmann_hopf(field, []) if L is None else L,
    )


def resolve_filtered(field, spec):
    """A named or JSON algebra together with a canonical nilpotent chain."""
    from .filtration import adic_filtration

    m = re.fullmatch(r"Lambda(\d+)", spec)
    if m:
        t = int(m.group(1))
        A = grassmann(field, ["th%d" % (i + 1) for i in range(t)])
        return adic_filtration(A, odd_ideal(A))
    m = re.fullmatch(r"dual(\d*)", spec)
    if m:
        D = dual_numbers(field)
        gens = [D.basis_element(1), D.basis_element(2)]
        return adic_filtration(D, SuperIdeal(D, gens))
    if os.path.exists(spec):
        A = load_fixture(field, spec)
        if not isinstance(A, SuperAlgebra):
            raise ValueError("%s is not an algebra fixture" % spec)
        return adic_filtration(A, odd_ideal(A))
    raise ValueError("unknown filtered algebra %r" % (spec,))
