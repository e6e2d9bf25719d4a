"""Built-in pair fixtures: gl(1|1), gl(2|1) and the pseudoabelian example;
JSON fixtures; and the named fixtures of the command line."""

from __future__ import annotations

import json
import os
import re

import sympy

from .algebra import (
    DualSuperNumbers, SuperAlgebra, SuperIdeal, grassmann, ground_algebra, odd_ideal,
)
from .hcp import (
    BasisExpander,
    GenericPoint,
    HarishChandraPair,
    MatrixGroupModel,
    _flatten,
    pseudoabelian_example,
)
from .linalg import mat_bracket


def _unit_matrix(field, size, i, j):
    return [
        [field.one if (a, b) == (i, j) else field.zero for b in range(size)]
        for a in range(size)
    ]


def _anticommutator_table(field, lie_basis, module_matrices):
    """bracket_VV for matrix fixtures: [v,w] = vw + wv expanded in Lie basis."""
    exp = BasisExpander(field, [_flatten(m) for m in lie_basis])
    table = {}
    for i, Mi in enumerate(module_matrices):
        for j, Mj in enumerate(module_matrices):
            anti = mat_bracket(Mi, Mj, -field.one)
            coords = exp.coords_field(_flatten(anti))
            if any(c != field.zero for c in coords):
                table[(i, j)] = tuple(coords)
    return table


def gl11_pair(field):
    """G = invertible diagonal 2x2, V = span{v+, v-} (the odd part of gl(1|1))."""
    m = [[sympy.Symbol("m_%d_%d" % (i, j)) for j in range(2)] for i in range(2)]
    al, de, ali, dei = sympy.symbols("alpha delta alpha_i delta_i")
    point = GenericPoint(
        [[al, 0], [0, de]],
        [[ali, 0], [0, dei]],
        [al * ali - 1, de * dei - 1],
    )
    lie = [_unit_matrix(field, 2, 0, 0), _unit_matrix(field, 2, 1, 1)]
    group = MatrixGroupModel(
        field, 2, [m[0][1], m[1][0]], lie, [point], name="GL1xGL1"
    )
    module = [_unit_matrix(field, 2, 0, 1), _unit_matrix(field, 2, 1, 0)]
    vv = _anticommutator_table(field, lie, module)
    return HarishChandraPair(
        group, ["v+", "v-"], vv, module_matrices=module, row_parities=(0, 1),
        name="gl11",
    )


def gl21_pair(field):
    """G = GL(2) x GL(1) block-diagonal in 3x3, V = odd part of gl(2|1)."""
    m = [[sympy.Symbol("m_%d_%d" % (i, j)) for j in range(3)] for i in range(3)]
    a, b, c, d, u = sympy.symbols("a b c d u")
    T, ui = sympy.symbols("T u_i")
    point = GenericPoint(
        [[a, b, 0], [c, d, 0], [0, 0, u]],
        [[d * T, -b * T, 0], [-c * T, a * T, 0], [0, 0, ui]],
        [(a * d - b * c) * T - 1, u * ui - 1],
    )
    lie = [
        _unit_matrix(field, 3, 0, 0),
        _unit_matrix(field, 3, 0, 1),
        _unit_matrix(field, 3, 1, 0),
        _unit_matrix(field, 3, 1, 1),
        _unit_matrix(field, 3, 2, 2),
    ]
    closed = [m[0][2], m[1][2], m[2][0], m[2][1]]
    group = MatrixGroupModel(field, 3, closed, lie, [point], name="GL2xGL1")
    module = [
        _unit_matrix(field, 3, 0, 2),
        _unit_matrix(field, 3, 1, 2),
        _unit_matrix(field, 3, 2, 0),
        _unit_matrix(field, 3, 2, 1),
    ]
    vv = _anticommutator_table(field, lie, module)
    return HarishChandraPair(
        group, ["v13", "v23", "v31", "v32"], vv, module_matrices=module,
        row_parities=(0, 0, 1), name="gl21",
    )


BUILTIN_PAIRS = {
    "gl11": gl11_pair,
    "gl21": gl21_pair,
    "pseudoabelian": lambda field: pseudoabelian_example(field, 1),
    "pseudoabelian2": lambda field: pseudoabelian_example(field, 2),
}


# -- JSON fixtures ------------------------------------------------------


def _parse_scalar(field, s):
    if isinstance(s, int):
        return field.from_int(s)
    return field.parse(str(s))


def algebra_from_json(field, data):
    products = {}
    for key, terms in data["products"].items():
        i, j = (int(x) for x in key.split(","))
        products[(i, j)] = {
            int(k): _parse_scalar(field, c) for k, c in terms.items()
        }
    return SuperAlgebra(
        field,
        list(data["labels"]),
        [int(p) for p in data["parities"]],
        [_parse_scalar(field, c) for c in data["unit"]],
        products,
        check=True,
        name=data.get("name"),
    )


def hopf_from_json(field, data):
    from .hopf import HopfSuperAlgebra

    A = algebra_from_json(field, data)
    delta = []
    for table in data["delta"]:
        out = {}
        for key, c in table.items():
            i, j = (int(x) for x in key.split(","))
            out[(i, j)] = _parse_scalar(field, c)
        delta.append(out)
    eps = [_parse_scalar(field, c) for c in data["eps"]]
    antipode = [[_parse_scalar(field, c) for c in col] for col in data["antipode"]]
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
    size = int(data["size"])
    lie = [
        [[_parse_scalar(field, x) for x in row] for row in M]
        for M in data["lie_basis"]
    ]
    points = [
        GenericPoint(pt["matrix"], pt["inverse"], pt["relations"])
        for pt in data["generic_points"]
    ]
    group = MatrixGroupModel(
        field, size, data["closed_conditions"], lie, points,
        name=data.get("name"),
    )
    vv = {}
    for key, coords in data.get("bracket_vv", {}).items():
        i, j = (int(x) for x in key.split(","))
        vv[(i, j)] = tuple(_parse_scalar(field, c) for c in coords)
    kwargs = {"name": data.get("name"), "row_parities": data.get("row_parities")}
    if "module_matrices" in data:
        kwargs["module_matrices"] = [
            [[_parse_scalar(field, x) for x in row] for row in M]
            for M in data["module_matrices"]
        ]
    else:
        gv = {}
        for key, coords in data.get("bracket_gv", {}).items():
            k, i = (int(x) for x in key.split(","))
            gv[(k, i)] = tuple(_parse_scalar(field, c) for c in coords)
        kwargs["bracket_gv"] = gv
        if "action" in data:
            kwargs["action_expr"] = data["action"]
    return HarishChandraPair(group, data["module_labels"], vv, **kwargs)


def load_fixture(field, path):
    with open(path) as fh:
        data = json.load(fh)
    kind = data.get("kind")
    if kind == "pair":
        return pair_from_json(field, data)
    if kind == "hopf":
        return hopf_from_json(field, data)
    if kind == "algebra":
        return algebra_from_json(field, data)
    raise ValueError("unknown fixture kind %r" % (kind,))


# -- builtin named fixtures for the command line ------------------------


def resolve_pair(field, spec):
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
    from .hyp import additive_truncation

    m = re.fullmatch(r"L(\d+)|add(\d+)(?:xL(\d+))?", spec)
    if m is None:
        return None
    t = m.group(1) or m.group(3)
    B = additive_truncation(field, int(m.group(2))).as_hopf() if m.group(2) else None
    L = grassmann_hopf(field, ["th%d" % (i + 1) for i in range(int(t))]) if t else None
    return B, L


def resolve_hopf(field, spec):
    from .hyp import tensor_hopf

    factors = _named_hopf_factors(field, spec)
    if factors is not None:
        B, L = factors
        if B is not None and L is not None:
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
        D = DualSuperNumbers(ground_algebra(field)).factor
        gens = [D.basis_element(1), D.basis_element(2)]
        return adic_filtration(D, SuperIdeal(D, gens, close=True))
    if os.path.exists(spec):
        A = load_fixture(field, spec)
        if not isinstance(A, SuperAlgebra):
            raise ValueError("%s is not an algebra fixture" % spec)
        return adic_filtration(A, odd_ideal(A))
    raise ValueError("unknown filtered algebra %r" % (spec,))
