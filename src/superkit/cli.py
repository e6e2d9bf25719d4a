"""Command line front end.

    superkit validate gl11 --field q
    superkit nf gl11 --coeffs "Lambda(a1,a2)" "e(a1,v-) e(a2,v+)" --check-oracle
    superkit gr Lambda3 --with Lambda2
    superkit radical pseudoabelian --lie-r full --check-oracle
    superkit hyp-decompose add3xL2 --field p=3 "0,1,0,0,0,0,0,0,0,0,0,0"
    superkit axioms L2
    superkit coinvariants L2 --mode regular

Exit status: 0 on success, 1 when a mathematical check fails, 2 on
malformed input (one line on stderr).  Scalars print exactly, rationals
as a/b.

A process imports only the superkit modules its command runs: at the top
this module loads fields alone.  Each command imports its fixtures and
checks in its body, symbolic is loaded by parse_coeff_algebra and
parse_element, linalg by _parse_lie_r and json by _emit under --json.
Without a bytecode cache every module a process loads is compiled from
source, so a module that is loaded and not run costs its compile time.
"""

from __future__ import annotations

import argparse
import re
import sys

from .fields import FieldError, parse_field


class CLIError(ValueError):
    """Malformed input (exit status 2)."""


def render_element(el):
    """Deterministic linear-combination rendering of an algebra element."""
    field = el.algebra.field
    labels = el.algebra.space.labels
    parts = []
    for i in el.support():
        s = field.render(el.terms[i])
        lab = labels[i]
        if lab == "1":
            parts.append(s)
        elif s == "1":
            parts.append(lab)
        elif s == "-1":
            parts.append("-" + lab)
        else:
            parts.append("%s*%s" % (s, lab))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def parse_coeff_algebra(field, spec):
    from .algebra import grassmann
    from .symbolic import is_name

    m = re.fullmatch(r"Lambda\(([^)]*)\)", spec.strip())
    if not m:
        raise CLIError("coefficient algebra must look like Lambda(a1,a2)")
    gens = [g.strip() for g in m.group(1).split(",") if g.strip()]
    if not gens:
        raise CLIError("at least one odd generator is required")
    for g in gens:
        if not is_name(g):
            raise CLIError("generator %r is not a name such as a1" % g)
    if len(set(gens)) != len(gens):
        raise CLIError("repeated generator in %s" % spec.strip())
    return grassmann(field, gens)


def parse_element(R, text):
    """A polynomial in the generators, e.g. "a1*a2 - 2*a3*a4", over R."""
    from .symbolic import parse

    def generator(name):
        if name not in R.space.labels:
            raise CLIError("unknown generator %r" % name)
        return R.element({name: 1})

    return parse(text, lambda s: R.unit.scale(R.field.parse(s)), generator)


def parse_matrix(field, text, square=True):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise CLIError("matrix must look like [[1,0],[0,1]]")
    rows = text[2:-2].split("],[")
    out = []
    for row in rows:
        out.append([field.parse(x.strip()) for x in row.split(",")])
    if any(len(r) != len(out[0]) for r in out):
        raise CLIError("matrix rows must have equal length")
    if square and len(out[0]) != len(out):
        raise CLIError("matrix must be square")
    return out


def _load_fixture(resolver, field, spec):
    try:
        return resolver(field, spec)
    except ValueError as exc:
        # plain ValueError means an unknown fixture name or a malformed
        # file, which is a usage error; domain errors keep their meaning
        if type(exc) is not ValueError:
            raise
        raise CLIError(str(exc))


def parse_word(pair, R, text):
    """Generator tokens from a whitespace-separated word expression.

    Only the text is checked here: the labels, the coefficient
    expressions and the shape and size of a group matrix.  Whether each
    token lies in Gamma(R) is for gamma.normalize to decide."""
    field = pair.field
    toks = []
    for chunk in text.split():
        if chunk.startswith("e(") and chunk.endswith(")"):
            body = chunk[2:-1]
            if "," not in body:
                raise CLIError("e needs a coefficient and a basis label")
            expr, label = body.rsplit(",", 1)
            label = label.strip()
            if label not in pair.module_labels:
                raise CLIError("unknown module vector %r" % label)
            toks.append(("e", parse_element(R, expr), pair.module_labels.index(label)))
        elif chunk.startswith("f(") and chunk.endswith(")"):
            body = chunk[2:-1]
            if "," not in body:
                raise CLIError("f needs a coefficient and a Lie label")
            expr, label = body.rsplit(",", 1)
            label = label.strip()
            m = re.fullmatch(r"x(\d+)", label)
            if not m or not 1 <= int(m.group(1)) <= pair.lie_dim:
                raise CLIError("unknown Lie basis label %r" % label)
            coords = [field.zero] * pair.lie_dim
            coords[int(m.group(1)) - 1] = field.one
            toks.append(("f", parse_element(R, expr), tuple(coords)))
        elif chunk.startswith("g[[") and chunk.endswith("]]"):
            mat = parse_matrix(field, chunk[1:])
            if len(mat) != pair.group.size:
                raise CLIError("group matrix has the wrong size")
            toks.append(("g", mat))
        else:
            raise CLIError("cannot parse token %r" % chunk)
    return toks


def _emit(args, data, text_lines):
    if args.json:
        import json

        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args, field):
    from .fixtures import resolve_pair
    from .hcp import validate_pair

    pair = _load_fixture(resolve_pair, field, args.pair)
    report = validate_pair(pair)
    data = {"pair": args.pair, "holds": report.holds, "failures": report.failures}
    lines = ["validate %s: %s" % (args.pair, "PASS" if report.holds else "FAIL")]
    lines += ["  " + f for f in report.failures]
    _emit(args, data, lines)
    return 0 if report.holds else 1


def cmd_nf(args, field):
    from . import gamma
    from .fixtures import resolve_pair

    pair = _load_fixture(resolve_pair, field, args.pair)
    R = parse_coeff_algebra(field, args.coeffs)
    toks = parse_word(pair, R, args.word)
    try:
        u = gamma.normalize(pair, R, toks, strategy=args.strategy)
    except gamma.TokenError as exc:
        raise CLIError(str(exc)) from None
    even = [[render_element(x) for x in row] for row in u.even]
    odd = {
        pair.module_labels[i]: render_element(c) for i, c in enumerate(u.coords)
    }
    lines = []
    for i, row in enumerate(even):
        for j, s in enumerate(row):
            lines.append("even[%d][%d] = %s" % (i, j, s))
    for lab in pair.module_labels:
        lines.append("odd %s = %s" % (lab, odd[lab]))
    data = {"even": even, "odd": odd}
    ok = True
    if args.check_oracle:
        other = gamma.normalize(
            pair, R, toks,
            strategy="rightmost" if args.strategy == "leftmost" else "leftmost",
        )
        ok = other == u
        has_g = any(t[0] == "g" for t in toks)
        if ok and not has_g:
            ok = gamma.oracle_enveloping(pair, toks, R=R) == gamma.oracle_enveloping(u)
        if ok and pair.row_parities is not None:
            ok = gamma.oracle_supermatrix(pair, toks, R=R) == gamma.oracle_supermatrix(u)
        data["oracle"] = "ok" if ok else "mismatch"
        lines.append("oracle: %s" % data["oracle"])
    _emit(args, data, lines)
    return 0 if ok else 1


def cmd_gr(args, field):
    from .filtration import check_gr_tensor_iso
    from .fixtures import resolve_filtered

    FA = _load_fixture(resolve_filtered, field, args.source)
    # building gr checks the filtration law, which makes gr well defined
    comp = FA.companion
    dims = {}
    for d in comp.degrees:
        dims[d] = dims.get(d, 0) + 1
    lines = [
        "degree dims: " + " ".join("%d:%d" % (d, dims[d]) for d in sorted(dims))
    ]
    data = {"degree_dims": {str(d): dims[d] for d in dims}, "well_defined": True}
    lines.append("gr well defined: PASS")
    ok = True
    if args.with_:
        FB = _load_fixture(resolve_filtered, field, args.with_)
        rep = check_gr_tensor_iso(FA, FB)
        ok = rep.holds
        data["tensor_iso"] = {
            "holds": rep.holds,
            "failures": rep.failures,
            "degree_dims": {str(k): list(v) for k, v in rep.degree_dims.items()},
        }
        lines.append(
            "gr tensor iso with %s: %s" % (args.with_, "PASS" if rep.holds else "FAIL")
        )
        lines += ["  " + f for f in rep.failures]
    _emit(args, data, lines)
    return 0 if ok else 1


def _parse_lie_r(pair, spec):
    from .linalg import Subspace, identity_matrix

    field = pair.field
    l = pair.lie_dim
    if spec == "full":
        return Subspace(field, l, identity_matrix(l, field))
    if spec == "zero":
        return Subspace(field, l)
    rows = parse_matrix(field, spec, square=False) if spec.startswith("[[") else None
    if rows is None:
        raise CLIError("--lie-r must be full, zero or a [[...]] row list")
    if any(len(r) != l for r in rows):
        raise CLIError("each --lie-r row needs %d coordinates" % l)
    return Subspace(field, l, rows)


def cmd_radical(args, field):
    from .fixtures import resolve_pair
    from .hcp import brute_force_largest_subordinated, r_radical

    pair = _load_fixture(resolve_pair, field, args.pair)
    lie_r = _parse_lie_r(pair, args.lie_r)
    W, lie_hr = r_radical(pair, lie_r)
    lines = ["W_R dim %d" % W.sub.dim]
    for row in W.sub.rows:
        lines.append("  W: " + ",".join(field.render(c) for c in row))
    lines.append("Lie(H_R) dim %d" % lie_hr.dim)
    for row in lie_hr.rows:
        lines.append("  h: " + ",".join(field.render(c) for c in row))
    data = {
        "W_dim": W.sub.dim,
        "W_basis": [[field.render(c) for c in row] for row in W.sub.rows],
        "lie_hr_dim": lie_hr.dim,
        "lie_hr_basis": [[field.render(c) for c in row] for row in lie_hr.rows],
    }
    ok = True
    if args.check_oracle:
        best = brute_force_largest_subordinated(pair, lie_r)
        ok = best.dim <= W.sub.dim and all(W.sub.contains(r) for r in best.rows)
        data["oracle"] = "ok" if ok else "mismatch"
        lines.append("oracle: %s" % data["oracle"])
    _emit(args, data, lines)
    return 0 if ok else 1


def cmd_hyp_decompose(args, field):
    from .fixtures import resolve_decomposable
    from .hyp import CanonicalDecomposition

    H = _load_fixture(resolve_decomposable, field, args.fixture)
    cd = CanonicalDecomposition(H)
    n = H.algebra.dim
    phi = [field.parse(x.strip()) for x in args.phi.split(",")]
    if len(phi) != n:
        raise CLIError("functional needs %d coordinates" % n)
    table = cd.decompose(phi)
    back = cd.recompose(table)
    ok = back == phi
    HB, HL = H.hopf_factors
    blab = HB.algebra.space.labels
    t = HL.algebra.dim.bit_length() - 1
    lines = []
    data = {"terms": [], "roundtrip": ok}
    for (beta, mask) in sorted(table, key=lambda k: (k[0], bin(k[1]).count("1"), k[1])):
        gam = "".join(
            "*g%d" % (i + 1) for i in range(t) if mask >> i & 1
        )
        name = "phi[%s]%s" % (blab[beta], gam)
        c = field.render(table[(beta, mask)])
        lines.append("%s : %s" % (name, c))
        data["terms"].append({"basis": name, "coeff": c})
    lines.append("roundtrip: %s" % ("PASS" if ok else "FAIL"))
    _emit(args, data, lines)
    return 0 if ok else 1


def cmd_axioms(args, field):
    from .fixtures import resolve_hopf
    from .hopf import HopfError, check_hopf_axioms

    try:
        H = _load_fixture(resolve_hopf, field, args.fixture)
    except HopfError as exc:
        _emit(args, {"holds": False, "failures": [str(exc)]},
              ["axioms %s: FAIL" % args.fixture, "  " + str(exc)])
        return 1
    report = check_hopf_axioms(H)
    data = {"holds": report.holds, "failures": report.failures}
    lines = ["axioms %s: %s" % (args.fixture, "PASS" if report.holds else "FAIL")]
    lines += ["  " + f for f in report.failures]
    _emit(args, data, lines)
    return 0 if report.holds else 1


def cmd_coinvariants(args, field):
    from .fixtures import resolve_hopf
    from .hopf import regular_coaction, trivial_coaction

    H = _load_fixture(resolve_hopf, field, args.fixture)
    if args.mode == "regular":
        co = regular_coaction(H)
    else:
        co = trivial_coaction(H.algebra, H)
    sub = co.coinvariants()
    surj = co.check_alpha_surjective()
    lines = ["coinvariants dim %d" % sub.dim]
    for row in sub.rows:
        lines.append("  " + ",".join(field.render(c) for c in row))
    lines.append("alpha surjective: %s" % surj)
    data = {
        "dim": sub.dim,
        "basis": [[field.render(c) for c in row] for row in sub.rows],
        "alpha_surjective": surj,
    }
    _emit(args, data, lines)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="superkit",
        description="supergroup pairs: validation, normal forms, filtrations, duals",
    )
    p.add_argument("--field", default="q", help='"q" or "p=<odd prime>"')
    p.add_argument("--json", action="store_true", help="machine readable output")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check the pair conditions")
    s.add_argument("pair")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("nf", help="normal form of a generator word")
    s.add_argument("pair")
    s.add_argument("word")
    s.add_argument("--coeffs", required=True, help="e.g. Lambda(a1,a2)")
    s.add_argument("--strategy", choices=["leftmost", "rightmost"], default="leftmost")
    s.add_argument("--check-oracle", action="store_true")
    s.set_defaults(func=cmd_nf)

    s = sub.add_parser("gr", help="graded companion of a filtered algebra")
    s.add_argument("source")
    s.add_argument("--with", dest="with_", default=None,
                   help="second algebra for the tensor comparison")
    s.set_defaults(func=cmd_gr)

    s = sub.add_parser("radical", help="largest subordinated pair for Lie(R)")
    s.add_argument("pair")
    s.add_argument("--lie-r", default="full", help='full, zero or "[[...]]" rows')
    s.add_argument("--check-oracle", action="store_true")
    s.set_defaults(func=cmd_radical)

    s = sub.add_parser("hyp-decompose", help="canonical decomposition of a functional")
    s.add_argument("fixture", help="L<t>, add<m> or add<m>xL<t>")
    s.add_argument("phi", help="comma separated coordinates")
    s.set_defaults(func=cmd_hyp_decompose)

    s = sub.add_parser("axioms", help="Hopf axiom sweep on a fixture")
    s.add_argument("fixture")
    s.set_defaults(func=cmd_axioms)

    s = sub.add_parser("coinvariants", help="coaction coinvariants and alpha test")
    s.add_argument("fixture")
    s.add_argument("--mode", choices=["regular", "trivial"], default="regular")
    s.set_defaults(func=cmd_coinvariants)
    return p


def _malformed(exc):
    """Whether an error reports malformed input.  symbolic is looked up, not
    imported: a process that never loaded it cannot have raised its
    ParseError, whichever module called the parser."""
    symbolic = sys.modules.get(__package__ + ".symbolic")
    return isinstance(exc, (CLIError, FieldError)) or (
        symbolic is not None and isinstance(exc, symbolic.ParseError))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = parse_field(args.field)
    except FieldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return args.func(args, field)
    except ValueError as exc:
        if _malformed(exc):
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print("check failed: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
