import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

from superkit.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_builtin_pair(self, capsys):
        code, out, _ = run(capsys, ["validate", "gl11"])
        assert code == 0
        assert "PASS" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, ["--json", "validate", "gl21"])
        assert code == 0
        data = json.loads(out)
        assert data["holds"] is True
        assert data["failures"] == []

    def test_file_fixture(self, capsys):
        code, out, _ = run(capsys, ["validate", "fixtures/gl21.pair.json"])
        assert code == 0
        assert "PASS" in out

    def test_row_parities_making_a_module_matrix_even_fail(self, capsys, tmp_path):
        with open("fixtures/gl11.pair.json") as fh:
            data = json.load(fh)
        data["row_parities"] = [0, 0]
        path = tmp_path / "even.pair.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("check failed: the row parities do not make")

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["validate", "nope"])
        assert code == 2
        assert "error" in err.lower()


class TestNormalForm:
    ARGS = ["nf", "gl11", "e(a1,v-) e(a2,v+)", "--coeffs", "Lambda(a1,a2)"]

    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert "even[0][0] = 1 - a1*a2" in out
        assert "odd v+ = a2" in out
        assert "odd v- = a1" in out

    def test_oracle_flag(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--check-oracle"])
        assert code == 0
        assert "oracle: ok" in out

    def test_fractional_coefficient_with_oracle(self, capsys):
        code, out, _ = run(capsys, ["nf", "gl11", "--coeffs", "Lambda(a1,a2)",
                                    "e(1/2*a1,v-) e(a2,v+)", "--check-oracle"])
        assert code == 0
        assert "even[0][0] = 1 - 1/2*a1*a2" in out
        assert "odd v- = 1/2*a1" in out
        assert "oracle: ok" in out

    def test_strategies_same_output(self, capsys):
        out_l = run(capsys, self.ARGS + ["--strategy", "leftmost"])[1]
        out_r = run(capsys, self.ARGS + ["--strategy", "rightmost"])[1]
        assert out_l == out_r

    def test_group_token_and_f_token(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "nf",
                "gl11",
                "g[[2,0],[0,1]] e(a1,v+) f(a1*a2,x1)",
                "--coeffs",
                "Lambda(a1,a2)",
            ],
        )
        assert code == 0
        assert "odd v+" in out

    def test_bad_word_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["nf", "gl11", "e(a1,zz)", "--coeffs", "Lambda(a1)"]
        )
        assert code == 2
        assert "zz" in err

    def test_bad_coefficient_algebra(self, capsys):
        code, _, _ = run(
            capsys, ["nf", "gl11", "e(a1,v+)", "--coeffs", "Poly(a1)"]
        )
        assert code == 2


def _abelian_pseudoabelian(tmp_path, name, changes):
    """fixtures/pseudoabelian.pair.json with [V,V] = 0 and the keys of
    changes replaced (a value None drops the key), written under tmp_path."""
    with open("fixtures/pseudoabelian.pair.json") as fh:
        data = json.load(fh)
    data["bracket_vv"] = {}
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestDerivedGv:
    """A pair has one [g,V] table, derived from its action; a file's
    bracket_gv is only compared with it."""

    NF = ["--coeffs", "Lambda(a1,a2,b1)", "--check-oracle"]

    def test_table_other_than_the_derivative_fails_at_load(self, capsys, tmp_path):
        # the identity action differentiates to [x1, w1] = 0, not phi1
        path = _abelian_pseudoabelian(tmp_path, "A.pair.json", {"bracket_gv": {"0,0": ["0", "1"]}})
        code, out, err = run(capsys, ["validate", path])
        assert code == 1 and out == ""
        assert err.startswith("check failed") and "(0,0)" in err
        code, _, err = run(capsys, ["nf", path, "e(b1,w1) f(a1*a2,x1)"] + self.NF)
        assert code == 1 and "(0,0)" in err

    def test_table_equal_to_the_derivative_loads(self, capsys, tmp_path):
        path = _abelian_pseudoabelian(tmp_path, "consistent.pair.json", {
            "action": [["1", "m_0_1"], ["0", "1"]], "bracket_gv": {"0,1": ["1", "0"]}})
        assert run(capsys, ["validate", path])[0] == 0

    def test_polynomial_action_is_differentiated(self, capsys, tmp_path):
        path = _abelian_pseudoabelian(tmp_path, "B.pair.json", {
            "action": [["1", "m_0_1"], ["0", "1"]], "bracket_gv": None})
        code, out, _ = run(capsys, ["validate", path])
        assert code == 0 and "PASS" in out
        code, out, err = run(capsys, ["nf", path, "e(b1,phi1) f(a1*a2,x1)"] + self.NF)
        assert code == 0, err
        assert "odd w1 = -a1*a2*b1" in out
        assert "oracle: ok" in out


class TestDerivedVv:
    """A pair file with row_parities has its [V,V] derived from its module
    matrices, the anticommutators; a file's bracket_vv is only compared
    with it."""

    NF = ["e(a1,v-) e(a2,v+)", "--coeffs", "Lambda(a1,a2)", "--check-oracle"]

    @pytest.mark.parametrize("field", ["q", "p=3", "p=5"])
    def test_doubled_table_fails_at_load(self, capsys, tmp_path, field):
        with open("fixtures/gl11.pair.json") as fh:
            data = json.load(fh)
        data["bracket_vv"] = {key: ["2", "2"] for key in data["bracket_vv"]}
        path = tmp_path / "doubled.pair.json"
        path.write_text(json.dumps(data))
        for argv in (["validate", str(path)], ["nf", str(path)] + self.NF):
            code, out, err = run(capsys, ["--field", field] + argv)
            assert code == 1 and out == ""
            assert err == "check failed: bracket_vv at (0,1) differs from the derived [V,V]\n"

    @pytest.mark.parametrize("field", ["q", "p=3", "p=5"])
    def test_file_without_the_table_loads(self, capsys, tmp_path, field):
        with open("fixtures/gl11.pair.json") as fh:
            data = json.load(fh)
        del data["bracket_vv"]
        path = tmp_path / "derived.pair.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["--field", field, "nf", str(path)] + self.NF)
        assert code == 0 and "oracle: ok" in out


class TestRepresentation:
    """validate checks rho(g) rho(h) = rho(gh) at each generic point g, h a
    copy of g with its parameters renamed."""

    FAILS = ["  (b) the action is not a representation: rho(g) rho(h) is not rho(gh) "
             "(generic point 0)"]

    def test_action_that_is_no_representation_fails(self, capsys, tmp_path):
        # rho(g) = [[1, s^2], [0, 1]] sends I to I and differentiates to 0,
        # yet rho(g) rho(h) = [[1, s^2 + t^2], [0, 1]]
        path = _abelian_pseudoabelian(tmp_path, "square.pair.json", {
            "action": [["1", "m_0_1*m_0_1"], ["0", "1"]], "bracket_gv": None})
        code, out, _ = run(capsys, ["validate", path])
        assert code == 1
        assert out.splitlines()[1:] == self.FAILS

    def test_group_model_that_is_no_group_fails_at_load(self, capsys, tmp_path):
        # the symmetric 2x2 matrices: g g' is not symmetric
        path = _abelian_pseudoabelian(tmp_path, "symmetric.pair.json", {
            "closed_conditions": ["m_0_1 - m_1_0"],
            "generic_points": [{"matrix": [["a", "b"], ["b", "d"]],
                                "inverse": [["d*T", "-b*T"], ["-b*T", "a*T"]],
                                "relations": ["(a*d - b*b)*T - 1"]}],
            "lie_basis": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "bracket_gv": None})
        code, out, err = run(capsys, ["validate", path])
        assert code == 1 and out == ""
        assert err.startswith("check failed: G is not closed under products and inverses")

    @pytest.mark.parametrize("field", ["q", "p=3", "p=5"])
    def test_cube_fails_unless_the_characteristic_is_3(self, capsys, tmp_path, field):
        # rho(g) rho(g^-1) = I for the cube (s^3 + (-s)^3 = 0), but
        # (s + t)^3 = s^3 + t^3 only in characteristic 3
        path = _abelian_pseudoabelian(tmp_path, "cube.pair.json", {
            "action": [["1", "m_0_1^3"], ["0", "1"]], "bracket_gv": None})
        code, out, _ = run(capsys, ["--field", field, "validate", path])
        if field == "p=3":
            assert code == 0 and out.endswith("PASS\n")
            return
        assert code == 1
        assert out.splitlines()[1:] == self.FAILS
        # the group law fails: g g and the product g^2 give different words
        nf = ["--field", field, "nf", path, "--coeffs", "Lambda(b1)"]
        outs = [run(capsys, nf + ["e(b1,phi1) " + g])[1]
                for g in ("g[[1,1],[0,1]] g[[1,1],[0,1]]", "g[[1,2],[0,1]]")]
        assert outs[0] != outs[1]
        if field == "q":
            assert "odd w1 = -2*b1" in outs[0] and "odd w1 = -8*b1" in outs[1]


class TestGr:
    def test_builtin_filtered(self, capsys):
        code, out, _ = run(capsys, ["gr", "Lambda2"])
        assert code == 0
        assert "degree dims: 0:1 1:2 2:1" in out
        assert "gr well defined: PASS" in out

    def test_tensor_iso(self, capsys):
        code, out, _ = run(capsys, ["gr", "Lambda2", "--with", "dual"])
        assert code == 0
        assert "gr tensor iso with dual: PASS" in out

    def test_file_fixture(self, capsys):
        code, out, _ = run(capsys, ["gr", "fixtures/grassmann2.alg.json"])
        assert code == 0
        assert "gr well defined: PASS" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, ["--json", "gr", "Lambda3"])
        assert code == 0
        data = json.loads(out)
        assert data["degree_dims"] == {"0": 1, "1": 3, "2": 3, "3": 1}

    def test_chain_breaking_the_law_fails_when_gr_is_built(self, capsys, monkeypatch):
        from superkit import fixtures
        from superkit.algebra import ideal_generated_by, polynomial_truncation
        from superkit.filtration import FilteredSuperAlgebra
        from superkit.linalg import Subspace, identity_matrix

        def resolve(field, spec):
            # K[t]/t^4 >= (t) >= (t^3) >= 0: (t)(t) is not in (t^3)
            A = polynomial_truncation(field, "t", 4)
            pieces = [ideal_generated_by(A, [A.element({g: 1})]).sub for g in ("t", "t^3")]
            full = Subspace(field, 4, identity_matrix(4, field))
            return FilteredSuperAlgebra(A, [full, *pieces, Subspace(field, 4)])

        monkeypatch.setattr(fixtures, "resolve_filtered", resolve)
        code, out, err = run(capsys, ["gr", "Lambda2"])
        assert code == 1 and out == ""
        assert err.startswith("check failed: ")


class TestRadical:
    def test_pseudoabelian_full(self, capsys):
        code, out, _ = run(
            capsys, ["radical", "pseudoabelian", "--lie-r", "full"]
        )
        assert code == 0
        assert "W_R dim 2" in out
        assert "Lie(H_R) dim 1" in out

    def test_zero_r(self, capsys):
        code, out, _ = run(capsys, ["radical", "pseudoabelian", "--lie-r", "zero"])
        assert code == 0
        assert "W_R dim 0" in out

    def test_explicit_rows_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            ["radical", "gl11", "--lie-r", "[[1,1]]", "--check-oracle"],
        )
        assert code == 0
        assert "W_R dim 2" in out
        assert "oracle: ok" in out

    def test_bad_rows(self, capsys):
        code, _, _ = run(capsys, ["radical", "gl11", "--lie-r", "[[1,1,1]]"])
        assert code == 2


class TestHypDecompose:
    def test_pure_gamma(self, capsys):
        code, out, _ = run(
            capsys,
            ["--field", "p=3", "hyp-decompose", "add3xL1", "0,1,0,0,0,0"],
        )
        assert code == 0
        assert "phi[1]*g1 : 1" in out
        assert "roundtrip: PASS" in out

    def test_fractional_coordinates(self, capsys):
        code, out, _ = run(capsys, ["hyp-decompose", "L2", "1/2,0,-2/3,0"])
        assert code == 0
        assert "phi[1] : 1/2" in out
        assert "phi[1]*g2 : -2/3" in out
        assert "roundtrip: PASS" in out

    def test_wrong_length(self, capsys):
        code, _, _ = run(
            capsys, ["--field", "p=3", "hyp-decompose", "add3xL1", "0,1"]
        )
        assert code == 2


class TestAxioms:
    def test_grassmann_passes(self, capsys):
        code, out, _ = run(capsys, ["axioms", "L2"])
        assert code == 0
        assert "PASS" in out

    def test_char0_truncation_fails(self, capsys):
        code, out, _ = run(capsys, ["axioms", "add3"])
        assert code == 1
        assert "FAIL" in out

    def test_char_p_truncation_passes(self, capsys):
        code, out, _ = run(capsys, ["--field", "p=3", "axioms", "add3"])
        assert code == 0

    def test_char_p_tensor_passes(self, capsys):
        # add3xL1 is K[T]/(T^3) ⊗ Λ(1), built by hyp.tensor_hopf
        code, out, _ = run(capsys, ["--field", "p=3", "axioms", "add3xL1"])
        assert (code, out) == (0, "axioms add3xL1: PASS\n")

    def test_file_fixture(self, capsys):
        code, out, _ = run(capsys, ["axioms", "fixtures/grassmann3.hopf.json"])
        assert code == 0
        assert "PASS" in out


class TestCoinvariants:
    def test_regular_is_trivial_line(self, capsys):
        code, out, _ = run(capsys, ["coinvariants", "L2"])
        assert code == 0
        assert "coinvariants dim 1" in out
        assert "alpha surjective: True" in out

    def test_trivial_mode(self, capsys):
        code, out, _ = run(capsys, ["coinvariants", "L2", "--mode", "trivial"])
        assert code == 0
        assert "coinvariants dim 4" in out
        assert "alpha surjective: False" in out


class TestMalformedInput:
    """Malformed input exits 2 with one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "e(a1*,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "e(a1+,v+)"],
            ["--field", "p=3", "hyp-decompose", "add3", "x,0,0"],
            ["--field", "p=3", "hyp-decompose", "add3", "1/3,0,0"],
            ["nf", "gl11", "--coeffs", "Lambda(a1,a1)", "e(a1,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "g[[1,0],[0,0]] e(a1,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "e(2a1,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "f(a1,x1)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "g[[1,1],[0,1]] e(a1,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1,a2)", "e(a1--a2,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(1,c)", "e(c,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a-b,c)", "e(c,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1,a2)", "e(a1*a2,v+)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "e(a1)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1,a2)", "f(a1*a2)"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "g[[1,0,0],[0,1,0],[0,0,1]]"],
            ["nf", "gl11", "--coeffs", "Lambda(a1)", "g[[1,0]]"],
            ["radical", "pseudoabelian", "--lie-r", "[[1]"],
            ["radical", "pseudoabelian", "--lie-r", "foo"],
        ],
        ids=["trailing-star", "trailing-plus", "scalar-not-a-number",
             "scalar-denominator-p", "repeated-generator", "singular-group-point",
             "juxtaposed-factors", "odd-f-coefficient", "group-point-off-the-group",
             "repeated-sign", "numeral-generator", "generator-not-a-name",
             "even-e-coefficient", "e-without-comma", "f-without-comma",
             "group-matrix-wrong-size", "group-matrix-not-square", "lie-r-unclosed",
             "lie-r-not-a-matrix"],
    )
    def test_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _set(key, value):
    def mutate(data):
        data[key] = value
    return mutate


def _drop(key):
    return lambda data: data.pop(key)


def _shorten(key):
    return lambda data: data[key].pop()


def _with_key(table, key, value):
    return lambda data: data[table].update({key: value})


def _module_2x3(data):
    data["module_matrices"][0] = [["0", "1", "0"], ["0", "0", "0"]]


def _condition(text):
    return lambda data: data["closed_conditions"].__setitem__(0, text)


def _point(key, text):
    def mutate(data):
        entries = data["generic_points"][0][key]
        if key == "relations":
            entries[0] = text
        else:
            entries[0][0] = text
    return mutate


def _action(text):
    """gl11 with the action given as a polynomial matrix, one entry text
    (row parities go with module matrices only)."""
    def mutate(data):
        del data["module_matrices"], data["row_parities"]
        data["action"] = [[text, "0"], ["0", "1"]]
    return mutate


PATH = "<fixture path>"


class TestMalformedFixture:
    """A malformed fixture name or file exits 2 with one stderr line."""

    CASES = {
        "add0-axioms": (None, None, ["axioms", "add0"]),
        "add0-hyp-decompose": (None, None, ["hyp-decompose", "add0", "1"]),
        "alg-product-index": ("grassmann2.alg.json", _with_key("products", "9,0", {"0": "1"}),
                              ["gr"]),
        "alg-no-labels": ("grassmann2.alg.json", _drop("labels"), ["gr"]),
        "alg-short-parities": ("grassmann2.alg.json", _shorten("parities"), ["gr"]),
        "alg-short-unit": ("grassmann2.alg.json", _set("unit", ["1"]), ["gr"]),
        "alg-not-json": ("grassmann2.alg.json", "not json {", ["gr"]),
        "alg-list-parity": ("grassmann2.alg.json", _set("parities", [[0], 1, 1, 0]), ["gr"]),
        "hopf-short-antipode": ("grassmann3.hopf.json", _shorten("antipode"), ["axioms"]),
        "hopf-delta-index": ("grassmann3.hopf.json",
                             lambda data: data["delta"][1].update({"0,99": "1"}), ["axioms"]),
        "pair-no-size": ("gl11.pair.json", _drop("size"), ["validate"]),
        "pair-module-2x3": ("gl11.pair.json", _module_2x3, ["validate"]),
        "pair-vv-index": ("gl11.pair.json", _with_key("bracket_vv", "0,7", ["1", "1"]),
                          ["validate"]),
        "pair-short-row-parities": ("gl11.pair.json", _set("row_parities", [0]), ["validate"]),
        "pair-list-module-label": ("gl11.pair.json", _set("module_labels", ["v+", ["v-"]]),
                                   ["validate"]),
        "pair-list-relation": ("gl11.pair.json",
                               lambda data: data["generic_points"][0].update(relations=[[1]]),
                               ["validate"]),
        "pair-condition-unknown-name": ("gl11.pair.json", _condition("m_0_1*zz"),
                                        ["validate"]),
        "pair-condition-entry-out-of-range": ("gl11.pair.json", _condition("m_0_2"),
                                              ["validate"]),
        "pair-condition-executable": ("gl11.pair.json",
                                      _condition("__import__('os').getpid()*0 + m_0_1"),
                                      ["validate"]),
        "pair-point-trailing-plus": ("gl11.pair.json", _point("matrix", "alpha +"),
                                     ["validate"]),
        "pair-relation-open-paren": ("gl11.pair.json",
                                     _point("relations", "alpha*(alpha_i - 1"), ["validate"]),
        "pair-action-trailing-plus": ("gl11.pair.json", _action("m_0_0 +"), ["validate"]),
        "pair-action-unknown-name": ("gl11.pair.json", _action("alpha"), ["validate"]),
        # module matrices and an action both given: the action would go unread
        "pair-module-and-action": ("gl11.pair.json",
                                   _set("action", [["m_0_0", "0"], ["0", "1"]]), ["validate"]),
        # row parities and an action: the parities would realise no matrix
        "pair-row-parities-and-action": ("gl11.pair.json",
                                         lambda data: (_action("1")(data),
                                                       data.update(row_parities=[0, 1])),
                                         ["validate"]),
        # JSON true and false are no integers, wherever an integer is allowed
        "alg-bool-parities": ("grassmann2.alg.json", _set("parities", [False, True, True, False]),
                              ["gr"]),
        "pair-bool-row-parities": ("gl11.pair.json", _set("row_parities", [False, True]),
                                   ["validate"]),
        "pair-bool-point-entry": ("gl11.pair.json",
                                  lambda data: (_point("matrix", True)(data),
                                                _point("relations", "True*alpha_i - 1")(data)),
                                  ["validate"]),
        "pair-bool-relation": ("gl11.pair.json", _point("relations", True), ["validate"]),
        # a parity is 0 or 1, not any integer read modulo 2
        "alg-parity-3": ("grassmann2.alg.json", _set("parities", [0, 3, 1, 0]), ["gr"]),
        "pair-row-parity-2": ("gl11.pair.json", _set("row_parities", [0, 2]), ["validate"]),
        "pair-row-parity-2-nf": ("gl11.pair.json", _set("row_parities", [0, 2]),
                                 ["nf", PATH, "e(a1,v-) e(a2,v+)", "--coeffs", "Lambda(a1,a2)",
                                  "--check-oracle"]),
        # a file of no known kind, or of a kind the command does not take
        "unknown-kind": ("gl11.pair.json", _set("kind", "lattice"), ["validate"]),
        "hopf-file-as-pair": (None, None, ["validate", "fixtures/grassmann3.hopf.json"]),
        "pair-file-as-hopf": (None, None, ["axioms", "fixtures/gl11.pair.json"]),
        "pair-file-as-algebra": (None, None, ["gr", "fixtures/gl11.pair.json"]),
        # a name that is neither a builtin fixture nor a file
        "unknown-hopf": (None, None, ["axioms", "L2x"]),
        "unknown-decomposable": (None, None, ["hyp-decompose", "Lambda2", "1"]),
        "unknown-filtered": (None, None, ["gr", "L2"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_one_line(self, capsys, tmp_path, case):
        source, mutate, argv = self.CASES[case]
        if source is not None:
            path = tmp_path / source
            if isinstance(mutate, str):
                path.write_text(mutate)
            else:
                with open("fixtures/" + source) as fh:
                    data = json.load(fh)
                mutate(data)
                path.write_text(json.dumps(data))
            # the path goes where the case puts PATH, else last
            argv = ([str(path) if a == PATH else a for a in argv] if PATH in argv
                    else argv + [str(path)])
        code, out, err = run(capsys, argv)
        assert code == 2, err
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err


def test_action_fixture_mutation_is_well_formed(capsys, tmp_path):
    """The action cases above differ from a fixture that reads by one entry."""
    with open("fixtures/gl11.pair.json") as fh:
        data = json.load(fh)
    _action("1")(data)
    path = tmp_path / "action.pair.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, ["validate", str(path)])
    assert code in (0, 1), err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_cli(argv, importtime=False):
    """The finished `python -m superkit.cli` process of argv, run in a fresh
    interpreter (a pytest session already holds every superkit module)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run([sys.executable] + flags + ["-m", "superkit.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)


def imported_modules(proc):
    """The modules a process run with -X importtime imported, in order."""
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


class TestNoSympyAtRuntime:
    @pytest.mark.parametrize("argv", [["validate", "gl11"], ["axioms", "L2"]],
                             ids=["validate", "axioms"])
    def test_command_imports_no_sympy(self, argv):
        proc = fresh_cli(argv, importtime=True)
        assert proc.returncode == 0, proc.stderr
        imported = imported_modules(proc)
        assert "superkit.algebra" in imported
        assert not [name for name in imported if name.split(".")[0] == "sympy"]


class TestModulesLoaded:
    """Each command imports only the superkit modules it runs.  With no
    bytecode cache, every module a process loads is compiled from source,
    so a module loaded and not run costs its compile time on every call."""

    PAIR = "algebra fields fixtures hcp liesuper linalg symbolic"
    HOPF = "algebra fields fixtures hopf linalg"
    CASES = {
        "validate": (["validate", "gl11"], 0, PAIR),
        "validate-file": (["validate", "fixtures/gl21.pair.json"], 0, PAIR),
        "nf": (["nf", "gl11", "--coeffs", "Lambda(a1,a2)", "e(a1,v-) e(a2,v+)",
                "--check-oracle"], 0, PAIR + " gamma"),
        "gr": (["--json", "gr", "Lambda3", "--with", "Lambda2"], 0,
               "algebra fields filtration fixtures linalg"),
        "radical": (["--json", "radical", "pseudoabelian", "--lie-r", "full", "--check-oracle"],
                    0, PAIR),
        "hyp-decompose": (["--field", "p=3", "hyp-decompose", "add3xL1", "0,1,0,0,0,0"], 0,
                          HOPF + " filtration hyp"),
        "axioms": (["axioms", "L2"], 0, HOPF),
        "coinvariants": (["coinvariants", "L2", "--mode", "regular"], 0, HOPF),
        # a field spec that is no odd prime fails before any command runs
        "bad-field": (["--field", "p=4", "validate", "gl11"], 2, "fields"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_command_loads_only_what_it_runs(self, case):
        argv, code, want = self.CASES[case]
        proc = fresh_cli(argv, importtime=True)
        assert proc.returncode == code
        loaded = {name.split(".", 1)[1] for name in imported_modules(proc)
                  if name.startswith("superkit.")}
        assert loaded == set(want.split())

    @pytest.mark.parametrize("where", ["word", "pair-file"])
    def test_parse_error_exits_2_with_one_line(self, tmp_path, where):
        """A symbolic.ParseError is malformed input whichever module raised
        it: cli reading a word, or hcp reading a condition of a pair file."""
        if where == "word":
            argv = ["nf", "gl11", "--coeffs", "Lambda(a1)", "e(a1*,v+)"]
        else:
            with open("fixtures/gl11.pair.json") as fh:
                data = json.load(fh)
            _condition("m_0_1 +")(data)
            path = tmp_path / "condition.pair.json"
            path.write_text(json.dumps(data))
            argv = ["validate", str(path)]
        proc = fresh_cli(argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


class TestInternalError:
    def test_exit_3_with_one_line(self, capsys, monkeypatch):
        def broken(args, field):
            raise RuntimeError("boom")

        monkeypatch.setattr("superkit.cli.cmd_validate", broken)
        code, out, err = run(capsys, ["validate", "gl11"])
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["internal error: RuntimeError: boom"]
        assert "Traceback" not in err


class TestFieldOption:
    def test_char2_rejected(self, capsys):
        code, _, _ = run(capsys, ["--field", "p=2", "validate", "gl11"])
        assert code == 2

    def test_nonprime_rejected(self, capsys):
        code, _, _ = run(capsys, ["--field", "p=6", "validate", "gl11"])
        assert code == 2

    def test_f5_validate(self, capsys):
        code, out, _ = run(capsys, ["--field", "p=5", "validate", "gl11"])
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("spec", ["p=x", "p=", "p=²", "p=-3", "²"])
    def test_malformed_spec_exits_2(self, capsys, spec):
        code, out, err = run(capsys, ["--field", spec, "validate", "gl11"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: cannot parse field spec %r" % spec]


# -- fuzzing the argv fragments and the non-polynomial fixture fields ------

SCALARS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/3", "3/0", "x", "", "1e3",
                     "0.5", "--1", " 1", "1/", "²", "+2"]),
    st.text(alphabet="0123456789/-+ .x", max_size=5),
)
COEFFS = st.one_of(
    st.sampled_from(["a1", "a2", "-a1", "2*a1", "a1+a2", "a1*a2", "a1*a2*a3", "1/2*a2",
                     "a1-a2", "0", "1", "a3", "(a1)", "a1**2", "zz", ""]),
    st.text(alphabet="a123*+-/() ", max_size=8),
)
FIELDS = st.one_of(
    st.sampled_from(["q", "p=3", "p=5", "p=7", "p=2", "p=9", "p=x", "p=", "p=-3", "7",
                     "0x7", "p=²"]),
    st.text(alphabet="pq=0123456789- ", max_size=4),
)


@st.composite
def matrix_text(draw):
    rows = [",".join(draw(st.lists(SCALARS, min_size=1, max_size=3)))
            for _ in range(draw(st.integers(1, 3)))]
    return "[[%s]]" % "],[".join(rows)


@st.composite
def word_text(draw):
    tokens = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from("efgx"))
        if kind == "e":
            label = draw(st.sampled_from(["v+", "v-", "zz", "", "v+,v-"]))
            tokens.append("e(%s,%s)" % (draw(COEFFS), label))
        elif kind == "f":
            label = draw(st.sampled_from(["x1", "x2", "x0", "x9", "y1", ""]))
            tokens.append("f(%s,%s)" % (draw(COEFFS), label))
        elif kind == "g":
            tokens.append("g" + draw(matrix_text()))
        else:
            tokens.append(draw(st.text(alphabet="efg([,])a1v+ ", max_size=8)))
    return " ".join(tokens)


@st.composite
def cli_argv(draw):
    kind = draw(st.sampled_from(["nf", "nf", "hyp", "radical"]))
    if kind == "nf":
        gens = draw(st.sampled_from(["a1", "a1,a2", "a1,a2,a3", "", "a1,a1", "1"]))
        argv = ["nf", draw(st.sampled_from(["gl11", "pseudoabelian"])), draw(word_text()),
                "--coeffs", "Lambda(%s)" % gens]
    elif kind == "hyp":
        n = draw(st.integers(1, 4))
        argv = ["hyp-decompose", draw(st.sampled_from(["add3", "L1", "add3xL1"])),
                ",".join(draw(st.lists(SCALARS, min_size=n, max_size=n)))]
    else:
        lie_r = draw(st.one_of(st.sampled_from(["full", "zero"]), matrix_text()))
        argv = ["radical", "gl11", "--lie-r", lie_r]
    if draw(st.booleans()):
        argv = ["--field", draw(FIELDS)] + argv
    return argv


def exit_code(argv):
    """main's exit status, the argparse exit included, and its stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(cli_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    code, err = exit_code(argv)
    event("exit %s" % code)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


def _fixture_data(name):
    with open(os.path.join(os.path.dirname(__file__), "..", "fixtures", name)) as fh:
        return json.load(fh)


FUZZED_FIXTURES = {
    "grassmann3.hopf.json": ["delta", "eps", "antipode", "products", "parities", "unit"],
    "grassmann2.alg.json": ["products", "parities", "unit"],
}
TABLE_KEYS = st.sampled_from(["0", "1", "3", "0,1", "1,0", "2,2", "0,8", "9,0", "-1,0",
                              "1,2,3", "a,b", "", " 1,2"])
GOOD_SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2", 0, 1, -1])
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 9), SCALARS, TABLE_KEYS),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(TABLE_KEYS, kids, max_size=3)),
    max_leaves=6,
)


@st.composite
def mutated_fixture(draw, fields=FUZZED_FIXTURES, deeper=st.integers(0, 3)):
    """A shipped fixture with one or two of its fields (fields[name])
    mutated at a drawn depth (one level more while `deeper` draws true):
    an entry set to a scalar or to any JSON value, dropped, or added.
    Scalar edits keep the file readable, so that they reach the axiom
    checks."""
    name = draw(st.sampled_from(sorted(fields)))
    data = _fixture_data(name)
    for _ in range(draw(st.integers(1, 2))):
        parent, key = data, draw(st.sampled_from(fields[name]))
        if key not in parent:  # dropped by the first mutation
            continue
        node = parent[key]
        while isinstance(node, (dict, list)) and node and draw(deeper):
            parent, key = node, draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        op = draw(st.sampled_from(["scalar", "scalar", "json", "drop", "add"]))
        if op == "drop":
            del parent[key]
        elif op == "add" and isinstance(node, dict):
            node[draw(TABLE_KEYS)] = draw(st.one_of(GOOD_SCALARS, JSON_VALUES))
        elif op == "add" and isinstance(node, list):
            node.append(draw(st.one_of(GOOD_SCALARS, JSON_VALUES)))
        else:
            parent[key] = draw(GOOD_SCALARS if op == "scalar" else JSON_VALUES)
    return name, data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed-fixtures")


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(mutated=mutated_fixture(), field=st.sampled_from(["q", "p=3", "p=5"]))
def test_fuzzed_fixture_fields_exit_cleanly(fuzz_dir, mutated, field):
    name, data = mutated
    path = fuzz_dir / name
    path.write_text(json.dumps(data))
    commands = [["axioms"]] + ([["gr"]] if name.endswith(".alg.json") else [])
    for command in commands:
        code, err = exit_code(["--field", field] + command + [str(path)])
        event("%s %s exit %s" % (name.split(".")[1], command[0], code))
        assert code in (0, 1, 2), err
        assert "Traceback" not in err


FUZZED_PAIR_FIELDS = {
    "gl11.pair.json": ["lie_basis", "bracket_vv", "module_matrices", "row_parities",
                       "closed_conditions", "generic_points"],
    "pseudoabelian.pair.json": ["closed_conditions", "generic_points", "action"],
}
# a word with e-, f- and (for pseudoabelian) g-tokens on each pair's module
PAIR_WORDS = {
    "gl11.pair.json": "e(a1,v+) e(a2,v-) f(a1*a2,x1) e(a3,v+)",
    "pseudoabelian.pair.json": "e(a2,phi1) e(a1,w1) f(a1*a2,x1) g[[1,2],[0,1]] e(a3,phi1)",
}


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(
    # mostly down to a leaf, so that scalar edits keep the pair readable
    mutated=mutated_fixture(FUZZED_PAIR_FIELDS, st.sampled_from([1, 1, 1, 0])),
    field=st.sampled_from(["q", "p=3", "p=5"]),
)
def test_fuzzed_pair_fields_exit_cleanly(fuzz_dir, mutated, field):
    name, data = mutated
    path = fuzz_dir / name
    path.write_text(json.dumps(data))
    nf = ["nf", str(path), PAIR_WORDS[name], "--coeffs", "Lambda(a1,a2,a3)", "--check-oracle"]
    for argv in (["validate", str(path)], nf):
        code, err = exit_code(["--field", field] + argv)
        event("%s %s exit %s" % (name.split(".")[0], argv[0], code))
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
