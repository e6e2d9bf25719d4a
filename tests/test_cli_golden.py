"""Byte-exact CLI output on the README commands.

Each case runs `superkit.cli.main` in process from the repository root and
compares stdout and the exit status with `tests/golden/cli_readme.json`.
The commands are the eight under "Command line" in the README plus
`axioms add3` (a failing check, exit 1), each in text and `--json` mode.
Malformed inputs are left out: their messages go to stderr.

A change that means to alter this output rewrites the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from superkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_readme.json"

COMMANDS = {
    "validate-gl11": ["validate", "gl11"],
    "validate-gl21-file": ["validate", "fixtures/gl21.pair.json"],
    "nf-gl11-oracle": ["nf", "gl11", "--coeffs", "Lambda(a1,a2)",
                       "e(a1,v-) e(a2,v+)", "--check-oracle"],
    "gr-lambda3-with-lambda2": ["gr", "Lambda3", "--with", "Lambda2"],
    "radical-pseudoabelian": ["radical", "pseudoabelian", "--lie-r", "full",
                              "--check-oracle"],
    "hyp-decompose-add3xL1": ["--field", "p=3", "hyp-decompose", "add3xL1",
                              "0,1,0,0,0,0"],
    "axioms-L2": ["axioms", "L2"],
    "axioms-add3": ["axioms", "add3"],
    "coinvariants-L2": ["coinvariants", "L2", "--mode", "regular"],
}


def _cases():
    for name, argv in COMMANDS.items():
        yield name, argv
        # --json is a global option: it goes before the subcommand
        k = 2 if argv[0] == "--field" else 0
        yield name + "-json", argv[:k] + ["--json"] + argv[k:]


CASES = dict(_cases())


def _run(argv, capsys):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(GOLDEN.read_text())[name]
    assert want["argv"] == CASES[name]
    code, out = _run(CASES[name], capsys)
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    golden = {}
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        golden[name] = {"argv": argv, "exit": code, "stdout": buf.getvalue()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
