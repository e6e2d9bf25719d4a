"""The structure tables of every built-in pair, pinned byte for byte.

For each pair in `fixtures.BUILTIN_PAIRS` over Q, F3 and F5 the case
compares three renderings with `tests/golden/pairs.json`: `pair_to_json`,
the field matrices of `linear_action()` and the sparse bracket table of
`assembled_lie()`.

A change that means to alter these tables rewrites the file with

    PYTHONPATH=src python tests/test_pair_golden.py
"""

import json
from pathlib import Path

import pytest

from superkit.fields import PrimeField, Rationals
from superkit.fixtures import BUILTIN_PAIRS, pair_to_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairs.json"
FIELDS = {"Q": Rationals(), "F3": PrimeField(3), "F5": PrimeField(5)}


def _matrix(field, M):
    return [[field.render(x) for x in row] for row in M]


def tables(name, field_name):
    field = FIELDS[field_name]
    pair = BUILTIN_PAIRS[name](field)
    rho_one, rho_x = pair.linear_action()
    return {
        "pair": pair_to_json(pair),
        "linear_action": {
            "rho_one": _matrix(field, rho_one),
            "rho_x": [_matrix(field, M) for M in rho_x],
        },
        "assembled_lie": {
            "%d,%d" % key: {str(k): field.render(c) for k, c in sorted(terms.items())}
            for key, terms in sorted(pair.assembled_lie().table.items())
        },
    }


CASES = ["%s-%s" % (name, f) for name in sorted(BUILTIN_PAIRS) for f in FIELDS]


@pytest.mark.parametrize("case", CASES)
def test_golden(case):
    name, field_name = case.rsplit("-", 1)
    want = json.loads(GOLDEN.read_text())[case]
    assert json.loads(json.dumps(tables(name, field_name))) == want


if __name__ == "__main__":
    golden = {}
    for case in CASES:
        name, field_name = case.rsplit("-", 1)
        golden[case] = tables(name, field_name)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
