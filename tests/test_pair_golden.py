"""The structure tables of every built-in pair, pinned byte for byte.

For each pair in `fixtures.BUILTIN_PAIRS` over Q, F3 and F5 the case
compares three renderings with `tests/golden/pairs.json`: `pair_to_json`,
the field matrices of `conftest.linear_action` and the sparse bracket table of
`assembled_lie()`.  `fixtures/osp12.pair.json` has the same three
renderings in `tests/golden/osp12.json`.

A change that means to alter these tables rewrites both files with

    PYTHONPATH=src python tests/test_pair_golden.py
"""

import json
from pathlib import Path

import pytest

from conftest import linear_action, osp12_pair
from superkit.fields import PrimeField, Rationals
from superkit.fixtures import BUILTIN_PAIRS, pair_to_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "pairs.json"
OSP12 = GOLDEN.with_name("osp12.json")
FIELDS = {"Q": Rationals(), "F3": PrimeField(3), "F5": PrimeField(5)}


def _matrix(field, M):
    return [[field.render(x) for x in row] for row in M]


def tables(pair):
    field = pair.field
    rho_one, rho_x = linear_action(pair)
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
    assert json.loads(json.dumps(tables(BUILTIN_PAIRS[name](FIELDS[field_name])))) == want


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_osp12_golden(field_name):
    want = json.loads(OSP12.read_text())[field_name]
    assert json.loads(json.dumps(tables(osp12_pair(FIELDS[field_name])))) == want


if __name__ == "__main__":
    golden = {}
    for case in CASES:
        name, field_name = case.rsplit("-", 1)
        golden[case] = tables(BUILTIN_PAIRS[name](FIELDS[field_name]))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    osp12 = {name: tables(osp12_pair(field)) for name, field in FIELDS.items()}
    OSP12.write_text(json.dumps(osp12, indent=2, sort_keys=True) + "\n")
