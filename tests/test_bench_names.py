"""The benchmark harness looks up superkit names by string; every one of
them must still resolve, the way bench/layers.py and bench/workloads.py
use them.  The bench modules are loaded from their files, not modified."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from superkit.fields import PrimeField, Rationals

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load("layers").LAYERS


@pytest.mark.parametrize(
    "mod,name", [(mod, name) for mod, names in sorted(LAYERS.items()) for name in names]
)
def test_traced_name_resolves(mod, name):
    owner = importlib.import_module("superkit." + mod)
    cls_name, _, meth = name.rpartition(".")
    if cls_name:
        # Tracer.install wraps the method defined on the class itself
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, name))


def test_workload_scalar_reads_field_elements():
    scalar = _load("workloads")._scalar
    Q, F5 = Rationals(), PrimeField(5)
    assert scalar(Q, Q.parse("3/4")) == Fraction(3, 4)
    assert scalar(F5, F5.from_int(-2)) == 3
