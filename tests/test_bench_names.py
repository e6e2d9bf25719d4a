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


# bench/workloads.py reads Element.coords and Element.support() when it
# relabels words and when it builds the labels behind the input digest


@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)], ids=["Q", "F5"])
def test_element_coords_are_dense_and_support_ascending(field):
    from superkit.algebra import grassmann

    R = grassmann(field, ["a1", "a2", "a3"])
    x = R.element({"a2*a3": 2, "a1": -1, "1": 3})
    assert isinstance(x.coords, tuple) and len(x.coords) == R.dim
    assert [str(c) for c in x.coords] == [str(c) for c in (
        field.from_int(n) for n in (3, -1, 0, 0, 0, 0, 2, 0))]
    assert x.support() == [0, 1, 6]
    assert R.zero().coords == (field.zero,) * R.dim and R.zero().support() == []


@pytest.mark.parametrize("field,want", [
    (Rationals(), [3, 0, 1, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, -1, -4]),
    (PrimeField(5), [3, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 1]),
], ids=["Q", "F5"])
def test_workload_relabelling_keeps_its_coordinates(field, want):
    import random

    workloads = _load("workloads")
    R = workloads._lambda(field, 4)
    apply = workloads._automorphism(R, random.Random(1))
    x = R.element({"1": 3, "a1": 1, "a2*a3": 2, "a1*a2*a4": -1, "a1*a2*a3*a4": 4})
    assert [workloads._scalar(field, c) for c in apply(x).coords] == want


# bench/workloads.py reads Coaction.tau as {(i, j): c} tables per basis
# vector when it checks the coinvariants of the axiom-sweep workload


@pytest.mark.parametrize("mode", ["regular", "trivial"])
@pytest.mark.parametrize("field", [Rationals(), PrimeField(5)], ids=["Q", "F5"])
def test_workload_coinvariant_check_reads_the_coaction_table(field, mode):
    from superkit.hopf import grassmann_hopf, regular_coaction, trivial_coaction

    workloads = _load("workloads")
    H = grassmann_hopf(field, ["t1", "t2"])
    co = regular_coaction(H) if mode == "regular" else trivial_coaction(H.algebra, H)
    want = 1 if mode == "regular" else H.algebra.dim
    sub = co.coinvariants()
    workloads._check_coinvariants(co, sub, want)
    with pytest.raises(workloads.Wrong):
        workloads._check_coinvariants(co, sub, want - 1)
