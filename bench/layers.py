"""Per-layer tracing from outside superkit.

Every binding of each traced function is replaced by a wrapper: the
attribute of the defining module or class, and every other module's
`from .x import f` copy or module-level table entry.  A wrapper counts
calls and adds the time not covered by wrapped children (self time).
Scalar field operations are not wrapped: a wrapper would cost more than
the operation.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter

# module -> functions (Class.method for methods), as named in the README.
LAYERS = {
    "linalg": ["rref"],
    "algebra": ["SuperAlgebra.multiply", "Element.invert", "tensor"],
    "symbolic": ["Reducer.__init__", "Reducer.is_zero", "eval_at"],
    "hcp": ["MatrixGroupModel.membership_over", "HarishChandraPair.rho_over",
            "HarishChandraPair.assembled_lie", "validate_pair"],
    "gamma": ["normalize", "multiply", "inverse", "rmat_mul", "rmat_inverse",
              "oracle_enveloping", "oracle_supermatrix"],
    "liesuper": ["gl_super", "LieSuperAlgebra.check_axioms"],
    "hopf": ["check_hopf_axioms", "Coaction.coinvariants"],
    "filtration": ["check_gr_tensor_iso"],
    "hyp": ["check_gr_hyp_duality", "CanonicalDecomposition.decompose"],
    "fixtures": ["gl11_pair", "gl21_pair"],
}

KEYS = ["%s.%s" % (mod, name) for mod, names in LAYERS.items() for name in names]


class Tracer:
    """Call counts and self times of the traced functions while enabled."""

    def __init__(self):
        self.enabled = False
        self.calls = dict.fromkeys(KEYS, 0)
        self.self_s = dict.fromkeys(KEYS, 0.0)
        self._stack = []

    def install(self):
        import superkit

        modules = [importlib.import_module("superkit." + m.name)
                   for m in pkgutil.iter_modules(superkit.__path__)]
        for mod, names in LAYERS.items():
            owner = importlib.import_module("superkit." + mod)
            for name in names:
                key = "%s.%s" % (mod, name)
                cls_name, _, meth = name.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(key, cls.__dict__[meth]))
                    continue
                orig = getattr(owner, name)
                wrapper = self._wrap(key, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    value[k] = wrapper

    def _wrap(self, key, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def metrics(self):
        out = {}
        for key in KEYS:
            out[key + ".calls"] = {"value": self.calls[key], "unit": "count"}
            out[key + ".self_ms"] = {"value": self.self_s[key] * 1e3, "unit": "ms"}
        return out


def import_times(stderr_text):
    """(superkit ms, sympy ms) from the output of `python -X importtime`.

    superkit ms sums the cumulative times of the top-level imports of
    superkit modules (lazy imports inside commands are top level too);
    sympy ms is the cumulative time of the sympy package, 0 if unused."""
    superkit_us = sympy_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name_field = parts[2]
        name = name_field.strip()
        top_level = len(name_field) - len(name_field.lstrip()) == 1
        if top_level and (name == "superkit" or name.startswith("superkit.")):
            superkit_us += cumulative
        if name == "sympy" and not sympy_us:
            sympy_us = cumulative
    return superkit_us / 1e3, sympy_us / 1e3
