"""Every function, class and method of superkit and its benchmark has a user
outside its own definition, in `src/superkit/` or `bench/`; tests do not
count.  A few paper-facing names are reached only by tests, on purpose."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "superkit").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    "tangent_bracket": "acceptance test 04 sweeps it against the assembled Lie bracket",
    "LieSuperAlgebra.bracket": "the assembled Lie bracket that acceptance test 04 compares with",
    "TruncatedLocal.convolve": "acceptance test 07 multiplies distributions with it",
    "check_hyp_filtration": "acceptance test 07 checks the filtration of hyp(H) with it",
    "check_exact_sequence": "the paper's exactness conditions; tests/sympy_reference.py referees it",
    "pair_to_json": "the inverse of pair_from_json and the instrument of the pair golden test",
}

# a string read as names: an identifier or a dotted path ("Class.method"),
# the form bench/layers.py LAYERS uses
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def definitions(tree):
    """(qualified name, node): top-level functions and classes, and the
    methods of top-level classes other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield "%s.%s" % (node.name, item.name), item


def references(tree):
    """(name, line) for every Name, Attribute, import alias and dotted string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.match(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced(sources):
    """The qualified names defined in sources {path: text} that nothing
    outside their own definition refers to."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            refs.setdefault(name, []).append((path, line))
    dead = []
    for path, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rpartition(".")[2]
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in refs.get(name, ())):
                dead.append(qualname)
    return sorted(dead)


def test_every_name_has_a_user_outside_tests():
    sources = {path: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced(sources) == sorted(ALLOWED)


def test_unreferenced_finds_a_name_only_its_own_body_uses():
    sources = {
        "a.py": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n\n\n"
                "class C:\n    def __init__(self):\n        pass\n\n    def m(self):\n        pass\n",
        "b.py": "from a import used\nLAYERS = {'a': ['C.__init__']}\nused()\n",
    }
    # C is named by the dotted string, C.m and recursive only by themselves
    assert unreferenced(sources) == ["C.m", "recursive"]
