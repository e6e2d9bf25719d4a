"""Print the lines of src/superkit that a pytest run never executes.

Usage, from the root of the repository:

    python tools/reach.py [pytest arguments]

The default arguments are `-q -p no:cacheprovider`, which run all of
tests/.  A sys.settrace line hook, limited to code under src/superkit, is
installed before superkit is first imported, so module and class bodies
count as well as functions.  Code run in a child process (the CLI tests
that start `python -m superkit.cli`) is not traced.

The executable lines are those the compiled code objects of each module
map to bytecode.  A comprehension, generator expression or lambda counts
towards the function that defines it.  The report lists, for each
function with unreached lines, their numbers, and ends with the totals.
Standard library only; a traced run of tests/ takes some minutes.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "superkit") + "/"


def executable_lines(path):
    """{line: owner} for a source file, the owner being the qualified name
    of the function, class or module whose code maps to the line."""
    code = compile(path.read_text(), str(path), "exec")
    owners = {}

    def walk(co, owner):
        if co.co_name.startswith("<") and owner is not None:
            name = owner  # a comprehension, genexpr or lambda
        else:
            name = getattr(co, "co_qualname", co.co_name)
        for _, _, line in co.co_lines():
            # line 0 and None mark code with no source line
            if line:
                owners.setdefault(line, name)
        for const in co.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, name)

    walk(code, None)
    return owners


def trace(args):
    """Run pytest with args under the line hook; (exit status, {file: lines})."""
    reached = {}
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        ours = inside.get(code)
        if ours is None:
            ours = inside[code] = code.co_filename.startswith(PACKAGE)
        if not ours:
            return None
        # the first line counts when the code runs at all
        reached.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def report(reached):
    """The lines of the report: unreached line ranges per function."""
    out, unreached_total, functions, total = [], 0, 0, 0
    for path in sorted((SRC / "superkit").glob("*.py")):
        owners = executable_lines(path)
        total += len(owners)
        hit = reached.get(str(path), set())
        missed = {}
        for line in sorted(owners):
            if line not in hit:
                missed.setdefault(owners[line], []).append(line)
        if not missed:
            continue
        out.append(str(path.relative_to(ROOT)))
        for name, lines in sorted(missed.items(), key=lambda item: item[1][0]):
            out.append("  %s: %s" % (name, ranges(lines)))
            unreached_total += len(lines)
            functions += 1
    out.append("%d of %d executable lines unreached, in %d functions"
               % (unreached_total, total, functions))
    return out


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def main(argv):
    status, reached = trace(argv or ["-q", "-p", "no:cacheprovider"])
    print("\n".join(report(reached)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
