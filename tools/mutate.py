"""Run the mutation catalogue against the tests.

Usage, from the root of the repository:

    python tools/mutate.py [name ...]

The catalogue, tools/mutants.json, is a list of mutants.  Each names a
source file, a snippet that occurs in it exactly once, the replacement of
that snippet, the test files to run and what the fault means; a mutant
that cannot change any result the program promises is marked
"equivalent" with the reason.  The script copies the working tree
(without .git and caches) into a fresh temporary directory, runs pytest
once there on the union of the test files to see that they pass
unmutated, and then, for each mutant (all of them, or those named),
writes the replacement, runs pytest once on the mutant's test files and
restores the file.  A mutant is killed when a test fails; the report
gives the failing tests.

Exit status: 0 when every mutant not marked equivalent is killed, 1 when
one survives or a run cannot be read, 2 when the catalogue is malformed,
a snippet does not occur exactly once or the tests fail unmutated.
Standard library only, apart from the pytest that runs the tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
KEYS = {"name", "file", "snippet", "replacement", "tests", "what"}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")


def load(path):
    """The catalogue entries, each checked to have the keys it needs and a
    snippet found exactly once in its file."""
    entries = json.loads(path.read_text())
    for entry in entries:
        missing = KEYS - set(entry)
        if missing:
            raise ValueError("mutant %r lacks %s" % (entry.get("name"), ", ".join(sorted(missing))))
        count = (ROOT / entry["file"]).read_text().count(entry["snippet"])
        if count != 1:
            raise ValueError("mutant %r: the snippet occurs %d times in %s"
                             % (entry["name"], count, entry["file"]))
    return entries


def pytest(copy, tests):
    """(exit status, failing test ids, last line) of one pytest run in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         *tests], cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failing = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failing, lines[-1] if lines else proc.stderr.strip()[-200:]


def main(names):
    try:
        entries = load(CATALOGUE)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    unknown = set(names) - {e["name"] for e in entries}
    if unknown:
        print("error: no mutant named %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    chosen = [e for e in entries if not names or e["name"] in names]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        union = sorted({t for e in chosen for t in e["tests"]})
        status, failing, last = pytest(copy, union)
        print("unmutated: %s" % last)
        if status != 0:
            print("error: the tests fail unmutated: %s" % ", ".join(failing), file=sys.stderr)
            return 2
        killed = survived = unread = 0
        for entry in chosen:
            path = copy / entry["file"]
            source = path.read_text()
            path.write_text(source.replace(entry["snippet"], entry["replacement"]))
            try:
                status, failing, last = pytest(copy, entry["tests"])
            finally:
                path.write_text(source)
            if status == 0:
                verdict = "survived"
            elif failing:
                verdict = "killed by %d" % len(failing)
            else:
                verdict = "unread (%s)" % last
            equivalent = entry.get("equivalent")
            print("%-30s %s" % (entry["name"], "equivalent, " + verdict if equivalent else verdict))
            print("    %s" % entry["what"])
            if equivalent:
                print("    equivalent: %s" % equivalent)
            for test in failing:
                print("    %s" % test)
            if not equivalent:
                killed += verdict.startswith("killed")
                survived += status == 0
                unread += verdict.startswith("unread")
    counted = sum(1 for e in chosen if not e.get("equivalent"))
    print("score: %d of %d killed, %d survived, %d unread; %d marked equivalent"
          % (killed, counted, survived, unread, len(chosen) - counted))
    return 0 if killed == counted else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
