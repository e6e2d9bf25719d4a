"""The mutation catalogue stays runnable: tools/mutate.py's load() finds
each snippet exactly once in its file, so a refactor that moves or
duplicates a mutated line fails here rather than in the next mutation run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalogue_loads():
    mutate = _mutate()
    entries = mutate.load(mutate.CATALOGUE)
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert entry["tests"] and all((ROOT / test).is_file() for test in entry["tests"])
