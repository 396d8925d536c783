"""The demos run outside the test suite; check that what they use exists.

Running all seven would add seconds to every test run, so this walks
each script's syntax tree instead: every `sselab` module it imports and
every attribute it reads from one must exist.
"""

import ast
import importlib
import pathlib
import types

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def sselab_references(tree):
    """(module, attribute) pairs the script reads from sselab modules."""
    modules = {}  # local name -> sselab module it is bound to
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sselab":
            for alias in node.names:
                refs.append((node.module, alias.name))
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sselab":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return refs


def test_demos_found():
    assert DEMOS, "no demos found: the checks below would pass vacuously"


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_references_exist(path):
    refs = sselab_references(ast.parse(path.read_text(), filename=str(path)))
    assert refs, f"{path.name} uses nothing from sselab"
    missing = [f"{mod}.{attr}" for mod, attr in refs
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"{path.name} references missing {missing}"
