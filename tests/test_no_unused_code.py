"""Every function, class and method of the package is used by the package.

A function only tests or demos call is a second code path to keep
correct; the closed forms the tests check against live in
`tests/oracles.py` instead.  This walks the syntax tree of each module
in `src/sselab` and asks that every module-level function and class,
and every method other than a dunder, be named somewhere in the package
outside its own definition.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sselab"

EXEMPT = {
    # the white-noise constructor, paired with ou_noise, which approx calls
    "noise.white_noise",
    # returns 1; the benchmark harness reads it for its worker count
    "sde._resolve_workers",
}


def definitions(module, tree):
    """(qualified name, bare name, node) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def references(tree):
    """(name, line) of every Name and Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_named_outside_itself():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    defined, unused = set(), []
    for module, tree in trees.items():
        for qualified, name, node in definitions(module, tree):
            defined.add(qualified)
            if qualified in EXEMPT:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != module or line not in inside)
                       for other, found in refs.items() for ref, line in found):
                unused.append(qualified)
    assert defined >= EXEMPT, f"stale exemptions {sorted(EXEMPT - defined)}"
    assert not unused, f"named nowhere else in the package: {unused}"
