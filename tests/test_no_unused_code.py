"""Every function, class and method of the package is used by the package.

A function only tests or demos call is a second code path to keep
correct; the closed forms the tests check against live in
`tests/oracles.py` instead.  This walks the syntax tree of each module
in `src/sselab` and asks that every module-level function and class,
and every method other than a dunder, be named somewhere in the package
outside its own definition.  An exemption is stale, and fails the test,
once the package names it there too, or no longer defines it.

A dataclass field with a default is an option in the same way: one that
no package code sets is a branch only tests take.  Each such field must
be set somewhere in the package, as a keyword of a call (`replace`
included) or by an attribute assignment.
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


def package_trees():
    """The syntax tree of each module, by module name."""
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


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


def defaulted_fields(module, tree):
    """(qualified name, field name) of each dataclass field with a default."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is not None:
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id


def assigned_names(tree):
    """Every name the tree sets: call keywords and assigned attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def test_every_defaulted_dataclass_field_is_set():
    trees = package_trees()
    fields = [f for module, tree in trees.items() for f in defaulted_fields(module, tree)]
    assert fields
    set_names = {name for tree in trees.values() for name in assigned_names(tree)}
    unset = [qualified for qualified, name in fields if name not in set_names]
    assert not unset, f"defaulted dataclass fields the package never sets: {unset}"


def test_every_definition_is_named_outside_itself():
    trees = package_trees()
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    defined, unused, stale = set(), [], []
    for module, tree in trees.items():
        for qualified, name, node in definitions(module, tree):
            defined.add(qualified)
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(ref == name and (other != module or line not in inside)
                       for other, found in refs.items() for ref, line in found)
            if qualified in EXEMPT and used:
                stale.append(qualified)
            elif qualified not in EXEMPT and not used:
                unused.append(qualified)
    assert defined >= EXEMPT, f"stale exemptions {sorted(EXEMPT - defined)}"
    assert not stale, f"stale exemptions, now named elsewhere in the package: {stale}"
    assert not unused, f"named nowhere else in the package: {unused}"
