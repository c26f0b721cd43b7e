"""Every public name of the package is reached by the program, a criterion or
the benchmark, or is a reference definition listed below.

Public: a name in a module's ``__all__``, and each method without a leading
underscore of a class there. Reached: imported, called or read as an
attribute (a method: as an attribute) in ``src/uglab`` outside its own
definition, in ``tests/test_acceptance.py`` or in ``perfbench/*.py``, where
the dotted strings the tracer times (``"game.TreeDuplicator.bijection"``)
count too, but not those of ``tracing.SKIP``. Names are matched by spelling,
so a namesake can reach a name.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

REFERENCE_DEFINITIONS = {
    "game.LiftedStructure.allowed_diffs": "the lifted bundle by its definition, pair by pair; tests "
    "hold the referee's partial-isomorphism check and the materialized label lift to it",
}


def _assigned(tree: ast.Module, name: str):
    assigns = (node for node in tree.body if isinstance(node, ast.Assign))
    return next((node for node in assigns if any(getattr(t, "id", None) == name for t in node.targets)), None)


def _uses(tree: ast.AST, skip: ast.AST = None):
    """Counts of the names read or imported in tree, an attribute also as
    '.name', and its string constants, outside the node skip."""
    names, strings, stack = Counter(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names.update((node.attr, "." + node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, strings


def _public(tree: ast.Module):
    """(qualified name, the key it is reached by, its definition or None)."""
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in (elt.value for elt in _assigned(tree, "__all__").value.elts):
        node = defs.get(name)
        yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{name}.{item.name}", "." + item.name, item


def unreached():
    program = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src/uglab").glob("*.py")}
    reached, traced = sum((_uses(tree)[0] for tree in program.values()), Counter()), set()
    for path in [ROOT / "tests/test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, strings = _uses(tree, _assigned(tree, "SKIP") if path.name == "tracing.py" else None)
        reached += names
        if path.parent.name == "perfbench":
            traced |= strings
    return sorted(
        f"{module}.{qualname}"
        for module, tree in program.items() if _assigned(tree, "__all__")
        for qualname, key, node in _public(tree)
        # a use inside the name's own definition does not reach it
        if f"{module}.{qualname}" not in traced and reached[key] <= (_uses(node)[0][key] if node else 0)
    )


def test_every_public_name_is_reached_or_a_reference_definition():
    assert unreached() == sorted(REFERENCE_DEFINITIONS)
