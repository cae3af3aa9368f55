"""Every function, method and class of the package has a use.

A definition in ``src/qhv`` counts as used when its name occurs as a name or
an attribute in the package's code outside the definition itself (docstrings
and comments do not count), anywhere in the text of ``perfbench/*.py``, or as
the console-script entry point in ``pyproject.toml``.  Dunder names are
called by the interpreter and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Counter:
    """How often each identifier occurs as a name or an attribute under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _entry_points() -> set[str]:
    """The function names the ``[project.scripts]`` table points at."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r':(\w+)"', section.group(1))) if section else set()


def test_every_definition_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qhv").glob("*.py"))}
    used_in_src = sum((_names(tree) for tree in trees.values()), Counter())
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    entry_points = _entry_points()
    assert entry_points, "pyproject.toml names no console-script entry point"

    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used_in_src[name] > _names(node)[name]:
                continue
            if re.search(rf"\b{re.escape(name)}\b", perfbench) or name in entry_points:
                continue
            unused.append(f"{module}:{node.lineno} {name}")
    assert not unused, f"definitions nothing uses: {unused}"
