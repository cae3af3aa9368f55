"""Every function, method, class and import of the package has a use.

A definition in ``src/qhv`` counts as used when its name occurs as a name or
an attribute in the package's code outside the definition itself (docstrings
and comments do not count), anywhere in the text of ``perfbench/*.py``, or as
the console-script entry point in ``pyproject.toml``.  Dunder names are
called by the interpreter and are exempt.  A module-level import counts as
used when the name it binds occurs as a name in its module, or its binding
site ``qhv.<module>.<name>`` appears in ``perfbench/*.py``; ``from
__future__`` imports are exempt.  An import inside a function counts as used
when that function reads the name it binds.  A name in a literal
``__slots__`` counts as used when the package reads an attribute of that
name; a slot that is only ever assigned is state nothing reads.  The same holds for stored names: a
module-level assignment counts as used when the package reads it as a name
or its name occurs in the text of ``perfbench/*.py`` (dunder names are
exempt), a record field when the package reads an attribute of that name,
and a key of the run configuration ``cli._CONFIG_KEYS`` when a suite
(``cli.suite_*``) reads it as ``cfg["<key>"]``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qhv").glob("*.py"))}


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
    trees = _trees()
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


def test_every_import_is_used():
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path in sorted((ROOT / "src" / "qhv").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound in names or f"qhv.{path.stem}.{bound}" in perfbench:
                    continue
                unused.append(f"{path.name}:{node.lineno} {bound}")
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(func)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for node in ast.walk(func):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, f"imports nothing uses: {unused}"


def _loaded(trees, kind: type) -> set[str]:
    """The names the package reads as ``ast.Name`` or as ``ast.Attribute``."""
    return {
        n.id if kind is ast.Name else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, kind) and isinstance(n.ctx, ast.Load)
    }


def test_every_slot_is_used():
    trees = _trees()
    read = _loaded(trees, ast.Attribute)
    slots = [
        elt.value
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
        for elt in node.value.elts
    ]
    assert slots, "no literal __slots__ in src/qhv"
    unread = [name for name in slots if name not in read]
    assert not unread, f"slots nothing reads: {unread}"


def test_every_module_level_name_is_read():
    trees = _trees()
    read = _loaded(trees, ast.Name)
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    stored = [
        (f"{module}:{node.lineno} {target.id}", target.id)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and not (target.id.startswith("__") and target.id.endswith("__"))
    ]
    assert stored, "no module-level assignment in src/qhv"
    unread = [
        where for where, name in stored
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", perfbench)
    ]
    assert not unread, f"module-level names nothing reads: {unread}"


#: NamedTuples the package reads whole, by iteration or unpacking, never by
#: field name: ``check_ideal_invariance`` runs ``for D in T``.
ITERATED_RECORDS = {"Sl2Triple"}


def _record_fields(node: ast.ClassDef) -> list[tuple[int, str]]:
    """The fields of a record class, with their line numbers.

    A ``NamedTuple`` declares its fields as annotations; a ``tuple`` subclass
    exposes its items as ``name = property(itemgetter(i))``; a slotted class
    stores them in its literal ``__slots__``.
    """
    bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
    if "NamedTuple" in bases:
        if node.name in ITERATED_RECORDS:
            return []
        return [
            (stmt.lineno, stmt.target.id)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__slots__":
                fields += [(stmt.lineno, elt.value) for elt in stmt.value.elts]
            elif (
                "tuple" in bases
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "property"
            ):
                fields.append((stmt.lineno, target.id))
    return fields


def test_every_dataclass_field_is_read():
    # No dataclass: records are NamedTuples and tuple subclasses.  The slots of
    # Polynomial, Ideal and _Packing, which are not records, count too.
    trees = _trees()
    read = _loaded(trees, ast.Attribute)
    fields = [
        (f"{module}:{lineno} {node.name}.{name}", name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for lineno, name in _record_fields(node)
    ]
    assert fields, "no record field in src/qhv"
    unread = [where for where, name in fields if name not in read]
    assert not unread, f"record fields nothing reads: {unread}"


def test_every_config_key_is_read_by_a_suite():
    tree = _trees()["cli.py"]
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_CONFIG_KEYS" for t in node.targets)
    ]
    keys = [key.value for key in table.keys]
    read = {
        n.slice.value
        for func in tree.body
        if isinstance(func, ast.FunctionDef) and func.name.startswith("suite_")
        for n in ast.walk(func)
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name) and n.value.id == "cfg"
        and isinstance(n.slice, ast.Constant)
    }
    assert keys, "no config key in cli._CONFIG_KEYS"
    unread = [key for key in keys if key not in read]
    assert not unread, f"config keys no suite reads: {unread}"
