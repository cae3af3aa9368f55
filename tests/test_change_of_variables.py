"""Every change of variables outside ``polyring`` goes through its constructors.

A monomial map is built by ``VariableContext.monomial_map``, which fills in
the namesake images, and a renaming by ``convert_context``.  Outside
``polyring`` only the maps whose images are not monomials, or extend a map
that the caller passes in, call ``SubstitutionMap`` directly; a new
hand-built map of namesake images fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``module.function`` -> why it builds its map by hand.
HAND_BUILT = {
    "degenerations._embedding_map": "its images are the quadrics of the embedding",
    "degenerations.verify_equivariance": "it extends whatever gluing its family carries by xi",
}


def _callers(node: ast.AST, module: str, function: str = "<module>"):
    """``module.function`` for each ``SubstitutionMap(...)`` call under node,
    named after the innermost function that makes it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", getattr(func, "attr", None)) == "SubstitutionMap":
                yield f"{module}.{function}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _callers(child, module, child.name)
        else:
            yield from _callers(child, module, function)


def test_only_polyring_builds_substitution_maps():
    sites = sorted(
        site
        for path in (ROOT / "src" / "qhv").glob("*.py")
        if path.stem != "polyring"
        for site in _callers(ast.parse(path.read_text()), path.stem)
    )
    assert sites == sorted(HAND_BUILT), f"SubstitutionMap built outside polyring in {sites}"
