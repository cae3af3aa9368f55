"""The oracles use only the package's public names.

An oracle that borrows a private helper of the code it checks shares that
helper's arithmetic, so a fault in the helper would pass both sides.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("oracle", ["oracles.py", "linalg_oracle.py"])
def test_oracle_imports_no_private_name_from_qhv(oracle):
    tree = ast.parse((TESTS / oracle).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qhv"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{oracle} imports private names {private}"
