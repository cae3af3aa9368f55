"""No true division in the package can make a float.

Coefficients are ``int`` when integral, and ``/`` on two ints gives a float,
which the polynomial constructor refuses.  So a true division in
``src/qhv`` counts as exact only when its left operand is a ``Fraction(...)``
call, whose quotient by any rational is a ``Fraction``, or it joins a
``Path(...)`` to a file name.  Floor division ``//`` is integer arithmetic
and is not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXACT_LEFT = {"Fraction", "Path"}


def _divisions(tree: ast.Module):
    """Every ``a / b`` and ``a /= b`` under tree, with the node's left operand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield node, node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node, node.target


def _exact(left: ast.expr) -> bool:
    return (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
            and left.func.id in EXACT_LEFT)


def test_every_true_division_is_exact():
    inexact = []
    for path in sorted((ROOT / "src" / "qhv").glob("*.py")):
        for node, left in _divisions(ast.parse(path.read_text())):
            if not _exact(left):
                inexact.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not inexact, f"true divisions that may give a float: {inexact}"


def test_the_scan_sees_divisions():
    # the scan itself: it flags a bare quotient and passes the exact forms
    tree = ast.parse("a / b\nFraction(a) / b\nPath(d) / 'f'\nx /= 2\nFraction.from_float(a) / b\n")
    found = sorted((node.lineno, _exact(left)) for node, left in _divisions(tree))
    assert found == [(1, False), (2, True), (3, True), (4, False), (5, False)]
