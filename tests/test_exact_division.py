"""Scalars are exact rationals: an int when integral, a Fraction otherwise.
Two ints divided with ``/`` give a float, which no check could tell from
the rational it approximates.  So every true division in the package has
an operand written as ``Q(...)`` or ``Fraction(...)``, which makes the
quotient a Fraction whatever the other operand is; an inverse is written
``Q(1, p)``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootgraded"
EXACT = {"Q", "Fraction"}


def _is_exact(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in EXACT
    )


def inexact_divisions(source: str, name: str = "<source>") -> list[str]:
    """file:line of every ``/`` or ``/=`` with no Q(...)/Fraction(...) operand."""
    out = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.value,)
        else:
            continue
        if not any(map(_is_exact, operands)):
            out.append(node.lineno)
    return [f"{name}:{line}" for line in sorted(out)]


def test_every_true_division_has_an_exact_operand():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += inexact_divisions(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_the_lint_sees_an_int_division():
    src = "def f(cur, p, v):\n    inv = 1 / cur[p]\n    v /= 2\n    return Q(1, p) * v / Q(3)\n"
    assert inexact_divisions(src) == ["<source>:2", "<source>:3"]
