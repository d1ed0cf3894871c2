"""Architecture guard: only ``spaces.py`` may branch on catalog classes.

Per-space behaviour lives in methods of the spaces themselves, so no other
module of the package passes a catalog class to ``isinstance``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metricprod"
CATALOG = {"RealLine", "HalfLine", "LpSpace", "DiscreteSpace", "FiniteMetricSpace"}


def catalog_isinstance_calls(path: Path) -> list[int]:
    """Line numbers of ``isinstance`` calls in ``path`` that name a catalog class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            name = cls.id if isinstance(cls, ast.Name) else getattr(cls, "attr", None)
            if name in CATALOG:
                lines.append(node.lineno)
                break
    return lines


def test_no_catalog_isinstance_outside_spaces():
    hits = [f"{path.name}:{line}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "spaces.py"
            for line in catalog_isinstance_calls(path)]
    assert hits == []


def pnorm_root_functions(path: Path) -> list[str]:
    """Functions in ``path`` that take a p-norm root, ``... ** (1.0 / p)``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
                and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1):
            found.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_pnorm_kernel():
    """The weighted p-norm is written once and shared by gluings and lp spaces."""
    owners = {owner for path in sorted(PACKAGE.glob("*.py"))
              for owner in pnorm_root_functions(path)}
    assert owners == {"gluing.py:weighted_pnorm"}
