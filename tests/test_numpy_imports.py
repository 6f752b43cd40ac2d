"""No module of ``crtnd`` reaches into a private numpy module: such a
module (``numpy.linalg._umath_linalg``, say) can change or vanish in any
numpy release."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crtnd"


def private_numpy_uses(tree: ast.AST) -> list[str]:
    """The private numpy modules or names that ``tree`` imports or reads
    as ``numpy.<...>._<name>`` / ``np.<...>._<name>``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if not isinstance(base, ast.Name):
                continue
            dotted = [".".join([base.id, *reversed(parts)])]
        else:
            continue
        for name in dotted:
            root, *rest = name.split(".")
            if root in ("numpy", "np") and any(
                part.startswith("_") and not part.endswith("__") for part in rest
            ):
                found.append(name)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_numpy_module(path):
    assert private_numpy_uses(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("source", [
    "from numpy.linalg import _umath_linalg",
    "import numpy.core._multiarray_umath",
    "from numpy._core import multiarray",
    "np.linalg._umath_linalg.solve(a, b)",
])
def test_private_uses_are_found(source):
    assert private_numpy_uses(ast.parse(source))
