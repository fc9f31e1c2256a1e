"""Every name a package module imports is used in that module.

No linter ships with the package, so this parses each module with `ast`
and reports an imported name that no expression of the module reads.
`__init__.py` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "paleyschemes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [((a.asname or a.name).split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations are strings; their names count as read too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [(name, line) for name, line in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "; ".join(f"{path.name}:{line} imports {name} unused"
                                 for name, line in unused)


def test_the_guard_sees_an_unused_import():
    source = ("import functools\nimport numpy as np\n"
              "from typing import Optional\n"
              "x: 'Optional[int]' = np.zeros(1)\n")
    assert unused_imports(source) == [("functools", 1)]
