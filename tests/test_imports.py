"""Every name a package module imports is used in that module, and every
private function, class and method is read somewhere in the package.

No linter ships with the package, so this parses each module with `ast`
and reports an imported name that no expression of the module reads, and
a `_`-prefixed definition that no name or attribute of the package reads.
`__init__.py` is left out of the import check: its imports are the public
re-exports.
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


# -- private code that nothing reads ------------------------------------------


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each `_`-prefixed module-level function or class and
    each `_`-prefixed method; a dunder is not private."""
    nodes = list(tree.body)
    nodes += [n for c in tree.body if isinstance(c, ast.ClassDef)
              for n in c.body]
    return [(n.name, n.lineno) for n in nodes
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and n.name.startswith("_")
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def unread_private_code(sources: dict) -> list[tuple[str, str, int]]:
    """(module, name, line) for each private definition that no name or
    attribute in any of the modules reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [(module, name, line) for module, tree in trees.items()
            for name, line in private_definitions(tree) if name not in read]


def test_no_unread_private_code():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unread = unread_private_code(sources)
    assert not unread, "; ".join(f"{module}:{line} defines {name}, never read"
                                 for module, name, line in unread)


def test_the_guard_sees_unread_private_code():
    sources = {
        "a.py": ("def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\n"
                 "class _Dead:\n    pass\n\n\n"
                 "class Box:\n    def _kept(self):\n        pass\n\n"
                 "    def _idle(self):\n        pass\n\n"
                 "    def __eq__(self, other):\n        return True\n"),
        "b.py": "from a import _used, Box\n_used()\nBox()._kept()\n",
    }
    assert unread_private_code(sources) == [
        ("a.py", "_dead", 5), ("a.py", "_Dead", 9), ("a.py", "_idle", 17)]
