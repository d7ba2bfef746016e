"""Every module-level private name in ``repro`` has a reader.

An AST scan of ``src/repro/**/*.py``.  A function, class or constant
bound at module level under a ``_private`` name (not a ``__dunder__``)
must be referenced somewhere in the package outside its own definition:
read as a name, reached as an attribute, or imported by another module.
A helper whose last caller went is deleted with it.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SOURCE.rglob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> list:
    """``(name, node)`` of every private module-level binding."""
    defined = []
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names = [node.target.id]
        else:
            continue
        defined += [(name, node) for name in names if _is_private(name)]
    return defined


def _references(node: ast.AST) -> Counter:
    """Every name ``node`` reads, reaches as an attribute or imports."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _orphans(trees: dict) -> list:
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _references(tree)
    orphans = []
    for where, tree in trees.items():
        for name, node in _defined(tree):
            if everywhere[name] - _references(node)[name] <= 0:
                orphans.append(f"{where}:{node.lineno}: {name}")
    return orphans


def test_every_private_module_name_is_referenced():
    assert len(MODULES) > 50  # the scan sees the package
    trees = {
        str(path.relative_to(SOURCE)): ast.parse(
            path.read_text(), filename=str(path)
        )
        for path in MODULES
    }
    orphans = _orphans(trees)
    assert not orphans, f"private names nothing references: {orphans}"


def test_the_scan_catches_an_orphan():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n"
            "def _kept(): return _LIMIT\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Orphan: ...\n"
            "def __dunder__(): ...\n"
        ),
        "b.py": ast.parse(
            "from .a import _kept\n"
            "def public(): return _kept()\n"
        ),
    }
    assert [line.split(": ")[1] for line in _orphans(trees)] == [
        "_recursive", "_Orphan"
    ]
