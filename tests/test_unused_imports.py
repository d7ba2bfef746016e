"""Every name a ``repro`` module imports is used in that module.

An AST scan of ``src/repro/**/*.py``.  Package ``__init__.py`` files
import names to re-export them and are skipped; elsewhere a name counts
as used when the module reads it, lists it in ``__all__``, or names it
in a string annotation (the ``TYPE_CHECKING`` imports).
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(
    path for path in SOURCE.rglob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import except ``__future__`` ones."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    names[bound] = node.lineno
    return names


def _names_in_strings(node: ast.AST) -> set:
    """Names inside string annotations such as ``"SNTIndex"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {
                name.id for name in ast.walk(parsed)
                if isinstance(name, ast.Name)
            }
    return names


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in_strings(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _names_in_strings(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in_strings(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                element.value for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return used


def test_every_import_is_used():
    assert len(MODULES) > 50  # the scan sees the package
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [
            f"{path.relative_to(SOURCE)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert not unused, f"imported names never used: {unused}"


def test_the_scan_catches_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, List\n"
        "from .x import Kept\n"
        "__all__ = ['Kept']\n"
        "def f(a: 'List[int]') -> None: ...\n"
    )
    used = _used(tree)
    assert [name for name in _imported(tree) if name not in used] == [
        "Optional"
    ]
