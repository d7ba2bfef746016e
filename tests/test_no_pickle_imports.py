"""No ``repro`` module imports a serialiser that can run code on load.

An AST scan of ``src/repro/**/*.py``: ``pickle``, ``shelve`` and
``marshal`` (and their submodules) are imported nowhere, so nothing a
saved index directory holds is ever unpickled.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SOURCE.rglob("*.py"))
FORBIDDEN = {"pickle", "shelve", "marshal"}


def _imported_modules(tree: ast.Module):
    """``(line, module)`` of every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def test_no_module_imports_pickle_shelve_or_marshal():
    assert len(MODULES) > 50  # the scan sees the package
    found = [
        f"{path.relative_to(SOURCE)}:{line}: {module}"
        for path in MODULES
        for line, module in _imported_modules(
            ast.parse(path.read_text(), filename=str(path))
        )
        if module.split(".")[0] in FORBIDDEN
    ]
    assert found == []
