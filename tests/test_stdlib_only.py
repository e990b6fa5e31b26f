"""The package imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tcbounds"


def _imported_roots(tree):
    """(line, top-level module) of every absolute import in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    allowed = set(sys.stdlib_module_names) | {"tcbounds"}
    foreign = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert foreign == []


def test_the_check_sees_a_foreign_import():
    # the package imports some modules inside the one function that needs
    # them, so the check must see an import in a function body as well
    tree = ast.parse(
        "import json\nfrom . import algebra\nimport numpy.linalg\nfrom sympy import Matrix\n"
        "def checksum():\n    import hashlib\n    import xxhash\n"
    )
    roots = [root for _, root in _imported_roots(tree)]
    assert roots == ["json", "numpy", "sympy", "hashlib", "xxhash"]
