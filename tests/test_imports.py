"""The package imports only the standard library and its declared
dependency, numpy: scipy and other installed packages stay out."""

import ast
import sys
from pathlib import Path

#: ``dependencies`` in pyproject.toml.
DECLARED = {"numpy"}

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toruspos"


def _absolute_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | DECLARED
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    undeclared = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in allowed
    ]
    assert undeclared == []


def test_undeclared_imports_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport numpy.linalg\nfrom . import lattice\n"
        "def f():\n    from scipy import linalg\n"
    )
    names = [name for _, name in _absolute_imports(module)]
    assert names == ["os", "numpy.linalg", "scipy"]
