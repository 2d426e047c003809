"""The package imports only the standard library and numpy, its one declared dependency.

scipy in particular is a test-only dependency.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "algwatchdog"


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_never_imports_scipy():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    offenders = {
        f"{path.name}: {mod}" for path in files for mod in imported_modules(path) if mod.split(".")[0] == "scipy"
    }
    assert not offenders


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one entry of pyproject.toml's `dependencies`
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    offenders = {
        f"{path.name}: {mod}" for path in sorted(SRC.glob("*.py")) for mod in imported_modules(path)
        if mod.split(".")[0] not in allowed
    }
    assert not offenders
