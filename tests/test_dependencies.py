"""The package imports nothing from scipy: it is a test-only dependency."""

import ast
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
