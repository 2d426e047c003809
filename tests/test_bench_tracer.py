"""Every attribute the benchmark's tracer wraps still exists in the package.

`bench/tracer.py` replaces each (owner, attribute) in its `TRACE_POINTS` with
a wrapper when it is installed, so a package change that renames or deletes
one of them breaks `bench/run.py --trace`.  The tracer is only read here.
It is also the one reason a package module may import a name it never
uses.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "algwatchdog"


def test_every_trace_point_resolves():
    points = runpy.run_path(str(TRACER))["TRACE_POINTS"]
    assert points
    missing = [span for owner, attr, span in points if not hasattr(owner, attr)]
    assert not missing, f"traced attributes gone from the package: {missing}"


def imported_but_unused(path: Path) -> set[str]:
    """Names a module's top-level imports bind that no other line of the module reads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - {"annotations"}


def test_unused_imports_are_trace_points():
    # the package keeps a name it does not use only for the tracer to wrap
    # (protocol.transmit and harness.sample_hash); any other unused import
    # is dead
    bound = {(owner.__name__, attr) for owner, attr, _ in runpy.run_path(str(TRACER))["TRACE_POINTS"]}
    unused = {
        (f"algwatchdog.{path.stem}", name)
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in imported_but_unused(path)
    }
    assert unused <= bound, f"imported but never used: {sorted(unused - bound)}"
