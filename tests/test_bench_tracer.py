"""Every attribute the benchmark's tracer wraps still exists in the package, and its set-up probe runs.

`bench/tracer.py` replaces each (owner, attribute) in its `TRACE_POINTS` with
a wrapper when it is installed, so a package change that renames or deletes
one of them breaks `bench/run.py --trace`.  The tracer is only read here.
It is also the one reason a package module may import a name it never
uses.  `bench/probe.py` times the package's set-up in a fresh interpreter
(`setup_s`, `gf2n.setup_s`); it is run here as `bench/run.py` runs it.
"""

import ast
import json
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"
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


@pytest.mark.parametrize("mode", ["setup", "gf2n"])
def test_setup_probe_runs(monkeypatch, mode):
    # the alg8 point at one trial, passed as `bench/run.py`'s `probe` passes it
    monkeypatch.syspath_prepend(str(BENCH))
    cfg = replace(runpy.run_path(str(BENCH / "run.py"))["WORKLOADS"]["alg8"].cfg, trials=1)
    cmd = [sys.executable, str(BENCH / "probe.py"), mode, str(ROOT / "src"), json.dumps(cfg.to_dict())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[0]
    if mode == "setup":
        assert line == "ok"
    else:
        assert float(line) >= 0.0
