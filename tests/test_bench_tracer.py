"""Every attribute the benchmark's tracer wraps still exists in the package.

`bench/tracer.py` replaces each (owner, attribute) in its `TRACE_POINTS` with
a wrapper when it is installed, so a package change that renames or deletes
one of them breaks `bench/run.py --trace`.  The tracer is only read here.
"""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_trace_point_resolves():
    points = runpy.run_path(str(TRACER))["TRACE_POINTS"]
    assert points
    missing = [span for owner, attr, span in points if not hasattr(owner, attr)]
    assert not missing, f"traced attributes gone from the package: {missing}"
