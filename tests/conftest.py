"""Let the subprocesses some tests start (the CLI in criterion 8) import the
package from a checkout, as pytest's own `pythonpath` setting does in-process;
and record the harness's draw-step calls (`draw_calls`)."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


class DrawCalls(list):
    """Each `_draw_batch` call's (cfg, trials) segments, one list per call, that is per block."""

    def trials(self) -> list[int]:
        """The trial indices drawn, in order; a block shared by two points gives the first point's, then the second's."""
        return [t for segments in self for _, trials in segments for t in trials]


@pytest.fixture
def draw_calls(monkeypatch):
    """The harness's draw-step calls in this process (`DrawCalls`).

    The draw step still runs, so a valid config runs to its report; a test
    that expects no trial before validation checks this list stays empty.
    """
    from algwatchdog import harness

    calls = DrawCalls()
    draw = harness._draw_batch

    def recorded(segments, *args):
        calls.append(list(segments))
        return draw(segments, *args)

    monkeypatch.setattr(harness, "_draw_batch", recorded)
    return calls
