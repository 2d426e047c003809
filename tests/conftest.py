"""Let the subprocesses some tests start (the CLI in criterion 8) import the
package from a checkout, as pytest's own `pythonpath` setting does in-process;
and record the trials the harness draws (`drawn_trials`)."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def drawn_trials(monkeypatch):
    """The trial indices the harness's draw step draws in this process, in order.

    The draw step still runs, so a valid config runs to its report; a test
    that expects no trial before validation checks this list stays empty.
    """
    from algwatchdog import harness

    drawn = []
    draw = harness._draw_batch

    def recorded(cfg, trials, *args):
        drawn.extend(trials)
        return draw(cfg, trials, *args)

    monkeypatch.setattr(harness, "_draw_batch", recorded)
    return drawn
