"""Let the subprocesses some tests start (the CLI in criterion 8) import the
package from a checkout, as pytest's own `pythonpath` setting does in-process;
record the harness's draw-step calls (`draw_calls`); and the tests' shared
builders: one `Scenario` (`make_scenario`), one watcher's `Observation`
(`make_obs`), the stacked arrays of a batch of scenarios (`batch_arrays`), a
watcher's views as a kernel row (`view_row`), and a report's JSON without its
timing (`tally_json`)."""

import os
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from algwatchdog.channel import BinarySymmetricChannel
from algwatchdog.gf2n import FieldElement, canonical_spec
from algwatchdog.harness import SimReport, report_json
from algwatchdog.hashing import evaluate, sample
from algwatchdog.protocol import Scenario
from algwatchdog.watchdog import Observation

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def make_scenario(
    spec=canonical_spec(4), x1=0b0101, x2=0b0111, a1=1, a2=1, p=0.0, hf=None, h=2, seed=0, epsilon=0.01
) -> Scenario:
    """A `Scenario` with these words, whose links all have crossover probability p, or, for a 4-tuple p, p12, p21,
    p31 and p32.  Its hash function is hf, or else a degree-3, h-bit one sampled from `random.Random(seed)`."""
    if hf is None:
        hf = sample(random.Random(seed), 3, spec, h)
    probs = p if isinstance(p, tuple) else (p,) * 4
    chans = {f"chan_{link}": BinarySymmetricChannel(q) for link, q in zip(("12", "21", "31", "32"), probs)}
    words = {name: FieldElement(v, spec) for name, v in (("x1", x1), ("x2", x2), ("a1", a1), ("a2", a2))}
    return Scenario(spec=spec, hf=hf, epsilon=epsilon, **words, **chans)


def make_obs(spec, hf, x_own, a_own, a_peer, peer_true, relay_sent, noisy_peer=None, noisy_relay=None, p=0.0, epsilon=0.01):
    """One watcher's `Observation`, its hashes `evaluate` reads of the true words, noise-free unless the noisy words are
    given.  Both links have crossover probability p, or, for a pair p, its (peer link, relay link) have."""
    peer_chan, relay_chan = (BinarySymmetricChannel(q) for q in (p if isinstance(p, tuple) else (p, p)))
    return Observation(
        own_value=FieldElement(x_own, spec),
        own_coeff=FieldElement(a_own, spec),
        peer_coeff=FieldElement(a_peer, spec),
        peer_hash=evaluate(hf, FieldElement(peer_true, spec)),
        relay_hash=evaluate(hf, FieldElement(relay_sent, spec)),
        noisy_peer=peer_true if noisy_peer is None else noisy_peer,
        noisy_relay=relay_sent if noisy_relay is None else noisy_relay,
        peer_channel=peer_chan,
        relay_channel=relay_chan,
        epsilon=epsilon,
        hf=hf,
    )


def batch_arrays(scenarios):
    """The stacked tables, sources and coefficients of scenarios, as the harness's draw step holds them."""
    tables = np.stack([scn.hf.table for scn in scenarios])
    sources = [[scn.x1.value, scn.x2.value] for scn in scenarios]
    coeffs = [[scn.a1.value, scn.a2.value] for scn in scenarios]
    return tables, sources, coeffs


def view_row(*views) -> list[int]:
    """One watcher's `Observation`s of the relay arms, which share the peer side, as a row of words in `view_rows` order."""
    obs = views[0]
    peer_side = [obs.own_value.value, obs.own_coeff.value, obs.peer_coeff.value, obs.peer_hash, obs.noisy_peer]
    return peer_side + [v for o in views for v in (o.relay_hash, o.noisy_relay)]


def tally_json(rep: SimReport | list[SimReport]) -> str:
    """`report_json` of a report or a list of reports with `wall_time_s` zeroed: what every run of a config repeats."""
    if isinstance(rep, SimReport):
        return report_json(replace(rep, wall_time_s=0.0))
    return report_json([replace(r, wall_time_s=0.0) for r in rep])


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
