"""Tests of the benchmark itself: run with `python3 -m pytest bench`."""

from dataclasses import replace

import pytest

import run
from tracer import TRACE_POINTS, Tracer

SMALL = {
    "algebraic": run.Workload(run._alg(8, 3, 6)),
    "trellis": run.Workload(replace(run._alg(8, 3, 6), engine="trellis")),
    "sweep": run.Workload(run._alg(6, 2, 4), sweep_h=(1, 2)),
}


def traced_call(w):
    tracer = Tracer()
    tracer.install()
    try:
        wall, got = run.timed_call(w, replace(w.cfg, seed=3), 1)
    finally:
        tracer.uninstall()
    return tracer, wall, got


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_wrappers_leave_tallies_unchanged(kind):
    w = SMALL[kind]
    _, untraced = run.timed_call(w, replace(w.cfg, seed=3), 1)
    tracer, _, traced = traced_call(w)
    assert untraced is not None and traced == untraced
    assert tracer.names, "no span recorded"


def test_uninstall_restores_every_attribute():
    before = [getattr(owner, attr) for owner, attr, _ in TRACE_POINTS]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in TRACE_POINTS] == before


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_self_times_non_negative_and_within_wall(kind):
    tracer, wall, _ = traced_call(SMALL[kind])
    own = tracer.self_times()
    assert min(own) >= -1e-12
    assert sum(own) <= wall
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]


def test_layer_metrics_count_trial_work():
    w = SMALL["algebraic"]
    tracer, _, _ = traced_call(w)
    metrics = tracer.layer_metrics(w.trials_per_call)
    # two arms x two watchers x (peer, relay) candidate sets per trial
    assert metrics["channel.radius_for_epsilon.calls_per_trial"] == (8.0, "calls/trial")
    assert metrics["hashing.values_on.calls_per_trial"][0] == 8.0
    trellis = SMALL["trellis"]
    tracer, _, _ = traced_call(trellis)
    metrics = tracer.layer_metrics(trellis.trials_per_call)
    assert metrics["channel.radius_for_epsilon.calls_per_trial"][0] == 0.0
    assert metrics["channel.binomial_cdf_exact.calls_per_trial"][0] == 0.0


def test_forced_tally_mismatch_counts_as_failed():
    w = SMALL["algebraic"]
    loop = run.closed_loop(w, w.cfg, 1, 0.0, expected="0" * 64)
    assert loop.failed == len(loop.times) == run.MIN_CALLS
    honest = run.closed_loop(w, w.cfg, 1, 0.0)
    assert honest.failed == 0


def test_anchor_mismatch_is_reported():
    w = run.WORKLOADS["alg8"]
    assert run.anchor_ok(w)
    assert not run.anchor_ok(replace(w, anchor=((1, 2, 3, 4),)))
