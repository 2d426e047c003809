"""Monte Carlo runner, sweeps, and report serialization tests."""

import csv
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algwatchdog import hashing, harness, protocol, theory, watchdog
from algwatchdog.channel import BinarySymmetricChannel
from algwatchdog.gf2n import FieldElement, canonical_spec
from algwatchdog.harness import (
    CSV_COLUMNS,
    ConfigError,
    SimConfig,
    report_json,
    run_trials,
    sweep,
    wilson_interval,
    write_report,
)


def small_cfg(**kw):
    defaults = dict(n=8, h=3, d=3, p12=0.1, p21=0.1, p31=0.1, p32=0.1,
                    epsilon=0.01, trials=300, seed=42)
    defaults.update(kw)
    return SimConfig(**defaults)


def strip_wall_time(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("wall_time_s", None)
    return doc


def tally_json(rep) -> str:
    return report_json(replace(rep, wall_time_s=0.0))


@pytest.fixture
def pool_slot(monkeypatch):
    """An empty pool slot for this test, filled by pools that record their sizes.

    Yields (built, shut): the size of each pool at start and at shutdown.  The
    pool the test leaves in the slot is shut down after it.
    """
    built, shut = [], []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            shut.append(self._max_workers)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_pool", None)
    yield built, shut
    harness._drop_pool()


class TestRunTrials:
    def test_noiseless_honest_gamma_exactly_zero(self):
        cfg = small_cfg(p12=0.0, p21=0.0, p31=0.0, p32=0.0, adversary="honest", trials=500)
        rep = run_trials(cfg)
        assert rep.gamma["count"] == 0
        assert rep.beta is None

    def test_noiseless_self_check_names_the_flagged_trial(self, monkeypatch):
        # a kernel that rejects watcher 1's honest view of trial 3 trips the
        # check that noiseless channels never flag an honest relay; in
        # sub-batches of 2 trials, trial 3 is row 1 of the second one
        batch, calls = watchdog.algebraic_batch, []

        def rejecting(*args):
            accepted, surviving = batch(*args)
            calls.append(len(accepted))
            if len(calls) == 2:
                accepted[1, 0, 0] = False
            return accepted, surviving

        monkeypatch.setattr(harness, "_BATCH_TRIALS", 2)
        monkeypatch.setattr(harness.watchdog, "algebraic_batch", rejecting)
        cfg = small_cfg(p12=0.0, p21=0.0, p31=0.0, p32=0.0, trials=5)
        with pytest.raises(AssertionError, match=r"honest relay flagged under noiseless channels \(trial 3\)"):
            run_trials(cfg, workers=1)
        assert calls == [2, 2]

    def test_deterministic_given_seed(self):
        cfg = small_cfg(trials=200)
        a, b = run_trials(cfg), run_trials(cfg)
        assert strip_wall_time(a.to_dict()) == strip_wall_time(b.to_dict())

    def test_single_trial_runs(self):
        rep = run_trials(small_cfg(trials=1))
        assert rep.gamma["trials"] == 1

    def test_worker_count_does_not_change_tallies(self):
        cfg = small_cfg(trials=400)
        serial = run_trials(cfg, workers=1)
        parallel = run_trials(cfg, workers=4)
        assert strip_wall_time(serial.to_dict()) == strip_wall_time(parallel.to_dict())

    def test_tally_conservation(self):
        cfg = small_cfg(trials=250)
        rep = run_trials(cfg)
        assert rep.gamma["count"] + rep.gamma["accepted_count"] == cfg.trials
        assert rep.beta["count"] + rep.beta["flagged_count"] == cfg.trials

    def test_fixed_sources(self):
        cfg = small_cfg(sources={"fixed": [0x12, 0x34]}, trials=50)
        rep = run_trials(cfg)
        assert rep.config["sources"] == {"fixed": [0x12, 0x34]}

    def test_trellis_engine_runs(self):
        cfg = small_cfg(n=6, h=2, engine="trellis", threshold=1e-9, trials=100)
        rep = run_trials(cfg)
        assert 0.0 <= rep.gamma["estimate"] <= 1.0

    def test_radii_and_predictions_reported(self):
        rep = run_trials(small_cfg(trials=10))
        assert rep.radii == {"r12": 3, "r21": 3, "r31": 3, "r32": 3}
        v = sum(comb(8, k) for k in range(4))  # V(8, 3)
        assert v == 93
        want = (v * v + 2**3 * (v + v)) / (2**6 * (2**8 - 1))
        assert want == pytest.approx(3379 / 5440)
        assert rep.predicted["beta"] == pytest.approx(want, rel=1e-12)
        assert rep.predicted["gamma_bound"] == pytest.approx(0.01)

    def test_validation_lists_offending_fields(self):
        cfg = SimConfig(n=40, h=3, p12=0.9, epsilon=2.0, trials=0)
        with pytest.raises(ConfigError) as exc:
            run_trials(cfg)
        msg = str(exc.value)
        for frag in ("n=40", "p12=0.9", "epsilon=2.0", "trials=0"):
            assert frag in msg

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"n": 8, "hash_width": 3})

    def test_config_that_is_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="config must be a JSON object") as exc:
            SimConfig.from_dict([1, 2])
        assert exc.value.problems == ["config must be a JSON object"]

    @pytest.mark.parametrize("adversary, named", [
        ({"kind": "fixed_error", "error": 3, "foo": 1}, "'foo'"),
        ({"kind": "fixed_error", "error": 256}, "fixed error 256"),
        ({"kind": "fixed_error", "error": -3}, "fixed error -3"),
        ("exhaustive_best", "exhaustive_best"),
    ])
    def test_bad_adversary_rejected_before_any_trial(self, drawn_trials, adversary, named):
        n = 14 if adversary == "exhaustive_best" else 8
        with pytest.raises(ConfigError, match="adversary: .*" + named):
            run_trials(small_cfg(n=n, adversary=adversary, trials=5))
        assert drawn_trials == []
        # the same record fills for a config that validates
        run_trials(small_cfg(n=6, trials=5))
        assert drawn_trials == [0, 1, 2, 3, 4]

    def test_trellis_kernel_gets_one_row_per_watcher_per_trial(self, monkeypatch):
        # trellis_batch builds one peer side per watcher of each trial it
        # scores, from one row of words that also holds both relay arms
        built = []
        batch = watchdog.trellis_batch

        def counted(spec, tables, words, *args):
            built.extend(row for trial in words for row in trial)
            return batch(spec, tables, words, *args)

        monkeypatch.setattr(watchdog, "trellis_batch", counted)
        trials = 25
        run_trials(small_cfg(engine="trellis", trials=trials))
        assert len(built) == 2 * trials
        assert all(len(row) == 5 + 2 * 2 for row in built)
        built.clear()
        run_trials(small_cfg(trials=trials))
        assert built == []

    def test_per_watcher_rates_within_predicted_bounds(self):
        # each watcher's figure is an upper estimate of its own pass rate
        rep = run_trials(small_cfg(n=6, h=4, adversary="random_nonzero_error", trials=4000))
        v = sum(comb(6, k) for k in range(4))  # V(6, 3); all four radii are 3
        assert rep.radii == {"r12": 3, "r21": 3, "r31": 3, "r32": 3}
        want = (v * v + 2**4 * (v + v)) / (2**8 * (2**6 - 1))
        for name in ("beta_v1", "beta_v2"):
            assert rep.predicted[name] == pytest.approx(want, rel=1e-12)
            measured = rep.per_watcher[name]
            hw = (measured["wilson_high"] - measured["wilson_low"]) / 2
            assert 0 < measured["estimate"] <= rep.predicted[name] + 3 * hw


def test_arms_share_one_channel_realization(monkeypatch):
    # each trial gives the kernel one row of words per watcher, holding its
    # view of the honest arm, then its view of the corrupting arm
    rows, errors = [], []
    batch, draw_error = watchdog.algebraic_batch, protocol.draw_error

    def recorded_draw_error(*args):
        errors.append(draw_error(*args))
        return errors[-1]

    def recorded_batch(spec, tables, words, *args):
        rows.extend(row.tolist() for trial in words for row in trial)
        return batch(spec, tables, words, *args)

    monkeypatch.setattr(watchdog, "algebraic_batch", recorded_batch)
    monkeypatch.setattr(protocol, "draw_error", recorded_draw_error)
    trials = 30
    run_trials(small_cfg(p12=0.3, p21=0.2, p31=0.3, p32=0.2, trials=trials))
    # each arm's true payload: a1 x1 + a2 x2 from the two watchers' own
    # value and coefficient, then that XOR the corrupting arm's drawn error
    mul = canonical_spec(8).mul_words
    payloads = []
    for t, error in enumerate(errors):
        (x1, a1, *_), (x2, a2, *_) = rows[2 * t : 2 * t + 2]
        honest = int(mul(a1, x1) ^ mul(a2, x2))
        payloads += (honest, honest ^ error)
    # (noisy peer, noisy relay) of each view, in row order
    views = [(row[4], noisy_relay) for row in rows for noisy_relay in row[6::2]]
    assert len(views) == 4 * trials and len(payloads) == 2 * trials
    relay_noise = 0
    for t in range(trials):
        w1_honest, w1_corrupted, w2_honest, w2_corrupted = views[4 * t : 4 * t + 4]
        error = payloads[2 * t] ^ payloads[2 * t + 1]
        for (peer_h, relay_h), (peer_m, relay_m) in ((w1_honest, w1_corrupted), (w2_honest, w2_corrupted)):
            assert peer_h == peer_m
            assert relay_h ^ relay_m == error
            relay_noise += relay_h != payloads[2 * t]
    assert relay_noise > trials  # the links did flip bits


@pytest.mark.parametrize("engine", ["algebraic", "trellis"])
def test_exhaustive_best_builds_no_scenario_or_hash_function(monkeypatch, engine):
    # exhaustive_best's errors come from the sub-batch's arrays, as every other adversary's do
    built = []
    for cls in (protocol.Scenario, hashing.HashFunction):
        def spy(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    run_trials(small_cfg(engine=engine, adversary="exhaustive_best", threshold=0.01, trials=20))
    assert built == []
    # the spies see the objects the scalar path builds
    spec = canonical_spec(8)
    hf = hashing.sample(random.Random(1), 3, spec, 3)
    protocol.Scenario(
        spec=spec, hf=hf, x1=FieldElement(1, spec), x2=FieldElement(2, spec), a1=FieldElement(3, spec), a2=FieldElement(4, spec),
        epsilon=0.01, **harness._channels(small_cfg()),
    )
    assert built == ["HashFunction", "Scenario"]


class TestDrawStep:
    """The draw step against the scalar public path, trial by trial, on the same two seeded streams."""

    @staticmethod
    def scalar_trial(cfg, trial):
        """Trial `trial`'s hash table and kernel rows, drawn through `Scenario`, `relay_output` and `view_rows`."""
        spec = canonical_spec(cfg.n)
        order = spec.order
        rng = random.Random(harness._derive_seed(cfg.seed, trial, "draw"))
        if isinstance(cfg.sources, dict):
            x1, x2 = cfg.sources["fixed"]
        else:
            x1, x2 = rng.randrange(order), rng.randrange(order)
        a1, a2 = rng.randrange(1, order), rng.randrange(1, order)
        hf = hashing.sample(rng, cfg.d, spec, cfg.h)
        chans = {f"chan_{e[1:]}": BinarySymmetricChannel(getattr(cfg, e)) for e in ("p12", "p21", "p31", "p32")}
        scn = protocol.Scenario(
            spec=spec, hf=hf, x1=FieldElement(x1, spec), x2=FieldElement(x2, spec), a1=FieldElement(a1, spec), a2=FieldElement(a2, spec),
            epsilon=cfg.epsilon, **chans,
        )
        strategy = cfg.strategy()
        arms = [protocol.AdversaryStrategy("honest")] + ([strategy] if strategy.kind != "honest" else [])
        relays = [protocol.relay_output(scn, arm, rng) for arm in arms]
        links = protocol.watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)
        noise = protocol.noise_masks(links, cfg.n, random.Random(harness._derive_seed(cfg.seed, trial, "noise")))
        rows = protocol.view_rows([[x1, x2]], [[a1, a2]], hf.table[None], [relays], [noise])
        return hf.table, rows[0].tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 12),
        d=st.integers(0, 3),
        kind=st.sampled_from(
            ["honest", "random_nonzero_error", "fixed_error", "weight_bounded_error", "exhaustive_best"]
        ),
        fixed_sources=st.booleans(),
        probs=st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.5]), min_size=4, max_size=4),
        seed=st.integers(0, 2**40),
        first=st.integers(0, 10_000),
        count=st.integers(1, 4),
    )
    def test_tables_and_rows_equal_scalar_path(self, data, n, d, kind, fixed_sources, probs, seed, first, count):
        order = 1 << n
        adversary = {"kind": kind}
        if kind == "fixed_error":
            adversary["error"] = data.draw(st.integers(1, order - 1), label="error")
        if kind == "weight_bounded_error":
            adversary["max_weight"] = data.draw(st.integers(1, n + 1), label="max_weight")
        if kind == "exhaustive_best" and n > 8:
            count = 1
        sources = "uniform"
        if fixed_sources:
            sources = {"fixed": data.draw(st.lists(st.integers(0, order - 1), min_size=2, max_size=2), label="x")}
        cfg = SimConfig(
            n=n, h=data.draw(st.integers(1, n), label="h"), d=d, adversary=adversary, sources=sources, seed=seed,
            **dict(zip(("p12", "p21", "p31", "p32"), probs)),
        )
        cfg.validate()
        tables, words = harness._draw_batch(cfg, range(first, first + count))
        arms = 1 if kind == "honest" else 2
        assert tables.shape == (count, order) and tables.dtype == np.uint16
        assert words.shape == (count, 2, 5 + 2 * arms)
        for b in range(count):
            table, rows = self.scalar_trial(cfg, first + b)
            # the sub-batch's table row is the single hash function's table
            assert tables[b].tolist() == table.tolist()
            assert words[b].tolist() == rows

    def test_derived_seeds_pinned(self):
        # recorded before the seed derivation was rewritten; every tally rests on them
        assert harness._derive_seed(0, 0, "draw") == 16436181301074276647
        assert harness._derive_seed(42, 12345, "noise") == 7579827467035994739
        assert harness._derive_seed(2**40 + 7, 999999, "draw") == 10190733824899363748


class TestBetaBoundScope:
    """The beta bounds hold for random_nonzero_error and d >= 2 only; elsewhere they read null."""

    BETA_KEYS = ("beta", "beta_v1", "beta_v2")

    def assert_no_beta_bound(self, rep, tmp_path):
        assert all(rep.predicted[k] is None for k in self.BETA_KEYS)
        assert rep.predicted["gamma_bound"] == pytest.approx(0.01)
        doc = json.loads(report_json(rep))
        assert all(doc["predicted"][k] is None for k in self.BETA_KEYS)
        path = tmp_path / "report.csv"
        write_report(rep, str(path), format="csv")
        with open(path) as f:
            header, row = list(csv.reader(f))
        cells = dict(zip(header, row))
        assert all(cells["predicted_" + k] == "" for k in self.BETA_KEYS)
        assert cells["predicted_gamma_bound"] == "0.01"

    def test_constant_hash_has_no_beta_bound(self, tmp_path):
        # d = 0: every word hashes alike, so the hash never exposes the
        # corruption; the radius-only figure would claim 0.00337 here
        rep = run_trials(small_cfg(n=8, h=8, d=0, trials=200, seed=5))
        assert rep.radii == {"r12": 3, "r21": 3, "r31": 3, "r32": 3}
        assert float(theory.predicted_beta(theory.TheoryParams(8, 8, 3, 3, 3, 3))) == pytest.approx(0.00337, abs=5e-6)
        assert rep.beta["estimate"] == 1.0
        assert rep.per_watcher["beta_v1"]["estimate"] == rep.per_watcher["beta_v2"]["estimate"] == 1.0
        self.assert_no_beta_bound(rep, tmp_path)

    def test_chosen_error_has_no_beta_bound(self, tmp_path):
        rep = run_trials(small_cfg(adversary={"kind": "fixed_error", "error": 1}, trials=20))
        assert rep.beta["strategy"] == "fixed_error"
        self.assert_no_beta_bound(rep, tmp_path)


class TestSweep:
    def test_reports_one_per_value_with_derived_seeds(self):
        reports = sweep(small_cfg(trials=50), "h", [2, 3, 4])
        assert len(reports) == 3
        assert [r.config["h"] for r in reports] == [2, 3, 4]
        assert [r.config["seed"] for r in reports] == [42 ^ 0, 42 ^ 1, 42 ^ 2]

    def test_seed_axis_runs_each_named_seed(self):
        cfg = small_cfg(n=6, trials=20)
        reports = sweep(cfg, "seed", [100, 200])
        assert [r.config["seed"] for r in reports] == [100, 200]
        for seed, rep in zip((100, 200), reports):
            alone = run_trials(replace(cfg, seed=seed))
            assert replace(rep, wall_time_s=0.0) == replace(alone, wall_time_s=0.0)

    def test_empty_values(self):
        # as the CLI's --values check does, name the field rather than return no report
        for values in ([], (), iter([])):
            with pytest.raises(ConfigError, match="values"):
                sweep(small_cfg(), "h", values)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(small_cfg(), "banana", [1, 2])

    def test_pooled_sweep_matches_serial(self):
        # 3 trials sit below the 2 * workers cut and run as one chunk
        base = small_cfg(n=6, h=2)
        reports = [sweep(base, "trials", [30, 3, 17], workers=w) for w in (2, 1)]
        pooled, serial = (report_json([replace(r, wall_time_s=0.0) for r in reps]) for reps in reports)
        assert pooled == serial

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1), (4, 1)])
    def test_one_pool_per_sweep(self, monkeypatch, pool_slot, workers, pools):
        built, shut = pool_slot
        monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
        cfg = small_cfg(n=6, trials=12)
        sweep(cfg, "h", [1, 2, 3, 4, 5], workers=workers)
        run_trials(cfg, workers=workers)
        # one pool for the process, not one per call
        assert built == [workers] * pools and shut == []
        run_trials(cfg, workers=3)
        assert built == [workers] * pools + [3]
        assert shut == [workers] * pools

    def test_invalid_point_rejected_before_any_trial(self, drawn_trials):
        with pytest.raises(ConfigError, match="h=99"):
            sweep(small_cfg(trials=3), "h", [3, 99])
        assert drawn_trials == []
        sweep(small_cfg(trials=3), "h", [3, 4])
        assert drawn_trials == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match=f"workers={workers}"):
            sweep(small_cfg(trials=5), "h", [2, 3], workers=workers)
        with pytest.raises(ConfigError, match=f"workers={workers}"):
            run_trials(small_cfg(trials=5), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, "2", None, True])
    def test_worker_count_not_an_int_rejected(self, drawn_trials, workers):
        named = re.escape(f"workers={workers!r} is not an integer")
        with pytest.raises(ConfigError, match=named):
            sweep(small_cfg(trials=5), "h", [2, 3], workers=workers)
        with pytest.raises(ConfigError, match=named):
            run_trials(small_cfg(trials=5), workers=workers)
        assert drawn_trials == []
        run_trials(small_cfg(trials=5), workers=1)
        assert drawn_trials == [0, 1, 2, 3, 4]

    def test_predicted_beta_decreasing_in_n_at_fixed_radii_axis(self):
        reports = sweep(small_cfg(trials=1, p12=0.01, p21=0.01, p31=0.01, p32=0.01), "n", [8, 10, 12])
        radii = {tuple(r.radii.values()) for r in reports}
        assert len(radii) == 1  # radii stayed fixed along this sweep
        preds = [r.predicted["beta"] for r in reports]
        assert preds == sorted(preds, reverse=True)


class TestPool:
    """The process's one pool: its size, a failed call, a forked child, interpreter exit."""

    def test_capped_at_usable_cores(self, pool_slot):
        built, _ = pool_slot
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        # a small excess only: were the cap wrong, this test would start `workers` processes
        workers = cores + 2
        cfg = small_cfg(n=6, trials=2 * workers)
        assert tally_json(run_trials(cfg, workers=workers)) == tally_json(run_trials(cfg))
        assert built == [cores]

    def test_worker_killed_while_idle_does_not_fail_the_next_call(self, pool_slot):
        built, shut = pool_slot
        cfg = small_cfg(n=6, trials=12)
        serial = tally_json(run_trials(cfg))
        run_trials(cfg, workers=2)
        _, _, pool = harness._pool
        assert isinstance(pool.submit(os._exit, 1).exception(timeout=60), BrokenProcessPool)
        # the broken pool is replaced once, and the call runs on the new one
        assert tally_json(run_trials(cfg, workers=2)) == serial
        assert len(built) == 2 and shut == built[:1]
        assert tally_json(run_trials(cfg, workers=2)) == serial
        assert len(built) == 2

    def test_job_error_drops_the_pool(self, pool_slot):
        built, shut = pool_slot
        # the job, not the pool, fails: its config names no strategy, which
        # `validate` would have caught and `_tally` does not check
        bad = replace(small_cfg(n=6, trials=12), adversary="nope")
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            harness._tally([bad], 2)
        assert harness._pool is None and len(built) == 1 and shut == built

    def test_threads_at_two_sizes_share_the_slot(self, monkeypatch, pool_slot):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
        cfg = small_cfg(n=6, trials=60)
        serial = tally_json(run_trials(cfg))
        # each call at the other size replaces the pool; none may lose the pool it is reading
        with ThreadPoolExecutor(2) as ex:
            got = list(ex.map(lambda w: tally_json(run_trials(cfg, workers=w)), [2, 3] * 3))
        assert got == [serial] * 6

    def test_forked_child_starts_its_own_pool(self, pool_slot):
        cfg = small_cfg(n=6, trials=12)
        serial = tally_json(run_trials(cfg))
        run_trials(cfg, workers=2)  # the pool the child inherits, without its manager thread
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                doc = tally_json(run_trials(cfg, workers=2))
                harness._drop_pool()
                with os.fdopen(write, "w") as f:
                    f.write(doc)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)
                pytest.fail("the forked child's pooled call did not finish within 60 s")
            time.sleep(0.02)
        with os.fdopen(read) as f:
            got = f.read()
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert got == serial

    def test_script_ending_with_a_live_pool_exits(self):
        script = (
            "from algwatchdog import SimConfig, run_trials\n"
            "run_trials(SimConfig(n=6, trials=12), workers=2)\n"
            "print('done')\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "done\n"), out.stderr


class TestWilson:
    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and 0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1 and hi == pytest.approx(1.0, abs=1e-12)

    def test_contains_estimate(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi


class TestReports:
    def test_json_round_trip(self, tmp_path):
        rep = run_trials(small_cfg(trials=20))
        path = tmp_path / "report.json"
        write_report(rep, str(path), format="json")
        doc = json.loads(path.read_text())
        assert doc["config"]["n"] == 8
        assert doc["gamma"]["count"] == rep.gamma["count"]
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == report_json(rep)

    def test_csv_columns_match_documented_header(self, tmp_path):
        reports = sweep(small_cfg(trials=20), "h", [2, 3, 4])
        path = tmp_path / "sweep.csv"
        write_report(reports, str(path), format="csv")
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 4
        assert all(len(r) == len(CSV_COLUMNS) for r in rows)

    def test_honest_run_leaves_beta_cells_empty(self, tmp_path):
        # an honest run measures no beta and predicts none: its CSV cells are empty, not dropped
        rep = run_trials(small_cfg(adversary="honest", trials=20))
        path = tmp_path / "honest.csv"
        write_report(rep, str(path), format="csv")
        with open(path) as f:
            header, row = list(csv.reader(f))
        assert header == CSV_COLUMNS and len(row) == len(CSV_COLUMNS) == 33
        cells = dict(zip(header, row))
        measured = ["beta_count", "beta_estimate", "beta_wilson_low", "beta_wilson_high",
                    "beta_v1_estimate", "beta_v2_estimate"]
        assert [cells[k] for k in measured] == [""] * 6
        assert [cells[k] for k in ("predicted_beta", "predicted_beta_v1", "predicted_beta_v2")] == [""] * 3

    def test_no_path_writes_to_stdout(self, capsys):
        rep = run_trials(small_cfg(trials=5))
        write_report(rep)
        assert capsys.readouterr().out == report_json(rep)
        write_report([rep, rep], format="csv")
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == CSV_COLUMNS and len(rows) == 3

    def test_unwritable_path_raises_io_error(self):
        rep = run_trials(small_cfg(trials=5))
        with pytest.raises(IOError):
            write_report(rep, "/nonexistent-dir/report.json")

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        rep = run_trials(small_cfg(trials=5))
        path = tmp_path / "report.xml"
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            write_report(rep, str(path), format="xml")
        assert not path.exists()

    def test_floats_rounded_to_12_significant_digits(self):
        rep = run_trials(small_cfg(trials=30))
        doc = json.loads(report_json(rep))

        def walk(obj):
            if isinstance(obj, float):
                assert float(f"{obj:.12g}") == obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    walk(v)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v)

        walk(doc)
