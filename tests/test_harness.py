"""Monte Carlo runner, sweeps, and report serialization tests."""

import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algwatchdog import hashing, harness, protocol, theory, watchdog
from algwatchdog.channel import BinarySymmetricChannel, noise_mask
from algwatchdog.gf2n import canonical_spec
from algwatchdog.harness import (
    ConfigError,
    SimConfig,
    SimReport,
    report_json,
    run_trials,
    sweep,
    wilson_interval,
    write_report,
)
from conftest import make_scenario, tally_json
from oracles import json_leaves, rounded


every_adversary = pytest.mark.parametrize(
    "adversary",
    [
        "honest",
        "random_nonzero_error",
        {"kind": "fixed_error", "error": 5},
        {"kind": "weight_bounded_error", "max_weight": 2},
        "exhaustive_best",
    ],
    ids=["honest", "random_nonzero_error", "fixed_error", "weight_bounded_error", "exhaustive_best"],
)


def small_cfg(**kw):
    defaults = dict(n=8, h=3, d=3, p12=0.1, p21=0.1, p31=0.1, p32=0.1,
                    epsilon=0.01, trials=300, seed=42)
    defaults.update(kw)
    return SimConfig(**defaults)


def odd_report() -> SimReport:
    """A report whose leaves take every shape the writers handle: signed zero, huge and non-finite numbers, a
    tuple, empty containers, bools and escaped text."""
    return SimReport(
        config={"zero": -0.0, "tiny": 1e-300, "big": 1e16, "huge": 2**70, "pair": (1, 2 / 3, "x"), "none": {}},
        radii={},
        predicted={"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "yes": True, "no": False, "list": []},
        gamma={"third": 1 / 3, "sum": 0.1 + 0.2, "text": "hé ☃\"\\\n"},
        beta=None,
        per_watcher=None,
        wall_time_s=123.456789012345678,
    )


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.fixture
def pool_slot(monkeypatch):
    """An empty pool slot for this test, whose pools record their sizes.

    Yields (built, shut): the size of each pool at start, and at its drop by
    the process that started it.  The pool the test leaves in the slot is
    dropped after it, and then no worker of any pool may be alive.
    """
    built, shut, procs = [], [], []
    start, drop = harness._pool_of, harness._drop_pool

    def starting(size):
        slot = harness._pool
        workers = start(size)
        if harness._pool is not slot:
            built.append(size)
            procs.extend(proc for proc, _ in workers)
        return workers

    def dropping():
        if harness._pool is not None and harness._pool[0] == os.getpid():
            shut.append(harness._pool[1])
        drop()

    # the harness reads both names at each call, `_pool_of` calling `_drop_pool` too
    monkeypatch.setattr(harness, "_pool_of", starting)
    monkeypatch.setattr(harness, "_drop_pool", dropping)
    monkeypatch.setattr(harness, "_pool", None)
    yield built, shut
    harness._drop_pool()
    assert not [proc.pid for proc in procs if proc.is_alive()]


def running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has exited, though not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestRunTrials:
    def test_noiseless_honest_gamma_exactly_zero(self):
        cfg = small_cfg(p12=0.0, p21=0.0, p31=0.0, p32=0.0, adversary="honest", trials=500)
        rep = run_trials(cfg)
        assert rep.gamma["count"] == 0
        assert rep.beta is None

    def test_noiseless_self_check_names_the_flagged_trial(self, monkeypatch):
        # a kernel that rejects watcher 1's honest view of trial 3 trips the
        # check that noiseless channels never flag an honest relay; in table
        # sub-batches of 2 trials of the 5-trial block, trial 3 is row 1 of the
        # second one, and the block is tallied after its last sub-batch
        batch, calls = watchdog.algebraic_batch, []

        def rejecting(*args):
            accepted, surviving = batch(*args)
            calls.append(len(accepted))
            if len(calls) == 2:
                accepted[1, 0, 0] = False
            return accepted, surviving

        monkeypatch.setitem(harness._TABLE_WORDS, "algebraic", 2 << 8)
        monkeypatch.setattr(harness.watchdog, "algebraic_batch", rejecting)
        cfg = small_cfg(p12=0.0, p21=0.0, p31=0.0, p32=0.0, trials=5)
        flagged = r"honest relay flagged under noiseless channels \(h=3, seed=42, trial 3\)"
        with pytest.raises(AssertionError, match=flagged):
            run_trials(cfg, workers=1)
        assert calls == [2, 2, 1]

    def test_noiseless_self_check_names_the_trial_in_its_own_point(self, monkeypatch):
        # the two points of an h sweep share one 10-row block, scored in table
        # sub-batches of 4; row 0 of the third is block row 8, trial 3 of the
        # second point (h = 3, seed 42 ^ 1), not trial 8
        batch, calls = watchdog.algebraic_batch, []

        def rejecting(*args):
            accepted, surviving = batch(*args)
            calls.append(len(accepted))
            if len(calls) == 3:
                accepted[0, 0, 0] = False
            return accepted, surviving

        monkeypatch.setitem(harness._TABLE_WORDS, "algebraic", 4 << 8)
        monkeypatch.setattr(harness.watchdog, "algebraic_batch", rejecting)
        cfg = small_cfg(p12=0.0, p21=0.0, p31=0.0, p32=0.0, trials=5)
        flagged = r"honest relay flagged under noiseless channels \(h=3, seed=43, trial 3\)"
        with pytest.raises(AssertionError, match=flagged):
            sweep(cfg, "h", [2, 3], workers=1)
        assert calls == [4, 4, 2]

    def test_deterministic_given_seed(self):
        cfg = small_cfg(trials=200)
        a, b = run_trials(cfg), run_trials(cfg)
        assert tally_json(a) == tally_json(b)

    def test_single_trial_runs(self):
        rep = run_trials(small_cfg(trials=1))
        assert rep.gamma["trials"] == 1

    def test_worker_count_does_not_change_tallies(self):
        cfg = small_cfg(trials=400)
        serial = run_trials(cfg, workers=1)
        parallel = run_trials(cfg, workers=4)
        assert tally_json(serial) == tally_json(parallel)

    def test_tally_conservation(self):
        # each rate is its count out of the config's trials; the complement is not a leaf of its own
        cfg = small_cfg(trials=250)
        rep = run_trials(cfg)
        for rate in (rep.gamma, rep.beta, *rep.per_watcher.values()):
            assert rate.keys() == {"count", "trials", "estimate", "wilson_low", "wilson_high"}
            assert 0 <= rate["count"] <= rate["trials"] == cfg.trials
            assert rate["estimate"] == rate["count"] / cfg.trials

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
    def test_bad_adversary_rejected_before_any_trial(self, draw_calls, adversary, named):
        n = 14 if adversary == "exhaustive_best" else 8
        with pytest.raises(ConfigError, match="adversary: .*" + named):
            run_trials(small_cfg(n=n, adversary=adversary, trials=5))
        assert draw_calls == []
        # the same record fills for a config that validates
        run_trials(small_cfg(n=6, trials=5))
        assert draw_calls.trials() == [0, 1, 2, 3, 4]

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
    rows = []
    batch = watchdog.algebraic_batch

    def recorded_batch(spec, tables, words, *args):
        rows.extend(row.tolist() for trial in words for row in trial)
        return batch(spec, tables, words, *args)

    monkeypatch.setattr(watchdog, "algebraic_batch", recorded_batch)
    trials = 30
    cfg = small_cfg(p12=0.3, p21=0.2, p31=0.3, p32=0.2, trials=trials)
    run_trials(cfg)
    # each trial's drawn error, read on the scalar path from its draw stream after the sources,
    # coefficients and hash function
    spec = canonical_spec(8)
    errors = []
    for t in range(trials):
        rng = random.Random(harness._derive_seeds(cfg.seed, (t,), "draw")[0])
        for bound in (spec.order, spec.order, spec.order - 1, spec.order - 1):  # x1, x2, a1 - 1, a2 - 1
            rng.randrange(bound)
        hashing.sample(rng, cfg.d, spec, cfg.h)
        errors.append(protocol.draw_error(cfg.strategy(), spec, rng))
    # each arm's true payload: a1 x1 + a2 x2 from the two watchers' own
    # value and coefficient, then that XOR the corrupting arm's drawn error
    mul = spec.mul_words
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
    # exhaustive_best's errors come from the sub-batches' arrays, as every other adversary's do
    built = []
    for cls in (protocol.Scenario, hashing.HashFunction):
        def spy(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    run_trials(small_cfg(engine=engine, adversary="exhaustive_best", threshold=0.01, trials=20))
    assert built == []
    # the spies see the objects the scalar path builds
    make_scenario(canonical_spec(8), 1, 2, 3, 4, p=0.1, h=3, seed=1)
    assert built == ["HashFunction", "Scenario"]


class TestDrawStep:
    """The draw step against the scalar public path, trial by trial, on the same two seeded streams."""

    @staticmethod
    def scalar_trial(cfg, trial):
        """Trial `trial`'s hash table and kernel rows, drawn through `Scenario`, `relay_output` and `view_rows`."""
        spec = canonical_spec(cfg.n)
        order = spec.order
        rng = random.Random(harness._derive_seeds(cfg.seed, (trial,), "draw")[0])
        if isinstance(cfg.sources, dict):
            x1, x2 = cfg.sources["fixed"]
        else:
            x1, x2 = rng.randrange(order), rng.randrange(order)
        a1, a2 = rng.randrange(1, order), rng.randrange(1, order)
        hf = hashing.sample(rng, cfg.d, spec, cfg.h)
        scn = make_scenario(spec, x1, x2, a1, a2, p=(cfg.p12, cfg.p21, cfg.p31, cfg.p32), hf=hf, epsilon=cfg.epsilon)
        strategy = cfg.strategy()
        arms = [protocol.AdversaryStrategy("honest")] + ([strategy] if strategy.kind != "honest" else [])
        relays = [protocol.relay_output(scn, arm, rng) for arm in arms]
        links = protocol.watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)
        noise = protocol.noise_masks(links, cfg.n, random.Random(harness._derive_seeds(cfg.seed, (trial,), "noise")[0]))
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
        links = protocol.watcher_links(**harness._channels(cfg))
        radii = protocol.watcher_radii(links, n, cfg.epsilon)
        views = harness._draw_batch([(cfg, range(first, first + count))], links, radii, cfg.strategy(), random.Random())
        tables, words = map(np.concatenate, zip(*views))
        arms = 1 if kind == "honest" else 2
        assert tables.shape == (count, order) and tables.dtype == np.uint16
        assert words.shape == (count, 2, 5 + 2 * arms)
        for b in range(count):
            table, rows = self.scalar_trial(cfg, first + b)
            # the block's table row is the single hash function's table
            assert tables[b].tolist() == table.tolist()
            assert words[b].tolist() == rows

    @pytest.mark.parametrize("n", [2, 8, 12])
    def test_noise_with_a_dead_link_between_live_links_equals_per_bit_draws(self, monkeypatch, n):
        # links in watcher_links order are p21, p31, p12, p32: the dead p31
        # link draws nothing, so p12's words follow p21's in each trial's stream
        recorded = []
        view_rows = protocol.view_rows

        def recording(sources, coeffs, tables, payloads, noise):
            recorded.extend(np.asarray(noise).tolist())
            return view_rows(sources, coeffs, tables, payloads, noise)

        monkeypatch.setattr(protocol, "view_rows", recording)
        cfg = small_cfg(n=n, h=2, p21=0.3, p31=0.0, p12=0.1, p32=0.5, trials=40)
        run_trials(cfg)
        want = []
        for trial in range(cfg.trials):
            rng = random.Random(harness._derive_seeds(cfg.seed, (trial,), "noise")[0])
            w1 = [noise_mask(BinarySymmetricChannel(p), n, rng) for p in (cfg.p21, cfg.p31)]
            want.append([w1, [noise_mask(BinarySymmetricChannel(p), n, rng) for p in (cfg.p12, cfg.p32)]])
        assert recorded == want
        assert all(trial[0][1] == 0 for trial in recorded)

    @pytest.mark.parametrize("probs", [(0.1, 0.1, 0.1, 0.1), (0.1, 0.0, 0.2, 0.3)], ids=["live", "p21_dead"])
    def test_reused_generator_carries_nothing_between_sub_batches(self, monkeypatch, probs):
        # with 16-trial blocks, one 48-trial chunk reads three blocks through one
        # generator, where three jobs start one each; weight_bounded_error reads
        # a variable number of words per trial, and a dead link leaves its noise
        # words unread
        cfg = small_cfg(
            n=12, h=4, adversary={"kind": "weight_bounded_error", "max_weight": 3}, trials=48,
            **dict(zip(("p12", "p21", "p31", "p32"), probs)),
        )
        monkeypatch.setattr(harness, "_BATCH_TRIALS", 16)
        # one table sub-batch per block
        assert harness._TABLE_WORDS[cfg.engine] >> cfg.n >= 16
        kernel, rows = watchdog.algebraic_batch, []

        def recording(spec, tables, words, *args):
            rows.append(words.tolist())
            return kernel(spec, tables, words, *args)

        monkeypatch.setattr(harness.watchdog, "algebraic_batch", recording)
        [whole] = harness._run_chunks([(cfg, 0, 48)])
        parts = [harness._run_chunks([(cfg, lo, lo + 16)])[0] for lo in (0, 16, 32)]
        assert whole == tuple(map(sum, zip(*parts)))
        assert 0 < whole[1] < 48
        # the tallies are coarse: the kernel rows must match too
        assert len(rows) == 6 and rows[:3] == rows[3:]
        # three chunks in one job reuse one generator across chunks too
        assert harness._run_chunks([(cfg, lo, lo + 16) for lo in (0, 16, 32)]) == parts
        assert rows[6:] == rows[3:6]

    def test_derived_seeds_pinned(self):
        # recorded before the seed derivation was rewritten; every tally rests on them
        assert harness._derive_seeds(0, (0,), "draw")[0] == 16436181301074276647
        assert harness._derive_seeds(42, (12345,), "noise")[0] == 7579827467035994739
        assert harness._derive_seeds(2**40 + 7, (999999,), "draw")[0] == 10190733824899363748
        assert harness._derive_seeds(-5, (0,), "draw") == [180879222391550339]
        assert harness._derive_seeds(-5, (0,), "noise") == [9819889769588388748]
        assert harness._derive_seeds(2**64 + 3, (7,), "draw") == [11854660911011339015]
        assert harness._derive_seeds(2**64 + 3, (7,), "noise") == [18057870297591303018]
        assert harness._derive_seeds(11, range(3, 7), "draw") == [
            16998858423025457137, 13811183289936775497, 2332314176607253421, 8039776018065531852
        ]
        assert harness._derive_seeds(11, range(3, 7), "noise") == [
            8137180309459032341, 17940563599397963334, 17354943151713518021, 7361405174372206004
        ]


@pytest.mark.parametrize("engine", ["algebraic", "trellis"])
@every_adversary
def test_trials_read_words_not_randrange_or_random(monkeypatch, engine, adversary):
    # both streams are read as MT19937 words (getrandbits), so the draws do
    # not rest on how randrange and random() are implemented
    def refuse(*args, **kwargs):
        raise AssertionError("a trial called Random.randrange or Random.random")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "random", refuse)
    with pytest.raises(AssertionError):
        random.Random(1).random()
    rep = run_trials(small_cfg(engine=engine, adversary=adversary, threshold=0.01, trials=2))
    assert rep.gamma["trials"] == 2


class TestBetaBoundScope:
    """Every predictor is about the algebraic engine's radius rule, so each report claims it only there.

    The gamma budgets hold for the algebraic engine, the beta bounds for that
    engine with random_nonzero_error and d >= 2.  The trellis engine has no
    radius rule, and its measured rates lie above the beta bounds, so its
    reports claim none of the five.  An unclaimed predictor reads null in the
    JSON and an empty cell in the CSV; every report keeps the five keys.
    """

    GAMMA_KEYS = ("gamma_bound", "gamma_bound_conservative")
    BETA_KEYS = ("beta", "beta_v1", "beta_v2")

    def assert_unclaimed(self, rep, tmp_path, keys) -> dict:
        """The CSV cells of rep, after checking that each of keys reads null in the report, its JSON and its CSV."""
        assert list(rep.predicted) == [*self.GAMMA_KEYS, *self.BETA_KEYS]
        assert all(rep.predicted[k] is None for k in keys)
        doc = json.loads(report_json(rep))
        assert all(doc["predicted"][k] is None for k in keys)
        path = tmp_path / "report.csv"
        write_report(rep, str(path), format="csv")
        header, row = read_csv(path)
        cells = dict(zip(header, row))
        assert all(cells["predicted." + k] == "" for k in keys)
        return cells

    def assert_no_beta_bound(self, rep, tmp_path):
        cells = self.assert_unclaimed(rep, tmp_path, self.BETA_KEYS)
        assert rep.predicted["gamma_bound"] == pytest.approx(0.01)
        assert cells["predicted.gamma_bound"] == "0.01"

    @pytest.mark.parametrize("adversary", ["honest", "random_nonzero_error"])
    def test_trellis_claims_no_bound(self, tmp_path, adversary):
        cfg = small_cfg(engine="trellis", adversary=adversary, trials=20)
        rep = run_trials(cfg)
        self.assert_unclaimed(rep, tmp_path, self.GAMMA_KEYS + self.BETA_KEYS)
        # the radii stay: exhaustive_best chooses its error by them under either engine
        assert rep.radii == {"r12": 3, "r21": 3, "r31": 3, "r32": 3}
        # the same point on the algebraic engine claims the gamma budgets, and the beta bounds for this adversary
        claimed = run_trials(replace(cfg, engine="algebraic")).predicted
        assert claimed["gamma_bound"] == pytest.approx(0.01) and claimed["gamma_bound_conservative"] == 0.02
        assert all((claimed[k] is None) == (adversary == "honest") for k in self.BETA_KEYS)

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
        assert rep.config["adversary"] == {"kind": "fixed_error", "error": 1}
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
            assert tally_json(rep) == tally_json(alone)

    def test_empty_values(self):
        # as the CLI's --values check does, name the field rather than return no report
        for values in ([], (), iter([])):
            with pytest.raises(ConfigError, match="values"):
                sweep(small_cfg(), "h", values)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(small_cfg(), "banana", [1, 2])

    def test_pooled_sweep_matches_serial(self):
        # 30 trials reach 2 * workers, so the call pools and every point, the
        # 3-trial one too, is cut into one chunk per worker
        base = small_cfg(n=6, h=2)
        reports = [sweep(base, "trials", [30, 3, 17], workers=w) for w in (2, 1)]
        assert tally_json(reports[0]) == tally_json(reports[1])
        # the first point holds the call's wall time, pooled as serially
        assert [r.wall_time_s for r in reports[0][1:]] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "axis, values, workers", [("trials", [30, 3, 17], 3), ("n", [8, 10, 12], 2), ("n", [8, 10, 12], 3)]
    )
    def test_pooled_sweep_report_equals_serial(self, axis, values, workers):
        # as test_pooled_sweep_matches_serial at more workers, and on an n sweep, whose points differ in cost
        base = small_cfg(n=6, h=2, trials=30)
        reports = [sweep(base, axis, values, workers=w) for w in (workers, 1)]
        assert tally_json(reports[0]) == tally_json(reports[1])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_sweep_sends_one_job_per_worker(self, monkeypatch, pool_slot, workers):
        built, _ = pool_slot
        pooled, sent = harness._pooled, []

        def recording(jobs):
            sent.append(jobs)
            return pooled(jobs)

        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        monkeypatch.setattr(harness, "_pooled", recording)
        values = [30, 3, 17, 1]
        reports = sweep(small_cfg(n=6, h=2), "trials", values, workers=workers)
        assert [tally_json(r) for r in reports] == [tally_json(r) for r in sweep(small_cfg(n=6, h=2), "trials", values)]
        [jobs] = sent
        # job k runs on process k of a pool of as many processes as jobs
        assert len(jobs) == workers and built == [workers]
        plans = [harness._chunks(trials, workers) for trials in values]
        for k, job in enumerate(jobs):
            # job k holds chunk k of every point that has one, in point order
            assert [(cfg.trials, lo, hi) for cfg, lo, hi in job] == [
                (trials, *plan[k]) for trials, plan in zip(values, plans) if k < len(plan)
            ]
        for trials, plan in zip(values, plans):
            assert [lo for lo, _ in plan] + [trials] == [0] + [hi for _, hi in plan]
        totals = [sum(hi - lo for _, lo, hi in job) for job in jobs]
        assert max(totals) - min(totals) <= len(values)

    @pytest.mark.parametrize("engine", ["algebraic", "trellis"])
    @every_adversary
    @pytest.mark.parametrize("sources", ["uniform", {"fixed": [0x0B, 0x35]}], ids=["uniform", "fixed"])
    def test_points_sharing_sub_batches_equal_their_runs_alone(self, engine, adversary, sources):
        # an h, seed or trials sweep's points share blocks; each point's
        # report is still the one run_trials gives it alone, at any worker count
        base = small_cfg(
            n=6, h=2, p21=0.3, p31=0.0, p32=0.05, engine=engine, threshold=0.01, adversary=adversary,
            sources=sources, trials=8,
        )
        for axis, values in (("h", [1, 3, 6]), ("seed", [5, 6, 99]), ("trials", [8, 1, 13])):
            alone = [tally_json(run_trials(replace(base, **{"seed": base.seed ^ i, axis: v}))) for i, v in enumerate(values)]
            for workers in (1, 3):
                assert [tally_json(r) for r in sweep(base, axis, values, workers=workers)] == alone, (axis, workers)

    def test_serial_h_sweep_draws_in_one_call(self, draw_calls):
        # five 20-trial points at n = 8 fill 100 rows of one 256-trial block
        hs = [1, 2, 3, 4, 5]
        sweep(small_cfg(trials=20), "h", hs)
        assert [[(cfg.h, cfg.seed, trials) for cfg, trials in segments] for segments in draw_calls] == [
            [(h, 42 ^ i, range(0, 20)) for i, h in enumerate(hs)]
        ]

    def test_trials_sweep_splits_at_the_sub_batch_size(self, draw_calls):
        # a block draws 256 trials at any n, so the third point spans two
        sweep(small_cfg(n=12, trials=1), "trials", [100, 100, 100])
        assert [[(cfg.seed, trials) for cfg, trials in segments] for segments in draw_calls] == [
            [(42, range(0, 100)), (43, range(0, 100)), (40, range(0, 56))],
            [(40, range(56, 100))],
        ]

    @pytest.mark.parametrize("axis, values", [("n", [6, 8, 10]), ("p12", [0.05, 0.1, 0.2]), ("d", [1, 2, 3])])
    def test_points_with_other_kernels_never_share_a_sub_batch(self, draw_calls, axis, values):
        sweep(small_cfg(n=6, trials=20), axis, values)
        assert [[(getattr(cfg, axis), trials) for cfg, trials in segments] for segments in draw_calls] == [
            [(v, range(0, 20))] for v in values
        ]

    def test_serial_sweep_sends_one_job_holding_every_point(self, monkeypatch):
        run, jobs = harness._run_chunks, []

        def recording(job):
            jobs.append(job)
            return run(job)

        monkeypatch.setattr(harness, "_run_chunks", recording)
        values = [30, 3, 17]
        reports = sweep(small_cfg(n=6), "trials", values)
        assert [[(cfg.trials, lo, hi) for cfg, lo, hi in job] for job in jobs] == [[(t, 0, t) for t in values]]
        # the points come back together: the first holds the run's time, the others none
        assert reports[0].wall_time_s > 0 and [r.wall_time_s for r in reports[1:]] == [0.0, 0.0]

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

    def test_invalid_point_rejected_before_any_trial(self, draw_calls):
        with pytest.raises(ConfigError, match="h=99"):
            sweep(small_cfg(trials=3), "h", [3, 99])
        assert draw_calls == []
        sweep(small_cfg(trials=3), "h", [3, 4])
        assert draw_calls.trials() == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match=f"workers={workers}"):
            sweep(small_cfg(trials=5), "h", [2, 3], workers=workers)
        with pytest.raises(ConfigError, match=f"workers={workers}"):
            run_trials(small_cfg(trials=5), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, "2", None, True])
    def test_worker_count_not_an_int_rejected(self, draw_calls, workers):
        named = re.escape(f"workers={workers!r} is not an integer")
        with pytest.raises(ConfigError, match=named):
            sweep(small_cfg(trials=5), "h", [2, 3], workers=workers)
        with pytest.raises(ConfigError, match=named):
            run_trials(small_cfg(trials=5), workers=workers)
        assert draw_calls == []
        run_trials(small_cfg(trials=5), workers=1)
        assert draw_calls.trials() == [0, 1, 2, 3, 4]

    def test_predicted_beta_decreasing_in_n_at_fixed_radii_axis(self):
        reports = sweep(small_cfg(trials=1, p12=0.01, p21=0.01, p31=0.01, p32=0.01), "n", [8, 10, 12])
        radii = {tuple(r.radii.values()) for r in reports}
        assert len(radii) == 1  # radii stayed fixed along this sweep
        preds = [r.predicted["beta"] for r in reports]
        assert preds == sorted(preds, reverse=True)


class TestBlocks:
    """Draw blocks and table sub-batches are free parameters: no size moves a draw or a tally."""

    @pytest.mark.parametrize("engine", ["algebraic", "trellis"])
    @every_adversary
    @pytest.mark.parametrize("sources", ["uniform", {"fixed": [0x0B, 0x35]}], ids=["uniform", "fixed"])
    def test_report_independent_of_block_and_sub_batch_size(self, monkeypatch, engine, adversary, sources):
        # the three 25-trial points of an h sweep share one block at the default
        # size, cut at n = 12 into sub-batches of the rule's 64 (algebraic) or
        # 16 (trellis) rows; blocks of 1 and 7 trials and sub-batches of 1 and 3
        # cut them elsewhere
        base = small_cfg(
            n=12, h=2, p21=0.3, p31=0.0, p32=0.05, engine=engine, threshold=0.01, adversary=adversary,
            sources=sources, trials=25,
        )
        rule = harness._TABLE_WORDS[engine] >> base.n
        assert rule < 75 and harness._BATCH_TRIALS == 256
        want = [tally_json(r) for r in sweep(base, "h", [1, 3, 6])]
        for block in (1, 7, 256):
            for size in (1, 3, rule):
                monkeypatch.setattr(harness, "_BATCH_TRIALS", block)
                monkeypatch.setitem(harness._TABLE_WORDS, engine, size << base.n)
                assert [tally_json(r) for r in sweep(base, "h", [1, 3, 6])] == want, (block, size)

    @pytest.mark.parametrize("engine", ["algebraic", "trellis"])
    @pytest.mark.parametrize("n", [10, 12])
    def test_draw_step_sizes_exhaustive_best_calls(self, monkeypatch, engine, n):
        # best_errors scores what it is given at once, so the draw step's
        # sub-batches hold at most 2^16 table words under exhaustive_best
        calls = []
        best_errors = protocol.best_errors

        def recorded(spec, tables, *args):
            calls.append(len(tables))
            return best_errors(spec, tables, *args)

        monkeypatch.setattr(protocol, "best_errors", recorded)
        run_trials(small_cfg(n=n, h=4, engine=engine, threshold=0.01, adversary="exhaustive_best", trials=100))
        assert sum(calls) == 100 and max(calls) == max(1, (1 << 16) >> n)

    def test_reseed_gives_the_words_random_gives(self, monkeypatch):
        # the draw step reseeds through the C seed `Random.seed` wraps; both
        # streams of each trial must start where Random(seed) starts
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        monkeypatch.setattr(harness, "_derive_seeds", lambda seed, trials, key: seeds[: len(trials)])
        read = []

        def peek(*args):
            read.append(draws_below(*args))
            return read[-1]

        draws_below = protocol.draws_below
        monkeypatch.setattr(protocol, "draws_below", peek)
        # honest: no error read after the draws
        cfg = small_cfg(adversary="honest", trials=len(seeds))
        links = protocol.watcher_links(**harness._channels(cfg))
        radii = [[3, 3], [3, 3]]
        list(harness._draw_batch([(cfg, range(len(seeds)))], links, radii, cfg.strategy(), random.Random(7)))
        [(draws, noise)] = read
        # sources, coefficients less one and a_0..a_3, then the first 8 of the 64 noise words (4 links, 2n each)
        draws = np.reshape(draws, (len(seeds), 8)).tolist()
        noise = np.frombuffer(noise, dtype="<u4").reshape(len(seeds), 64)[:, :8].tolist()
        order = 1 << cfg.n
        bounds = [order] * 2 + [order - 1] * 2 + [order] * 4
        assert draws == [[rng.randrange(b) for b in bounds] for rng in map(random.Random, seeds)]
        assert noise == [[rng.getrandbits(32) for _ in range(8)] for rng in map(random.Random, seeds)]

    @pytest.mark.parametrize(
        "adversary, n",
        [
            ("honest", 8),
            ("random_nonzero_error", 8),
            ({"kind": "fixed_error", "error": 5}, 8),
            ({"kind": "weight_bounded_error", "max_weight": 2}, 8),
            ({"kind": "weight_bounded_error", "max_weight": 1}, 12),
            ("exhaustive_best", 8),
        ],
        ids=["honest", "random_nonzero", "fixed_error", "weight_bounded", "weight_bounded-w1-n12", "exhaustive_best"],
    )
    @pytest.mark.parametrize("sources", ["uniform", {"fixed": [0x0B, 0x35]}], ids=["uniform", "fixed"])
    def test_block_reads_randrange_and_getrandbits(self, monkeypatch, adversary, n, sources):
        # the block's one loop against fresh generators: each trial's draws are its draw
        # stream's randrange reads, and its noise words its noise stream's getrandbits(32)
        # reads, in order; the seeds straddle the C seed's 32-bit word boundaries
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        keyed = {"draw": seeds, "noise": seeds[::-1]}
        monkeypatch.setattr(harness, "_derive_seeds", lambda seed, trials, key: keyed[key][: len(trials)])
        read = []

        def peek(*args):
            read.append(draws_below(*args))
            return read[-1]

        draws_below = protocol.draws_below
        monkeypatch.setattr(protocol, "draws_below", peek)
        # the dead p31 link draws no noise words
        cfg = small_cfg(n=n, h=3, d=2, p21=0.3, p31=0.0, p12=0.1, p32=0.5, adversary=adversary, sources=sources)
        strategy, order = cfg.strategy(), 1 << n
        links = protocol.watcher_links(**harness._channels(cfg))
        radii = protocol.watcher_radii(links, n, cfg.epsilon)
        views = harness._draw_batch([(cfg, range(len(seeds)))], links, radii, strategy, random.Random(7))
        _, words = map(np.concatenate, zip(*views))
        want_draws, want_errors, want_rows = [], [], []
        for rng in map(random.Random, seeds):
            x = [] if isinstance(sources, dict) else [rng.randrange(order) for _ in range(2)]
            a = [rng.randrange(1, order) for _ in range(2)]
            want_draws += x + [v - 1 for v in a] + [rng.randrange(order) for _ in range(cfg.d + 1)]
            x = x or sources["fixed"]
            want_rows.append([[x[0], a[0]], [x[1], a[1]]])
            if strategy.kind in ("random_nonzero_error", "weight_bounded_error"):
                e = rng.randrange(1, order)
                while e.bit_count() > (strategy.max_weight or n):
                    e = rng.randrange(1, order)
                want_draws.append(e - 1)
                want_errors.append(e)
            elif strategy.kind == "fixed_error":
                want_errors.append(strategy.error)
        [(draws, noise)] = read
        assert draws == want_draws
        # three live links, 2n words each
        words_read = [rng.getrandbits(32) for rng in map(random.Random, seeds[::-1]) for _ in range(3 * 2 * n)]
        assert noise == b"".join(w.to_bytes(4, "little") for w in words_read)
        # each watcher's row starts with its own value and coefficient
        assert words[:, :, :2].tolist() == want_rows
        if want_errors:
            # the corrupting arm's noisy relay word differs from the honest arm's by the error
            assert (words[:, :, 8] ^ words[:, :, 6]).tolist() == [[e, e] for e in want_errors]


class TestMemory:
    """The tracemalloc peak of one call, against the figure of the 2^16-word sub-batches plus a stated margin.

    The parent figures were taken with each config run once before (first-use
    tables built) on a 2-core x86_64 VM, Python 3.11, numpy 2.
    """

    @staticmethod
    def peak_mb(cfg) -> float:
        run_trials(replace(cfg, trials=2))
        tracemalloc.start()
        try:
            run_trials(cfg)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "fields, bound",
        [
            # 0.23 MB: a block holds 256 trials, as the old sub-batch did at n <= 8; +0.27 MB
            # (a 20,000-trial block would hold ≈5 MB of draws, noise and rows)
            (dict(n=2, h=1, engine="trellis", trials=20_000), 0.5),
            # 5.70 and 4.11 MB: the draw step cuts exhaustive_best's sub-batches
            # at 2^16 table words, which best_errors scores at once; +23% and
            # +24% (12.9 and 12.8 MB in sub-batches at the 2^18-word cap)
            (dict(n=10, h=4, adversary="exhaustive_best", trials=256), 7.0),
            (dict(n=12, h=5, adversary="exhaustive_best", trials=64), 5.1),
            # 0.52 MB: one trial per sub-batch at n = 16; the 2^18-word cap
            # holds 4, so 4x that figure, +25%
            (dict(n=16, h=8, trials=64), 2.6),
            # 0.54 MB: one 150-trial sub-batch at n = 8; the kernel holds both
            # watchers' (150, 93) peer balls at once, where it held one, +50%
            (dict(n=8, h=3, trials=150), 0.8),
        ],
        ids=["trellis-n2", "exhaustive-n10", "exhaustive-n12", "alg16", "alg8"],
    )
    def test_call_peak_within_bound(self, fields, bound):
        assert self.peak_mb(small_cfg(seed=3, **fields)) <= bound


class TestPool:
    """The process's one pool: its size, a failed call, a forked child, interpreter exit."""

    def test_capped_at_usable_cores(self, pool_slot):
        built, _ = pool_slot
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        # a small excess only: were the cap wrong, this test would start `workers` processes
        workers = cores + 2
        cfg = small_cfg(n=6, trials=2 * workers)
        assert tally_json(run_trials(cfg, workers=workers)) == tally_json(run_trials(cfg))
        # the caller is process 0 of the pool, so it starts one process fewer than its size; one core runs serially
        assert built == [cores] * (cores > 1)
        assert harness._pool is None if cores == 1 else len(harness._pool[2]) == cores - 1

    def test_worker_killed_while_idle_does_not_fail_the_next_call(self, monkeypatch, pool_slot):
        built, shut = pool_slot
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        cfg = small_cfg(n=6, trials=12)
        serial = tally_json(run_trials(cfg))
        run_trials(cfg, workers=2)
        [(worker, _)] = harness._pool[2]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=60)
        assert worker.exitcode == -signal.SIGKILL
        # the broken pool is replaced once, and the call runs on the new one
        assert tally_json(run_trials(cfg, workers=2)) == serial
        assert len(built) == 2 and shut == built[:1]
        assert tally_json(run_trials(cfg, workers=2)) == serial
        assert len(built) == 2

    def test_job_error_drops_the_pool(self, monkeypatch, pool_slot):
        built, shut = pool_slot
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        # the job, not the pool, fails: its config names no strategy, which
        # `validate` would have caught and `_tally` does not check; every
        # share fails, and the caller's own, job 0, raises before the worker's reply is read
        cfg = small_cfg(n=6, trials=12)
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            harness._tally([replace(cfg, adversary="nope")], 2)
        assert harness._pool is None and len(built) == 1 and shut == built
        # the unread replies went with the pool, so the next call reads its own
        assert tally_json(run_trials(cfg, workers=2)) == tally_json(run_trials(cfg))

    def test_job_error_in_a_workers_share_drops_the_pool(self, monkeypatch, pool_slot):
        built, shut = pool_slot
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        cfg = small_cfg(n=6, trials=12)
        serial = tally_json(run_trials(cfg))
        run_trials(cfg, workers=2)
        # the worker, started above, keeps the real job; the caller's share now passes
        run = harness._run_chunks
        monkeypatch.setattr(harness, "_run_chunks", lambda job: [(0, 0, 0, 0)] * len(job))
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            harness._tally([replace(cfg, adversary="nope")], 2)
        assert harness._pool is None and built == [2] and shut == [2]
        monkeypatch.setattr(harness, "_run_chunks", run)
        assert tally_json(run_trials(cfg, workers=2)) == serial
        assert built == [2, 2]

    def test_worker_killed_mid_call_fails_the_call(self):
        # the caller's share kills the worker, which holds its job by then and takes ≈0.1 s to run it
        script = (
            "import os, signal\n"
            "from dataclasses import replace\n"
            "from algwatchdog import SimConfig, harness, report_json, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "cfg = SimConfig(n=6, trials=10_000)\n"
            "serial = report_json(replace(run_trials(cfg), wall_time_s=0.0))\n"
            "run_trials(cfg, workers=2)\n"
            "[(worker, _)] = harness._pool[2]\n"
            "run = harness._run_chunks\n"
            "def killing(job):\n"
            "    os.kill(worker.pid, signal.SIGKILL)\n"
            "    worker.join()\n"
            "    return run(job)\n"
            "harness._run_chunks = killing\n"
            "try:\n"
            "    run_trials(cfg, workers=2)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "harness._run_chunks = run\n"
            "print(harness._pool is None, worker.exitcode == -signal.SIGKILL)\n"
            "print(report_json(replace(run_trials(cfg, workers=2), wall_time_s=0.0)) == serial)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        want = "a pool worker exited during the call\nTrue True\nTrue\n"
        assert (out.returncode, out.stdout) == (0, want), out.stderr

    def test_one_usable_core_starts_no_process(self, monkeypatch, pool_slot):
        built, _ = pool_slot
        monkeypatch.setattr(harness, "_usable_cores", lambda: 1)
        cfg = small_cfg(n=6, trials=12)
        # the call runs serially: no pool slot is filled
        assert tally_json(run_trials(cfg, workers=3)) == tally_json(run_trials(cfg))
        assert built == [] and harness._pool is None
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from algwatchdog import SimConfig, harness, report_json, run_trials\n"
            "harness._usable_cores = lambda: 1\n"
            "cfg = SimConfig(n=6, trials=12)\n"
            "serial = report_json(replace(run_trials(cfg), wall_time_s=0.0))\n"
            "pooled = report_json(replace(run_trials(cfg, workers=3), wall_time_s=0.0))\n"
            "print(pooled == serial, 'multiprocessing' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "True False\n"), out.stderr

    def test_thousands_of_workers_run_one_job_per_process(self):
        # a worker sent many jobs before the caller reads any reply blocks once its replies fill the pipe,
        # so 2,000 workers on 2 usable cores must be one job for each of 2 processes
        script = (
            "from dataclasses import replace\n"
            "from algwatchdog import SimConfig, harness, report_json, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "cfg = SimConfig(n=6, trials=4000)\n"
            "serial = report_json(replace(run_trials(cfg), wall_time_s=0.0))\n"
            "pooled = report_json(replace(run_trials(cfg, workers=2000), wall_time_s=0.0))\n"
            "print(pooled == serial, len(harness._pool[2]) == 1)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "True True\n"), out.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_no_worker_alive_after_the_script_ends(self, tmp_path, ending):
        # a worker forked later holds copies of its elder siblings' pipe ends, so closing the
        # caller's end stops none; killed, the script runs no exit hook at all
        script = (
            "import os, signal\n"
            "from dataclasses import replace\n"
            "from algwatchdog import SimConfig, harness, report_json, run_trials\n"
            "harness._usable_cores = lambda: 4\n"
            "cfg = SimConfig(n=6, trials=12)\n"
            "serial = report_json(replace(run_trials(cfg), wall_time_s=0.0))\n"
            "pooled = report_json(replace(run_trials(cfg, workers=4), wall_time_s=0.0))\n"
            "print(pooled == serial, *[proc.pid for proc, _ in harness._pool[2]], flush=True)\n"
            + ("os.kill(os.getpid(), signal.SIGKILL)\n" if ending == "kill" else "")
        )
        # a file, not a pipe, which a live worker would hold open past the script's end
        log = tmp_path / "out"
        with open(log, "w") as f:
            subprocess.run([sys.executable, "-c", script], stdout=f, stderr=subprocess.STDOUT, timeout=60)
        same, *pids = log.read_text().split()
        assert same == "True" and len(pids) == 3, log.read_text()
        deadline = time.monotonic() + 60
        while (alive := [pid for pid in map(int, pids) if running(pid)]) and time.monotonic() < deadline:
            time.sleep(0.02)
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        assert not alive

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

    def test_forked_child_exit_leaves_the_parents_workers(self, tmp_path):
        # the child's exit runs multiprocessing's exit hook over the children it inherited the records of
        script = (
            "import os, sys\n"
            "from algwatchdog import SimConfig, harness, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "run_trials(SimConfig(n=6, trials=12), workers=2)\n"
            "[(worker, _)] = harness._pool[2]\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    sys.exit(0)\n"
            "os.waitpid(pid, 0)\n"
            "print(worker.is_alive(), flush=True)\n"
        )
        log = tmp_path / "out"
        with open(log, "w") as f:
            subprocess.run([sys.executable, "-c", script], stdout=f, timeout=60)
        assert log.read_text() == "True\n"

    def test_forked_child_exits_without_a_traceback(self):
        # the first child exits at once; the second runs a pooled call on its own pool first
        script = (
            "import os, sys\n"
            "from dataclasses import replace\n"
            "from algwatchdog import SimConfig, harness, report_json, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "cfg = SimConfig(trials=40)\n"
            "serial = report_json(replace(run_trials(cfg), wall_time_s=0.0))\n"
            "run_trials(cfg, workers=2)\n"
            "[(worker, _)] = harness._pool[2]\n"
            "for pooled_in_child in (False, True):\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        if pooled_in_child:\n"
            "            same = report_json(replace(run_trials(cfg, workers=2), wall_time_s=0.0)) == serial\n"
            "            sys.exit(0 if same and harness._pool[2][0][0] is not worker else 3)\n"
            "        sys.exit(0)\n"
            "    print(os.waitpid(pid, 0)[1], worker.is_alive(), flush=True)\n"
            "pooled = report_json(replace(run_trials(cfg, workers=2), wall_time_s=0.0))\n"
            "print(pooled == serial, harness._pool[2][0][0] is worker, flush=True)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert out.stderr == ""
        assert (out.returncode, out.stdout) == (0, "0 True\n0 True\nTrue True\n")

    def test_pooled_call_in_a_multiprocessing_child_lets_it_end(self, tmp_path):
        # such a child runs multiprocessing's exit hook, not this process's atexit hooks, as it ends
        script = (
            "import multiprocessing\n"
            "from algwatchdog import SimConfig, harness, run_trials\n"
            "def job():\n"
            "    harness._usable_cores = lambda: 2\n"
            "    run_trials(SimConfig(n=6, trials=12), workers=2)\n"
            "child = multiprocessing.get_context('fork').Process(target=job)\n"
            "child.start()\n"
            "child.join(30)\n"
            "print(child.exitcode, flush=True)\n"
            "child.kill()\n"
        )
        # a file, not a pipe, which a live worker would hold open past the script's end
        log = tmp_path / "out"
        with open(log, "w") as f:
            subprocess.run([sys.executable, "-c", script], stdout=f, timeout=60)
        assert log.read_text() == "0\n"

    def test_script_ending_with_a_live_pool_exits(self):
        script = (
            "from algwatchdog import SimConfig, harness, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "run_trials(SimConfig(n=6, trials=12), workers=2)\n"
            "print('done')\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "done\n"), out.stderr

    def test_serial_call_leaves_the_pool_unimported(self):
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from algwatchdog import SimConfig, harness, report_json, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "cfg = SimConfig(n=6, trials=12)\n"
            "serial = report_json(replace(run_trials(cfg), wall_time_s=0.0))\n"
            "print('multiprocessing' in sys.modules)\n"
            "pooled = report_json(replace(run_trials(cfg, workers=2), wall_time_s=0.0))\n"
            "print('multiprocessing' in sys.modules, pooled == serial, 'concurrent.futures' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "False\nTrue True False\n")

    def test_pool_left_at_exit_is_collected_before_module_teardown(self):
        # a module that outlives sys.modules, as a test runner's collected
        # modules do, is torn down after the pool modules it imported later;
        # a pool still in its slot then would print an ignored AttributeError
        script = (
            "import sys\n"
            "from algwatchdog import SimConfig, harness, run_trials\n"
            "harness._usable_cores = lambda: 2\n"
            "run_trials(SimConfig(n=6, trials=12), workers=2)\n"
            "sys.held_until_teardown = harness\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stderr) == (0, "")


class TestWilson:
    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and 0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1 and hi == pytest.approx(1.0, abs=1e-12)

    def test_contains_estimate(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi

    def test_no_trials_gives_the_whole_range(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestReports:
    def test_serializing_changes_nothing_and_shares_nothing(self, tmp_path):
        adversary, sources = {"kind": "fixed_error", "error": 5}, {"fixed": [0x3A, 0xC5]}
        cfg = small_cfg(adversary=dict(adversary), sources={"fixed": list(sources["fixed"])}, trials=20)
        rep = run_trials(cfg)
        before, tallies = copy.deepcopy(vars(rep)), tally_json(rep)
        report_json(rep)
        write_report(rep, str(tmp_path / "report.csv"), format="csv")
        assert vars(rep) == before
        # the report's config is its own copy: changing it reaches neither the config nor its next report
        rep.config["adversary"]["error"] = 9
        rep.config["sources"]["fixed"][0] = 0
        assert (cfg.adversary, cfg.sources) == (adversary, sources)
        again = run_trials(cfg)
        assert (again.config["adversary"], again.config["sources"]) == (adversary, sources)
        assert tally_json(again) == tallies

    def test_json_round_trip(self, tmp_path):
        rep = run_trials(small_cfg(trials=20))
        path = tmp_path / "report.json"
        write_report(rep, str(path), format="json")
        doc = json.loads(path.read_text())
        assert doc["config"]["n"] == 8
        assert doc["gamma"]["count"] == rep.gamma["count"]
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == report_json(rep)

    def test_report_json_writes_what_json_dumps_writes_of_the_rounded_fields(self):
        # json.dumps of the fields, rounded by the oracle's own copy of the rule, is the oracle for the
        # one-pass writer, on every report shape
        def oracle(rep):
            doc = vars(rep) if isinstance(rep, SimReport) else {"reports": [vars(r) for r in rep]}
            return json.dumps(rounded(doc), indent=2, sort_keys=True) + "\n"

        reports = [
            run_trials(small_cfg(engine=engine, adversary=adversary, sources=sources, trials=20))
            for engine in ("algebraic", "trellis")
            for adversary in every_adversary.args[1]
            for sources in ("uniform", {"fixed": [0x3A, 0xC5]})
        ]
        assert len(reports) == 20 and any(r.beta is None and r.per_watcher is None for r in reports)
        odd = odd_report()
        for rep in [*reports, odd, reports, [odd, reports[0]], []]:
            assert report_json(rep) == oracle(rep)
        # a value json cannot write is refused as json refuses it
        odd.radii["set"] = {1}
        for write in (report_json, oracle):
            with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
                write(odd)

    def test_report_path_does_not_reach_json_encoder(self, monkeypatch):
        # json's indent encoder is pure Python; the report writer must not fall back to it
        cfg = small_cfg(trials=150, seed=0)
        alg8 = replace(run_trials(cfg), wall_time_s=0.0)
        points = [replace(r, wall_time_s=0.0) for r in sweep(replace(cfg, trials=40), "h", [1, 2, 3, 4, 5])]

        def refuse(*args, **kwargs):
            raise AssertionError("report_json reached json.JSONEncoder.iterencode")

        monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
        # sha256 of each report's bytes as json.dumps of its rounded fields, indent=2, sort_keys=True, wrote them
        assert hashlib.sha256(report_json(alg8).encode()).hexdigest() == (
            "3877c1f64aae9594ec836c5adf7b2099c46e9e149789720ddb5cfd30553f5afb"
        )
        assert hashlib.sha256(report_json(points).encode()).hexdigest() == (
            "f3fa77370c7c3608994e0f9844743ea94359056aae8ef75a2b02c8e561097f7d"
        )

    def test_csv_columns_are_the_json_leaves(self, tmp_path):
        # the adversary's error word and the fixed sources are nested config leaves
        cfg = small_cfg(adversary={"kind": "fixed_error", "error": 5}, sources={"fixed": [0x3A, 0xC5]}, trials=20)
        rep = run_trials(cfg)
        out = tmp_path / "report.csv"
        write_report(rep, str(out), format="csv")
        header, row = read_csv(out)
        # one column per leaf, named by its dotted path, in the document's order
        assert header == [key for key, _ in json_leaves(vars(rep))]
        assert len(header) == 45 and "config.adversary.error" in header
        cells = dict(zip(header, row))
        leaves = dict(json_leaves(json.loads(report_json(rep))))
        assert cells.keys() == leaves.keys()
        for key, leaf in leaves.items():
            # null is an empty cell and a list its JSON text; numbers and strings read back as written
            want = "" if leaf is None else json.dumps(leaf) if isinstance(leaf, list) else str(leaf)
            assert cells[key] == want, key
        assert json.loads(cells["config.sources.fixed"]) == [0x3A, 0xC5]

    def test_csv_cells_are_the_rounded_leaves_in_field_order(self, tmp_path):
        # a float leaf is rounded as the JSON rounds it, and a list or tuple leaf is one cell, the compact JSON
        # of its items; the odd report's tuple holds a float to round
        rep = odd_report()
        out = tmp_path / "odd.csv"
        write_report(rep, str(out), format="csv")
        header, row = read_csv(out)
        leaves = list(json_leaves(rounded(vars(rep))))
        assert header == [key for key, _ in leaves]
        want = ["" if leaf is None else json.dumps(leaf) if isinstance(leaf, list) else str(leaf) for _, leaf in leaves]
        assert row == want
        cells = dict(zip(header, row))
        assert (cells["config.pair"], cells["gamma.third"]) == ('[1, 0.666666666667, "x"]', "0.333333333333")

    def test_honest_run_leaves_beta_cells_empty(self, tmp_path):
        # an honest run measures no beta and predicts none: its beta and per_watcher are null, so empty cells
        rep = run_trials(small_cfg(adversary="honest", trials=20))
        out = tmp_path / "honest.csv"
        write_report(rep, str(out), format="csv")
        header, row = read_csv(out)
        cells = dict(zip(header, row))
        assert [cells[k] for k in ("beta", "per_watcher")] == ["", ""]
        assert [cells[k] for k in ("predicted.beta", "predicted.beta_v1", "predicted.beta_v2")] == [""] * 3
        assert not [k for k in header if k.startswith(("beta.", "per_watcher."))]

    def test_reports_of_one_call_share_one_header(self, tmp_path):
        # the header is the union of the reports' paths; a path a report lacks is an empty cell
        honest, corrupted = (run_trials(small_cfg(adversary=a, trials=20)) for a in ("honest", "random_nonzero_error"))
        out = tmp_path / "both.csv"
        write_report([honest, corrupted], str(out), format="csv")
        header, *rows = read_csv(out)
        paths = [key for key, _ in json_leaves(vars(honest))]
        assert header == paths + [key for key, _ in json_leaves(vars(corrupted)) if key not in paths]
        honest_cells, corrupted_cells = (dict(zip(header, row)) for row in rows)
        measured = [k for k in header if k.startswith(("beta.", "per_watcher."))]
        assert len(measured) == 15
        assert [honest_cells[k] for k in measured] == [""] * 15
        assert all(corrupted_cells[k] for k in measured)
        assert corrupted_cells["beta"] == corrupted_cells["per_watcher"] == ""

    @pytest.mark.parametrize("kind", ["honest", "random_nonzero_error", "exhaustive_best"])
    def test_strategy_spellings_give_one_report(self, kind):
        # a kind named alone is its object form with no other field, so both give one layout
        cfg = small_cfg(n=6, adversary=kind, trials=20)
        rep = run_trials(cfg)
        assert rep.config["adversary"] == {"kind": kind}
        assert tally_json(rep) == tally_json(run_trials(replace(cfg, adversary={"kind": kind})))

    def test_no_path_writes_to_stdout(self, capsys):
        rep = run_trials(small_cfg(trials=5))
        write_report(rep)
        assert capsys.readouterr().out == report_json(rep)
        write_report([rep, rep], format="csv")
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [key for key, _ in json_leaves(vars(rep))] and len(rows) == 3

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
