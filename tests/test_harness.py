"""Monte Carlo runner, sweeps, and report serialization tests."""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from math import comb

import pytest

from algwatchdog import harness, theory
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


class TestRunTrials:
    def test_noiseless_honest_gamma_exactly_zero(self):
        cfg = small_cfg(p12=0.0, p21=0.0, p31=0.0, p32=0.0, adversary="honest", trials=500)
        rep = run_trials(cfg)
        assert rep.gamma["count"] == 0
        assert rep.beta is None

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

    def test_empty_values(self):
        assert sweep(small_cfg(), "h", []) == []

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(small_cfg(), "banana", [1, 2])

    def test_pooled_sweep_matches_serial(self, monkeypatch):
        monkeypatch.delenv("WATCHDOG_THREADS", raising=False)
        # 3 trials sit below the 2 * workers cut and run as one chunk
        base = small_cfg(n=6, h=2)
        reports = [sweep(base, "trials", [30, 3, 17], workers=w) for w in (2, 1)]
        pooled, serial = (report_json([replace(r, wall_time_s=0.0) for r in reps]) for reps in reports)
        assert pooled == serial

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1), (4, 1)])
    def test_one_pool_per_sweep(self, monkeypatch, workers, pools):
        monkeypatch.delenv("WATCHDOG_THREADS", raising=False)
        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        sweep(small_cfg(n=6, trials=12), "h", [1, 2, 3, 4, 5], workers=workers)
        assert built == [workers] * pools
        run_trials(small_cfg(n=6, trials=12), workers=workers)
        assert built == [workers] * (2 * pools)

    def test_invalid_point_rejected_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_run_one", lambda cfg, trial: ran.append(trial) or (0, 0, 0, 0))
        with pytest.raises(ConfigError, match="h=99"):
            sweep(small_cfg(), "h", [3, 99])
        assert ran == []

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match=f"workers={workers}"):
            sweep(small_cfg(trials=5), "h", [2, 3], workers=workers)
        with pytest.raises(ConfigError, match=f"workers={workers}"):
            run_trials(small_cfg(trials=5), workers=workers)

    def test_predicted_beta_decreasing_in_n_at_fixed_radii_axis(self):
        reports = sweep(small_cfg(trials=1, p12=0.01, p21=0.01, p31=0.01, p32=0.01), "n", [8, 10, 12])
        radii = {tuple(r.radii.values()) for r in reports}
        assert len(radii) == 1  # radii stayed fixed along this sweep
        preds = [r.predicted["beta"] for r in reports]
        assert preds == sorted(preds, reverse=True)


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

    def test_unwritable_path_raises_io_error(self):
        rep = run_trials(small_cfg(trials=5))
        with pytest.raises(IOError):
            write_report(rep, "/nonexistent-dir/report.json")

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
