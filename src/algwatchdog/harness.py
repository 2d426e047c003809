"""Monte Carlo experiment runner and report plumbing.

Each trial draws fresh sources, coefficients, and a hash function, runs the
relay both honestly and under the configured corruption strategy through
the same channel noise (common random numbers), and asks both watchers for
a verdict.  Per-trial randomness is keyed by (seed, trial index), so tallies
are bit-identical for any worker count.  With more than one worker, trials
run in chunks on one process pool per call: `run_trials` and `sweep` each
start at most one, and a sweep submits the chunks of all its points to it.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import protocol, theory, watchdog
from .channel import BinarySymmetricChannel, radius_for_epsilon
from .gf2n import FieldElement, canonical_spec
from .hashing import sample as sample_hash

_EDGE_PROBS = ("p12", "p21", "p31", "p32")
_INT_FIELDS = ("n", "h", "d", "trials", "seed")
_FLOAT_FIELDS = (*_EDGE_PROBS, "epsilon", "threshold")
_NUMERIC_FIELDS = _INT_FIELDS + _FLOAT_FIELDS


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("invalid config: " + "; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class SimConfig:
    n: int = 8
    h: int = 3
    d: int = 3
    p12: float = 0.1
    p21: float = 0.1
    p31: float = 0.1
    p32: float = 0.1
    epsilon: float = 0.01
    adversary: str | dict = "random_nonzero_error"
    engine: str = "algebraic"
    threshold: float = 1e-9
    trials: int = 1000
    seed: int = 0
    sources: str | dict = "uniform"

    def validate(self):
        problems = []
        for names, ok, what in (
            (_INT_FIELDS, protocol.is_int, "an integer"),
            (_FLOAT_FIELDS, lambda v: protocol.is_int(v) or isinstance(v, float), "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                # JSON gives "8" or 3.0 as readily as 8; the range checks
                # below need numbers of the right kind
                if not ok(value):
                    problems.append(f"{name}={value!r} is not {what}")
        if problems:
            raise ConfigError(problems)
        if not (2 <= self.n <= 16):
            problems.append(f"n={self.n} outside [2, 16]")
        if not (1 <= self.h <= min(self.n, 16)):
            problems.append(f"h={self.h} outside [1, n]")
        if self.d < 0:
            problems.append(f"d={self.d} negative")
        for name in _EDGE_PROBS:
            p = getattr(self, name)
            if not (0.0 <= p <= 0.5):
                problems.append(f"{name}={p} outside [0, 0.5]")
        if not (0.0 < self.epsilon < 1.0):
            problems.append(f"epsilon={self.epsilon} outside (0, 1)")
        # the trellis score is a probability; NaN fails this comparison too
        if not (0.0 <= self.threshold <= 1.0):
            problems.append(f"threshold={self.threshold} outside [0, 1]")
        if self.trials < 1:
            problems.append(f"trials={self.trials} < 1")
        if self.engine not in ("algebraic", "trellis"):
            problems.append(f"engine={self.engine!r} not one of algebraic, trellis")
        if self.engine == "trellis" and self.n > watchdog.TRELLIS_MAX_WIDTH:
            problems.append(f"trellis engine requires n <= {watchdog.TRELLIS_MAX_WIDTH}")
        try:
            self.strategy()
        except ValueError as exc:
            problems.append(f"adversary: {exc}")
        src = self.sources
        if isinstance(src, dict):
            vals = src.get("fixed")
            if not (isinstance(vals, (list, tuple)) and len(vals) == 2):
                problems.append("sources: fixed form needs two values")
            elif not all(protocol.is_int(v) and 0 <= v < (1 << self.n) for v in vals):
                problems.append("sources: fixed values must be n-bit words")
        elif src != "uniform":
            problems.append(f"sources={src!r} not 'uniform' or {{'fixed': [x1, x2]}}")
        if problems:
            raise ConfigError(problems)

    def strategy(self) -> protocol.AdversaryStrategy:
        adv = self.adversary
        if isinstance(adv, str):
            return protocol.AdversaryStrategy(adv)
        if isinstance(adv, dict):
            return protocol.AdversaryStrategy(
                adv.get("kind", ""),
                error=adv.get("error"),
                max_weight=adv.get("max_weight"),
            )
        raise ValueError(f"unrecognized adversary {adv!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError([f"unknown field {u!r}" for u in unknown])
        return cls(**data)


@dataclass
class SimReport:
    config: dict
    radii: dict
    predicted: dict
    gamma: dict
    beta: dict | None
    per_watcher: dict | None
    common_random_numbers: bool
    wall_time_s: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval; better behaved than the normal approximation
    for the small probabilities this harness measures."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _derive_seed(*parts) -> int:
    hsh = hashlib.blake2b(digest_size=8)
    for p in parts:
        hsh.update(repr(p).encode())
        hsh.update(b"\x00")
    return int.from_bytes(hsh.digest(), "little")


def _verdict(cfg: SimConfig, obs: watchdog.Observation) -> watchdog.Verdict:
    if cfg.engine == "algebraic":
        return watchdog.algebraic_check(obs)
    score = watchdog.consistency_probability(watchdog.build_trellis(obs))
    return watchdog.decide(score, cfg.threshold)


def _draw_sources(cfg: SimConfig, spec, rng) -> tuple[FieldElement, FieldElement]:
    if isinstance(cfg.sources, dict):
        x1, x2 = cfg.sources["fixed"]
        return FieldElement(x1, spec), FieldElement(x2, spec)
    return FieldElement(rng.randrange(spec.order), spec), FieldElement(rng.randrange(spec.order), spec)


def _run_one(cfg: SimConfig, trial: int) -> tuple[int, int, int, int]:
    """One trial; returns (honest_flagged, mal_passed_both, mal_passed_v1, mal_passed_v2)."""
    spec = canonical_spec(cfg.n)
    rng = random.Random(_derive_seed(cfg.seed, trial, "draw"))
    x1, x2 = _draw_sources(cfg, spec, rng)
    a1 = FieldElement(rng.randrange(1, spec.order), spec)
    a2 = FieldElement(rng.randrange(1, spec.order), spec)
    hf = sample_hash(rng, cfg.d, spec, cfg.h)
    scn = protocol.Scenario(
        spec=spec, hf=hf, x1=x1, x2=x2, a1=a1, a2=a2,
        chan_12=BinarySymmetricChannel(cfg.p12), chan_21=BinarySymmetricChannel(cfg.p21),
        chan_31=BinarySymmetricChannel(cfg.p31), chan_32=BinarySymmetricChannel(cfg.p32),
        epsilon=cfg.epsilon,
    )
    sources = (scn.source_packet(1), scn.source_packet(2))
    strategy = cfg.strategy()

    def run_arm(relay_packet) -> tuple[bool, bool]:
        # fresh generator from the same key: both arms see identical noise
        noise_rng = random.Random(_derive_seed(cfg.seed, trial, "noise"))
        obs1 = protocol.observe(1, scn, sources, relay_packet, noise_rng)
        obs2 = protocol.observe(2, scn, sources, relay_packet, noise_rng)
        v1 = _verdict(cfg, obs1)
        v2 = _verdict(cfg, obs2)
        return (v1.decision is watchdog.Hypothesis.H0, v2.decision is watchdog.Hypothesis.H0)

    honest_packet = protocol.relay_output(scn, protocol.AdversaryStrategy.honest(), rng)
    h1, h2 = run_arm(honest_packet)
    honest_flagged = int(not (h1 and h2))
    if honest_flagged and cfg.p12 == cfg.p21 == cfg.p31 == cfg.p32 == 0.0 and cfg.engine == "algebraic":
        raise AssertionError(f"honest relay flagged under noiseless channels (trial {trial})")

    if strategy.kind == "honest":
        return (honest_flagged, 0, 0, 0)
    mal_packet = protocol.relay_output(scn, strategy, rng)
    m1, m2 = run_arm(mal_packet)
    return (honest_flagged, int(m1 and m2), int(m1), int(m2))


def _run_chunk(cfg: SimConfig, lo: int, hi: int) -> tuple[int, int, int, int]:
    tallies = (0, 0, 0, 0)
    for trial in range(lo, hi):
        tallies = tuple(a + b for a, b in zip(tallies, _run_one(cfg, trial)))
    return tallies


def _worker_count(workers: int | None) -> int:
    if workers is None:
        workers = 1
    elif workers < 1:
        raise ConfigError([f"workers={workers} < 1"])
    cap = os.environ.get("WATCHDOG_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError([f"WATCHDOG_THREADS={cap!r} is not an integer"]) from None
    return workers


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Trial ranges for one config: one range below 2 * workers trials, else one per worker."""
    if workers == 1 or trials < 2 * workers:
        return [(0, trials)]
    bounds = [round(i * trials / workers) for i in range(workers + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _tally(cfgs: list[SimConfig], workers: int) -> list[tuple[tuple[int, int, int, int], float]]:
    """Each config's summed tallies, with the wall seconds since the previous config's finished.

    If any config is split into chunks, every chunk of every config goes to
    one process pool, so a sweep starts one pool however many points it has;
    otherwise the configs run one after another in this process.
    """
    plans = [_chunks(cfg.trials, workers) for cfg in cfgs]
    out = []
    start = time.perf_counter()

    def finish(parts) -> None:
        nonlocal start
        now = time.perf_counter()
        out.append((tuple(sum(col) for col in zip(*parts)), now - start))
        start = now

    if all(len(plan) == 1 for plan in plans):
        for cfg in cfgs:
            finish([_run_chunk(cfg, 0, cfg.trials)])
        return out
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [[ex.submit(_run_chunk, cfg, lo, hi) for lo, hi in plan] for cfg, plan in zip(cfgs, plans)]
        for parts in futures:
            finish([f.result() for f in parts])
    return out


def run_trials(cfg: SimConfig, workers: int | None = None) -> SimReport:
    """Run the configured experiment and aggregate tallies into a report."""
    cfg.validate()
    [(tallies, wall)] = _tally([cfg], _worker_count(workers))
    return _report(cfg, tallies, wall)


def _report(cfg: SimConfig, tallies: tuple[int, int, int, int], wall: float) -> SimReport:
    flagged, passed_both, passed_v1, passed_v2 = tallies
    radii = {
        "r12": radius_for_epsilon(cfg.n, cfg.p12, cfg.epsilon).r,
        "r21": radius_for_epsilon(cfg.n, cfg.p21, cfg.epsilon).r,
        "r31": radius_for_epsilon(cfg.n, cfg.p31, cfg.epsilon).r,
        "r32": radius_for_epsilon(cfg.n, cfg.p32, cfg.epsilon).r,
    }
    tp = theory.TheoryParams(cfg.n, cfg.h, radii["r12"], radii["r21"], radii["r31"], radii["r32"])
    pred = theory.predict(tp, cfg.epsilon)
    strategy = cfg.strategy()
    # the beta bounds are claimed only for this adversary and d >= 2 (see theory)
    beta_claimed = strategy.kind == "random_nonzero_error" and cfg.d >= 2
    predicted = {
        "gamma_bound": float(theory.gamma_bound(cfg.epsilon)),
        "gamma_bound_conservative": float(pred.gamma_bound),
    }
    for key in ("beta", "beta_v1", "beta_v2"):
        predicted[key] = float(getattr(pred, key)) if beta_claimed else None

    def rate(count: int) -> dict:
        low, high = wilson_interval(count, cfg.trials)
        return {
            "count": count,
            "trials": cfg.trials,
            "estimate": count / cfg.trials,
            "wilson_low": low,
            "wilson_high": high,
        }

    gamma = rate(flagged)
    gamma["accepted_count"] = cfg.trials - flagged
    if strategy.kind == "honest":
        beta = None
        per_watcher = None
    else:
        beta = rate(passed_both)
        beta["strategy"] = strategy.kind
        beta["flagged_count"] = cfg.trials - passed_both
        per_watcher = {"beta_v1": rate(passed_v1), "beta_v2": rate(passed_v2)}
    return SimReport(
        config=cfg.to_dict(),
        radii=radii,
        predicted=predicted,
        gamma=gamma,
        beta=beta,
        per_watcher=per_watcher,
        common_random_numbers=True,
        wall_time_s=wall,
    )


def sweep(base: SimConfig, axis: str, values, workers: int | None = None) -> list[SimReport]:
    """One run per value of a numeric config field; seeds derived as seed XOR index.

    Every point is validated before any trial runs, and all points share one
    process pool.  A point's `wall_time_s` is the wall time from the moment
    the previous point finished (for the first point, the start of the
    sweep, pool start-up included) until its own last chunk finished; with
    workers > 1 its chunks may have started while earlier points ran.
    """
    if axis not in _NUMERIC_FIELDS:
        raise ConfigError([f"axis {axis!r} is not a numeric config field"])
    cfgs = [replace(base, **{axis: v, "seed": base.seed ^ i}) for i, v in enumerate(values)]
    for cfg in cfgs:
        cfg.validate()
    tallied = _tally(cfgs, _worker_count(workers))
    return [_report(cfg, tallies, wall) for cfg, (tallies, wall) in zip(cfgs, tallied)]


def _round_floats(obj, sig: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    return obj


def report_json(rep: SimReport | list[SimReport]) -> str:
    if isinstance(rep, SimReport):
        doc = _round_floats(rep.to_dict())
    else:
        doc = {"reports": [_round_floats(r.to_dict()) for r in rep]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = [
    "n", "h", "d", "p12", "p21", "p31", "p32", "epsilon", "adversary", "engine",
    "threshold", "trials", "seed", "r12", "r21", "r31", "r32",
    "gamma_count", "gamma_estimate", "gamma_wilson_low", "gamma_wilson_high",
    "beta_count", "beta_estimate", "beta_wilson_low", "beta_wilson_high",
    "beta_v1_estimate", "beta_v2_estimate",
    "predicted_gamma_bound", "predicted_gamma_bound_conservative",
    "predicted_beta", "predicted_beta_v1", "predicted_beta_v2",
    "wall_time_s",
]


def _csv_row(rep: SimReport) -> list:
    cfg = rep.config
    adv = cfg["adversary"]
    row = [cfg[k] for k in ("n", "h", "d", "p12", "p21", "p31", "p32", "epsilon")]
    row.append(adv if isinstance(adv, str) else adv.get("kind"))
    row += [cfg["engine"], cfg["threshold"], cfg["trials"], cfg["seed"]]
    row += [rep.radii[k] for k in ("r12", "r21", "r31", "r32")]
    row += [rep.gamma["count"], rep.gamma["estimate"], rep.gamma["wilson_low"], rep.gamma["wilson_high"]]
    if rep.beta is None:
        row += ["", "", "", "", "", ""]
    else:
        row += [rep.beta["count"], rep.beta["estimate"], rep.beta["wilson_low"], rep.beta["wilson_high"]]
        row += [rep.per_watcher["beta_v1"]["estimate"], rep.per_watcher["beta_v2"]["estimate"]]
    row += [rep.predicted[k] for k in ("gamma_bound", "gamma_bound_conservative", "beta", "beta_v1", "beta_v2")]
    row.append(rep.wall_time_s)
    return _round_floats(row)


def write_report(rep: SimReport | list[SimReport], path: str, format: str = "json") -> None:
    reports = [rep] if isinstance(rep, SimReport) else list(rep)
    try:
        if format == "json":
            with open(path, "w") as f:
                f.write(report_json(rep))
        elif format == "csv":
            with open(path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(CSV_COLUMNS)
                for r in reports:
                    w.writerow(_csv_row(r))
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as exc:
        raise IOError(f"cannot write report to {path}: {exc}") from exc
