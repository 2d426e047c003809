"""Monte Carlo experiment runner and report plumbing.

Each trial draws fresh sources, coefficients, and a hash function, runs the
relay both honestly and under the configured corruption strategy, and asks
both watchers for a verdict.  Both arms share one channel realization (common
random numbers), drawn once per trial: the corrupted payload picks up the
error patterns the honest one did.  Per-trial randomness is keyed by (seed,
trial index), so tallies are bit-identical for any worker count.

A chunk of trials runs in sub-batches of B = max(1, min(256, 2^16 /
2^n)) trials, 256 up to n = 8 and 16 at n = 12, so a sub-batch's hash
tables never exceed 2^16 words and at small n few trials are held at once
(with B = 2^16 / 2^n alone, a 20,000-trial trellis chunk at n = 2 peaked
at 50 MB against 36 MB).  Each sub-batch runs in two steps.  The draw step
(`_draw_batch`) does two things per trial: it reseeds one `random.Random`
for each of the trial's two streams, and reads from them, as plain ints
and in a fixed order, the sources, the coefficients, the hash
coefficients, the relay's error (`protocol.draw_error`) and the four
noise masks (`protocol.noise_masks`, in `protocol.link_noise` order).
Everything derived is then computed once for the sub-batch on arrays: the
hash tables (`hashing.horner_tables`), both relay arms' payloads, and
each watcher's views of them as one row of words per trial
(`protocol.view_rows`).  Only the exhaustive_best adversary, which draws
nothing, builds a `Scenario` per trial to choose its error.  The score
step (`_score`) hands the tables and rows to one array kernel and sums
the tallies from its verdicts.  The trellis engine's kernel,
`watchdog.trellis_batch`, adds each score's terms in the order the scalar
`consistency_probability(build_trellis(...))` path does, so its scores
are that path's bit for bit; the algebraic engine's,
`watchdog.algebraic_batch`, counts survivors in integers, so its verdicts
are `algebraic_check`'s.

`run_trials` and `sweep` share one run path: their trials run as (cfg, lo,
hi) chunk jobs, read in order through the builtin `map` in this process,
or, once `workers` splits a config into chunks, through
`ProcessPoolExecutor.map` on the process's one pool.  `write_report` writes
the result as JSON or CSV to a file or to stdout.

The pool lives as long as the process.  The first pooled call starts it,
with min(workers, usable cores) worker processes (the chunk plan still
follows `workers`), and later calls of the same size reuse it; a call of
another size replaces it.  A call that fails shuts it down, so the next
one starts afresh; a call that finds it broken before reading any result
(a worker died while it sat idle) replaces it once and reruns.  Its
workers hold their own copy of this module, taken when the pool starts
(forked) or imported afresh (spawned): a change made here after the pool
started, such as a monkeypatch, never reaches them.  Idle workers stay
until the process exits, where the exit hook of `concurrent.futures`
joins them.  Pooled calls from several threads run one at a time.  A
process forked while the pool exists starts its own.  Only processes that
make repeated pooled calls gain; a one-shot CLI run still pays one
start-up.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from . import protocol, theory, watchdog
from .channel import BinarySymmetricChannel, radius_for_epsilon
from .gf2n import canonical_spec
from .hashing import HashFunction, horner_tables
# the draw step reads hash coefficients as plain ints; `sample_hash` stays
# importable here because the benchmark's tracer wraps `harness.sample_hash`
from .hashing import sample as sample_hash  # noqa: F401

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
    """One experiment's parameters.

    `threshold` is the trellis engine's acceptance threshold.  The score it
    is compared with is an unnormalized path-sum likelihood: the relay-side
    factor is the BSC likelihood p^k (1-p)^(n-k) of the overheard relay
    word, so what a given threshold means moves with n and p.  At n=8, h=3,
    p=0.1 a clean overhearing scores at most (1-p)^8 = 0.43 and one flipped
    bit about 0.048, so threshold 0.05 (seed 20, 400 trials) flags 357
    honest relays (gamma = 0.89).
    """

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
            strategy = self.strategy()
        except ValueError as exc:
            problems.append(f"adversary: {exc}")
        else:
            # the trial raises these too, but only once a run has started
            widest = protocol.EXHAUSTIVE_MAX_WIDTH
            if strategy.kind == "exhaustive_best" and self.n > widest:
                problems.append(f"adversary: exhaustive_best scans 2^n errors; n <= {widest} required")
            if strategy.kind == "fixed_error" and not (0 < strategy.error < 1 << self.n):
                problems.append(f"adversary: fixed error {strategy.error} not a nonzero {self.n}-bit word")
        src = self.sources
        if isinstance(src, dict):
            unknown = sorted(map(repr, set(src) - {"fixed"}))
            if unknown:
                problems.append(f"sources: unknown key(s) {', '.join(unknown)}")
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
            unknown = sorted(map(repr, set(adv) - {"kind", "error", "max_weight"}))
            if unknown:
                raise ValueError(f"unknown key(s) {', '.join(unknown)}")
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
        if not isinstance(data, dict):
            raise ConfigError(["config must be a JSON object"])
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


def _derive_seed(seed: int, trial: int, key: str) -> int:
    """The seed of one of a trial's streams: blake2b of the parts' reprs, each followed by a NUL."""
    data = f"{seed!r}\x00{trial!r}\x00{key!r}\x00".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


# a sub-batch holds at most this many trials and hash-table words
_BATCH_TRIALS = 256
_BATCH_WORDS = 1 << 16


def _channels(cfg: SimConfig) -> dict[str, BinarySymmetricChannel]:
    """The config's four links as a `Scenario`'s channel fields."""
    return {"chan_" + name[1:]: BinarySymmetricChannel(getattr(cfg, name)) for name in _EDGE_PROBS}


def _draw_batch(cfg: SimConfig, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """The draw step of one sub-batch of trials: (tables, words), the arrays its kernel reads.

    tables is the trials' (B, 2^n) uint16 hash tables and words their
    (B, 2, 5 + 2A) rows (`protocol.view_rows`): arm 0 is the honest
    relay's payload and, unless the strategy is honest, arm 1 the
    corrupting relay's.  Each trial only reads its two streams; everything
    derived from the draws is computed on arrays for the whole sub-batch.
    """
    spec = canonical_spec(cfg.n)
    order = spec.order
    chans = _channels(cfg)
    links = protocol.watcher_links(**chans)
    strategy = cfg.strategy()
    corrupt = strategy.kind != "honest"
    # exhaustive_best draws no error: it is chosen from the drawn scenario below
    drawn_error = corrupt and strategy.kind != "exhaustive_best"
    fixed = cfg.sources["fixed"] if isinstance(cfg.sources, dict) else None
    rng = random.Random()
    reseed, randrange = rng.seed, rng.randrange
    draw_error, noise_masks = protocol.draw_error, protocol.noise_masks
    seed, n, hash_coeffs = cfg.seed, cfg.n, range(cfg.d + 1)
    draws, noise = [], []
    for trial in trials:
        reseed(_derive_seed(seed, trial, "draw"))
        # x1, x2, a1, a2, the hash coefficients a_0..a_d, then the relay's error
        row = list(fixed) if fixed else [randrange(order), randrange(order)]
        row.append(randrange(1, order))
        row.append(randrange(1, order))
        for _ in hash_coeffs:
            row.append(randrange(order))
        if drawn_error:
            row.append(draw_error(strategy, spec, rng))
        draws.append(row)
        reseed(_derive_seed(seed, trial, "noise"))
        noise.append(noise_masks(links, n, rng))
    draws = np.array(draws, dtype=np.int64)
    sources, coeffs = draws[:, 0:2], draws[:, 2:4]
    tables = horner_tables(draws[:, 4 : 5 + cfg.d], spec, cfg.h)
    payloads = [spec.mul_words(coeffs[:, 0], sources[:, 0]) ^ spec.mul_words(coeffs[:, 1], sources[:, 1])]
    if drawn_error:
        payloads.append(payloads[0] ^ draws[:, -1])
    elif corrupt:
        payloads.append(_best_payloads(cfg, spec, chans, strategy, draws))
    return tables, protocol.view_rows(sources, coeffs, tables, np.stack(payloads, axis=1), noise)


def _best_payloads(cfg: SimConfig, spec, chans: dict, strategy: protocol.AdversaryStrategy, draws) -> list[int]:
    """exhaustive_best's relay payload for each row of draws, chosen from the trial's `Scenario`."""
    element = spec.element
    out = []
    for x1, x2, a1, a2, *hash_coeffs in draws.tolist():
        hf = HashFunction(tuple(map(element, hash_coeffs)), cfg.h)
        scn = protocol.Scenario(
            spec=spec, hf=hf, x1=element(x1), x2=element(x2), a1=element(a1), a2=element(a2),
            epsilon=cfg.epsilon, **chans,
        )
        # exhaustive_best reads no rng
        out.append(protocol.relay_output(scn, strategy, None).payload)
    return out


def _score(cfg: SimConfig, first: int, tables: np.ndarray, words: np.ndarray) -> tuple[int, int, int, int]:
    """The score step: summed tallies of trials `first`, `first` + 1, ... given their `_draw_batch`.

    Returns (honest_flagged, mal_passed_both, mal_passed_v1, mal_passed_v2).
    """
    spec = canonical_spec(cfg.n)
    links = protocol.watcher_links(**_channels(cfg))
    if cfg.engine == "trellis":
        accepted = watchdog.trellis_batch(spec, tables, words, links, cfg.epsilon, cfg.threshold)[0]
    else:
        accepted = watchdog.algebraic_batch(spec, tables, words, links, cfg.epsilon)[0]
    honest_passed = accepted[:, 0, 0] & accepted[:, 1, 0]
    noiseless = cfg.p12 == cfg.p21 == cfg.p31 == cfg.p32 == 0.0 and cfg.engine == "algebraic"
    if noiseless and not honest_passed.all():
        trial = first + int(np.argmin(honest_passed))
        raise AssertionError(f"honest relay flagged under noiseless channels (trial {trial})")
    flagged = len(honest_passed) - int(honest_passed.sum())
    if accepted.shape[2] == 1:
        return flagged, 0, 0, 0
    v1, v2 = accepted[:, 0, 1], accepted[:, 1, 1]
    return flagged, int((v1 & v2).sum()), int(v1.sum()), int(v2.sum())


def _run_chunk(job: tuple[SimConfig, int, int]) -> tuple[int, int, int, int]:
    """Summed tallies of trials lo..hi-1 of one config, given as the job (cfg, lo, hi).

    Trials are drawn and scored in sub-batches (see the module docstring).
    """
    cfg, lo, hi = job
    size = max(1, min(_BATCH_TRIALS, _BATCH_WORDS >> cfg.n))
    tallies = (0, 0, 0, 0)
    for first in range(lo, hi, size):
        tables, words = _draw_batch(cfg, range(first, min(first + size, hi)))
        tallies = tuple(a + b for a, b in zip(tallies, _score(cfg, first, tables, words)))
    return tallies


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Trial ranges for one config: one range below 2 * workers trials, else one per worker."""
    if workers == 1 or trials < 2 * workers:
        return [(0, trials)]
    bounds = [round(i * trials / workers) for i in range(workers + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# (pid, size, executor) of this process's pool, or None before the first pooled call
_pool: tuple[int, int, ProcessPoolExecutor] | None = None
# held through a pooled call, so no thread replaces or drops a pool another is using
_pool_lock = threading.Lock()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_of(size: int) -> ProcessPoolExecutor:
    """This process's pool of `size` workers, started if the slot holds none of that size."""
    global _pool
    pid = os.getpid()
    if _pool is not None and _pool[:2] == (pid, size):
        return _pool[2]
    _drop_pool()
    ex = ProcessPoolExecutor(max_workers=size)
    _pool = (pid, size, ex)
    return ex


def _drop_pool() -> None:
    """Empty the slot, shutting its pool down, pending jobs cancelled, if this process started it.

    A forked child's slot holds its parent's pool, whose manager thread the
    child lacks; the child leaves that pool to the parent.
    """
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(cancel_futures=True)
    _pool = None


def _pooled(jobs: list, size: int):
    """The jobs' results, in order, from the process's pool of `size` workers.

    A pool found broken before the first result is read broke before this
    call could have caused it (a worker killed while the pool sat idle), so
    it is replaced once and the jobs resubmitted; they are pure, so the
    results are the same.
    """
    try:
        parts = _pool_of(size).map(_run_chunk, jobs)
        first = next(parts)
    except BrokenProcessPool:
        _drop_pool()
        parts = _pool_of(size).map(_run_chunk, jobs)
        first = next(parts)
    return itertools.chain([first], parts)


def _tally(cfgs: list[SimConfig], workers: int) -> list[tuple[tuple[int, int, int, int], float]]:
    """Each config's summed tallies, with the wall seconds since the previous config's finished.

    Every config becomes one or more (cfg, lo, hi) chunk jobs.  If any config
    is split into several, all jobs of all configs go to the process's pool
    (see the module docstring), so a sweep uses one pool however many points
    it has; otherwise the jobs run one after another in this process.  Either
    way the results come back in job order and each config's chunks are
    summed as they arrive.  If a pooled call fails in any way (a job raises,
    a worker dies, an interrupt), the pool is shut down before the error
    propagates, and the next pooled call starts a new one; a pool that
    broke before the call began is replaced instead (see `_pooled`).
    """
    if not protocol.is_int(workers):
        raise ConfigError([f"workers={workers!r} is not an integer"])
    if workers < 1:
        raise ConfigError([f"workers={workers} < 1"])
    plans = [_chunks(cfg.trials, workers) for cfg in cfgs]
    jobs = [(cfg, lo, hi) for cfg, plan in zip(cfgs, plans) for lo, hi in plan]
    pooled = len(jobs) > len(cfgs)
    out = []
    start = time.perf_counter()
    with _pool_lock if pooled else contextlib.nullcontext():
        try:
            parts = _pooled(jobs, min(workers, _usable_cores())) if pooled else map(_run_chunk, jobs)
            for plan in plans:
                tallies = tuple(sum(col) for col in zip(*itertools.islice(parts, len(plan))))
                now = time.perf_counter()
                out.append((tallies, now - start))
                start = now
        except BaseException:
            if pooled:
                _drop_pool()
            raise
    return out


def run_trials(cfg: SimConfig, workers: int = 1) -> SimReport:
    """Run the configured experiment and aggregate tallies into a report."""
    cfg.validate()
    [(tallies, wall)] = _tally([cfg], workers)
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
        "gamma_bound_conservative": float(pred.gamma_bound_conservative),
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


def sweep(base: SimConfig, axis: str, values, workers: int = 1) -> list[SimReport]:
    """One run per value of a numeric config field.

    Point i runs at seed `base.seed ^ i`, except on the `seed` axis, where
    each point runs at the seed it names.
    Every point is validated before any trial runs, and all points share the
    process's one pool.  A point's `wall_time_s` is the wall time from the
    moment the previous point finished (for the first point, the start of
    the sweep) until its own last chunk finished; the first point's time
    includes pool start-up only when this call starts the pool.  With
    workers > 1 a point's chunks may have started while earlier points ran.
    """
    if axis not in _NUMERIC_FIELDS:
        raise ConfigError([f"axis {axis!r} is not a numeric config field"])
    # the axis value comes last, so on the seed axis it replaces the derived seed
    cfgs = [replace(base, **{"seed": base.seed ^ i, axis: v}) for i, v in enumerate(values)]
    for cfg in cfgs:
        cfg.validate()
    tallied = _tally(cfgs, workers)
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


def write_report(rep: SimReport | list[SimReport], path: str | None = None, format: str = "json") -> None:
    """Write the report(s) as JSON or CSV to the file at `path`, or to stdout if no path is given."""
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    reports = [rep] if isinstance(rep, SimReport) else list(rep)
    try:
        # newline="": the csv module writes its own \r\n row ends
        with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as f:
            if format == "json":
                f.write(report_json(rep))
            else:
                w = csv.writer(f)
                w.writerow(CSV_COLUMNS)
                for r in reports:
                    w.writerow(_csv_row(r))
    except OSError as exc:
        raise IOError(f"cannot write report to {path or 'stdout'}: {exc}") from exc
