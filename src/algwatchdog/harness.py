"""Monte Carlo experiment runner and report plumbing.

Each trial draws fresh sources, coefficients, and a hash function, runs the
relay both honestly and under the configured corruption strategy, and asks
both watchers for a verdict.  Both arms share one channel realization (common
random numbers), drawn once per trial: the corrupted payload picks up the
error patterns the honest one did.  Per-trial randomness is keyed by (seed,
trial index), so tallies are bit-identical for any worker count.

A job's trials are drawn in blocks of up to 256 trials (`_BATCH_TRIALS`),
and each block's hash tables are built and scored in sub-batches of B =
max(1, min(256, `_TABLE_WORDS` >> n)) rows, where the word cap is 2^18 for
the algebraic engine and 2^16 for the trellis engine, whose kernel scans
every table word: B is 256 up to n = 10 and 4 at n = 16 for the algebraic
engine, 256 up to n = 8 and 16 at n = 12 for the trellis engine.  The block
bounds what a job holds at small n, where B is never the limit: a
20,000-trial trellis chunk at n = 2 peaks at 0.31 MB (tracemalloc) in
256-trial blocks and at 18 MB drawn in one.  A job's chunks are cut into
blocks in order, and consecutive chunks whose configs differ only in h, seed
and trials share them, so a block is a list of (cfg, trials) segments.

Per trial, the draw step (`_draw_batch`) derives two seeds by blake2b,
reseeds one `random.Random` with each through the C seed, and reads the two
streams as MT19937 32-bit words, appended to one flat list per block.  Per
block, on arrays: the draws array (that list reshaped once), the noise
masks (`channel.masks_from_words`), the hash widths and the payloads, then
the score step (`_score`) sums each segment's tallies.  Per sub-batch: the
hash tables (`hashing.hash_tables`, in the log domain, each row cut to its
segment's h), the errors of the exhaustive_best adversary, which draws none
(`protocol.best_errors`), each watcher's views as one row of words per
trial (`protocol.view_rows`), and one array kernel: `watchdog.trellis_batch`
compares the trellis path-sum with the threshold, and
`watchdog.algebraic_batch` applies the paper's empty-intersection rule at
each watcher's (peer, relay) radii, in one pass per distinct peer radius.
Each trial is keyed by (seed, trial index), so neither size moves a draw or
a tally.  The radii are selected once for each group of chunks that share
blocks, with the group's links and strategy.

`run_trials` and `sweep` share one run path and one plan: their trials run as
(cfg, lo, hi) chunks, job k holds chunk k of every config, and the jobs'
results are read in order.  Serially each config is one chunk, and the one
job runs through the builtin `map` in this process.  With workers > 1 and a
config of 2 * workers trials or more, the call pools: every config is cut
into `workers` near-equal chunks, and the `workers` jobs go through
`ProcessPoolExecutor.map` on the process's one pool, however many points a
sweep has.  `write_report` writes the result to a file or to stdout as JSON,
or as CSV: one column per leaf of the JSON document, named by its dotted path
(`config.n`, `per_watcher.beta_v1.count`).  Both serialize `SimReport.to_dict`,
which rounds the report's fields straight into fresh containers.  Each fact
is one leaf, and `config.adversary` is always an object: its kind and the
fields that kind uses.  Every `predicted` bound is about the algebraic
engine's radius rule, so a trellis report claims none (null); `radii` is
written for both engines, as exhaustive_best chooses its error by them.

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
joins them; this module's own exit hook then drops the pool.  Pooled calls
from several threads run one at a time.  A process forked while the pool
exists starts its own.  Only processes that make repeated pooled calls
gain; a one-shot CLI run still pays one start-up.  `concurrent.futures` is
imported by the first pooled call, so a serial run never loads it.
"""

from __future__ import annotations

import atexit
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, replace
from hashlib import blake2b
from typing import TYPE_CHECKING

import numpy as np

from . import protocol, theory, watchdog
from .channel import BinarySymmetricChannel, masks_from_words, radius_for_epsilon, stream_bytes
from .gf2n import canonical_spec
from .hashing import hash_tables
# the draw step reads hash coefficients as plain ints; `sample_hash` stays
# importable here because the benchmark's tracer wraps `harness.sample_hash`
from .hashing import sample as sample_hash  # noqa: F401

if TYPE_CHECKING:
    # imported where a call pools (`_pool_of`, `_pooled`), so a serial run never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

_EDGE_PROBS = ("p12", "p21", "p31", "p32")
_INT_FIELDS = ("n", "h", "d", "trials", "seed")
_FLOAT_FIELDS = (*_EDGE_PROBS, "epsilon", "threshold")
_NUMERIC_FIELDS = _INT_FIELDS + _FLOAT_FIELDS
_ADVERSARY_KEYS = tuple(f.name for f in dataclasses.fields(protocol.AdversaryStrategy))


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
            unknown = sorted(map(repr, set(adv) - set(_ADVERSARY_KEYS)))
            if unknown:
                raise ValueError(f"unknown key(s) {', '.join(unknown)}")
            return protocol.AdversaryStrategy(
                adv.get("kind", ""),
                error=adv.get("error"),
                max_weight=adv.get("max_weight"),
            )
        raise ValueError(f"unrecognized adversary {adv!r}")

    def to_dict(self) -> dict:
        """The fields in order, in fresh containers; `adversary` is its kind and only the fields that kind uses."""
        doc = {f.name: getattr(self, f.name) for f in _CONFIG_FIELDS}
        strategy = self.strategy()
        doc["adversary"] = {k: v for k in _ADVERSARY_KEYS if (v := getattr(strategy, k)) is not None}
        if isinstance(self.sources, dict):
            doc["sources"] = {"fixed": list(self.sources["fixed"])}
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ConfigError(["config must be a JSON object"])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError([f"unknown field {u!r}" for u in unknown])
        return cls(**data)


_CONFIG_FIELDS = dataclasses.fields(SimConfig)


@dataclass
class SimReport:
    config: dict
    radii: dict
    predicted: dict
    gamma: dict
    beta: dict | None
    per_watcher: dict | None
    wall_time_s: float

    def to_dict(self) -> dict:
        """The document `report_json` and `write_report` serialize: floats rounded to 12 significant digits.

        `_round_floats` returns fresh containers, so the report's own are never shared and need no deep copy first.
        """
        return {f.name: _round_floats(getattr(self, f.name)) for f in _REPORT_FIELDS}


_REPORT_FIELDS = dataclasses.fields(SimReport)


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


def _derive_seeds(seed: int, trials, key: str) -> list[int]:
    """The seeds of one of the trials' streams: blake2b of the parts' reprs, each followed by a NUL.

    The parts around the trial index are encoded once per call, and the
    hash state fed the seed's part is copied for each trial: blake2b
    streams its input, so the digests are those of the whole message.
    """
    head, tail = blake2b(f"{seed!r}\x00".encode(), digest_size=8), f"\x00{key!r}\x00".encode()
    seeds = []
    for t in trials:
        state = head.copy()
        state.update(b"%d%b" % (t, tail))
        seeds.append(int.from_bytes(state.digest(), "little"))
    return seeds


# a block draws at most this many trials, and a sub-batch of its rows holds at most this many hash-table
# words; the trellis kernel scans every table word, the algebraic one a ball per trial, and at n = 16
# algebraic sub-batches of 4 trials ran ≈1.4x as fast as 1 with peak RSS unchanged (ROADMAP item 15)
_BATCH_TRIALS = 256
_TABLE_WORDS = {"algebraic": 1 << 18, "trellis": 1 << 16}
_shared = operator.attrgetter(*(f.name for f in _CONFIG_FIELDS if f.name not in ("h", "seed", "trials")))


def _channels(cfg: SimConfig) -> dict[str, BinarySymmetricChannel]:
    """The config's four links as a `Scenario`'s channel fields."""
    return {"chan_" + name[1:]: BinarySymmetricChannel(getattr(cfg, name)) for name in _EDGE_PROBS}


def _draw_batch(
    segments: list[tuple[SimConfig, range]], links: list, radii: list, strategy: protocol.AdversaryStrategy,
    rng: random.Random,
):
    """The draw step of one block of trials: a generator of the (tables, words) its kernel reads, one per sub-batch.

    The block is (cfg, trials) segments whose configs differ at most in h,
    seed and trials; its draws all run at the first `next`.  Each trial
    only reads its two streams, keyed by its segment's seed and its index
    there, as MT19937 32-bit words.  The draw stream gives, by
    `protocol.draws_below`, what randrange would: the sources, the
    coefficients, the hash coefficients a_0..a_d, then the relay's error
    (`protocol.draw_error`).  The noise stream gives each link with p > 0,
    in `watcher_links` order, the 2n words of its n `random()` calls, read
    with one getrandbits call; a link with p = 0 draws nothing, and with no
    such link the stream is not seeded.  `rng` is reseeded for each stream
    through the C seed `Random.seed` calls for an int, which skips its
    Python-level type checks, so it carries nothing between blocks.  The
    noise masks, widths and payloads are computed once for the block.  Each
    sub-batch of B = max(1, `_TABLE_WORDS`[engine] >> n) rows then gets its
    (B, 2^n) uint16 hash tables, each cut to its segment's h, and its
    (B, 2, 5 + 2A) rows (`protocol.view_rows`): arm 0 is the honest relay's
    payload and, unless the strategy is honest, arm 1 the corrupting
    relay's (exhaustive_best's error is `protocol.best_errors`' at the
    radii, chosen from the sub-batch's tables).  Blocks bound memory at
    small n, sub-batches at large n (see the module docstring).
    """
    cfg = segments[0][0]
    spec = canonical_spec(cfg.n)
    order, n = spec.order, cfg.n
    corrupt = strategy.kind != "honest"
    # exhaustive_best draws no error: it is chosen from each sub-batch's tables below
    chosen = strategy.kind == "exhaustive_best"
    drawn_error = corrupt and not chosen
    fixed = list(cfg.sources["fixed"]) if isinstance(cfg.sources, dict) else []
    # x1 and x2 unless fixed, a1 - 1 and a2 - 1 (randrange(1, order)), then a_0..a_d
    bounds = [order] * (2 - len(fixed)) + [order - 1] * 2 + [order] * (cfg.d + 1)
    reseed, draws_below, draw_error = super(random.Random, rng).seed, protocol.draws_below, protocol.draw_error
    draws = []
    for seed in (s for c, trials in segments for s in _derive_seeds(c.seed, trials, "draw")):
        reseed(seed)
        draws += fixed
        draws += draws_below(rng, bounds)
        if drawn_error:
            draws.append(draw_error(strategy, spec, rng))
    draws = np.array(draws, dtype=np.int64).reshape(-1, len(fixed) + len(bounds) + drawn_error)
    draws[:, 2:4] += 1
    probs = [chan.p for link in links for chan in link]
    live = [i for i, p in enumerate(probs) if p > 0.0]
    noise = np.zeros((len(draws), 4), dtype=np.int64)
    if live:
        streams = []
        for seed in (s for c, trials in segments for s in _derive_seeds(c.seed, trials, "noise")):
            reseed(seed)
            streams.append(stream_bytes(rng, 2 * n * len(live)))
        words = np.frombuffer(b"".join(streams), dtype="<u4").reshape(len(draws), len(live), n, 2)
        noise[:, live] = masks_from_words(words, [probs[i] for i in live])
    noise = noise.reshape(-1, 2, 2)
    sources, coeffs = draws[:, 0:2], draws[:, 2:4]
    # ndarray.repeat: np.repeat of lists took ≈15 µs a call in this step, against ≈3 µs (2-core x86_64 VM)
    widths = np.array([c.h for c, _ in segments]).repeat([len(trials) for _, trials in segments])
    honest = spec.mul_words(coeffs[:, 0], sources[:, 0]) ^ spec.mul_words(coeffs[:, 1], sources[:, 1])
    payloads = np.stack([honest, honest ^ draws[:, -1]] if drawn_error else [honest], axis=1)
    size = max(1, _TABLE_WORDS[cfg.engine] >> n)
    for lo in range(0, len(draws), size):
        part = slice(lo, lo + size)
        tables = hash_tables(draws[part, 4 : 5 + cfg.d], spec, widths[part])
        arms = payloads[part]
        if chosen:
            error = protocol.best_errors(spec, tables, sources[part], coeffs[part], radii)
            arms = np.column_stack((arms[:, 0], arms[:, 0] ^ error))
        yield tables, protocol.view_rows(sources[part], coeffs[part], tables, arms, noise[part])


def _score(segments: list, views, links: list, radii: list) -> list[tuple[int, int, int, int]]:
    """The score step: each segment's summed tallies, given the block's `_draw_batch` sub-batches.

    Each sub-batch goes to the engine's kernel, and the block's verdicts are tallied at once.
    A tally is (honest_flagged, mal_passed_both, mal_passed_v1, mal_passed_v2);
    the noiseless self-check names a flagged trial by its point's h and seed and its index there.
    """
    cfg = segments[0][0]
    spec = canonical_spec(cfg.n)
    accepted = np.concatenate([
        watchdog.trellis_batch(spec, tables, words, links, cfg.threshold)[0] if cfg.engine == "trellis"
        else watchdog.algebraic_batch(spec, tables, words, radii)[0]
        for tables, words in views
    ])
    honest_passed = accepted[:, 0, 0] & accepted[:, 1, 0]
    noiseless = cfg.p12 == cfg.p21 == cfg.p31 == cfg.p32 == 0.0 and cfg.engine == "algebraic"
    if noiseless and not honest_passed.all():
        c, t = [(c, t) for c, trials in segments for t in trials][int(np.argmin(honest_passed))]
        raise AssertionError(f"honest relay flagged under noiseless channels (h={c.h}, seed={c.seed}, trial {t})")
    # the corrupted arm's verdicts; an honest run has none, so it passes no malicious relay
    v1, v2 = accepted[:, :, 1].T if accepted.shape[2] > 1 else (np.zeros(len(accepted), dtype=bool),) * 2
    columns = (~honest_passed, v1 & v2, v1, v2)
    bounds = itertools.pairwise(itertools.accumulate((len(trials) for _, trials in segments), initial=0))
    return [tuple(int(np.count_nonzero(column[lo:hi])) for column in columns) for lo, hi in bounds]


def _blocks(chunks, size: int):
    """(k, (cfg, lo, hi)) chunks cut, in order, into blocks: lists of (k, cfg, trials) of `size` trials at most."""
    block, room = [], size
    for k, (cfg, lo, hi) in chunks:
        while lo < hi:
            take = min(room, hi - lo)
            block.append((k, cfg, range(lo, lo + take)))
            lo, room = lo + take, room - take
            if not room:
                yield block
                block, room = [], size
    if block:
        yield block


def _run_chunks(job: list[tuple[SimConfig, int, int]]) -> list[tuple[int, int, int, int]]:
    """For each (cfg, lo, hi) chunk of the job, in order, the summed tallies of trials lo..hi-1 of cfg.

    Consecutive chunks differing only in h, seed and trials share blocks and one build of links and strategy.
    """
    # reseeded for every stream it gives; an int seeds it faster than the OS entropy Random() reads
    rng = random.Random(0)
    sums = [(0, 0, 0, 0)] * len(job)
    for _, chunks in itertools.groupby(enumerate(job), lambda chunk: _shared(chunk[1][0])):
        chunks = list(chunks)
        cfg = chunks[0][1][0]
        links, strategy = protocol.watcher_links(**_channels(cfg)), cfg.strategy()
        # read by the algebraic kernel and by exhaustive_best
        radii = protocol.watcher_radii(links, cfg.n, cfg.epsilon)
        for block in _blocks(chunks, _BATCH_TRIALS):
            segments = [(c, trials) for _, c, trials in block]
            views = _draw_batch(segments, links, radii, strategy, rng)
            for (k, _, _), part in zip(block, _score(segments, views, links, radii)):
                sums[k] = tuple(a + b for a, b in zip(sums[k], part))
    return sums


def _chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Trial ranges for one config: `workers` near-equal ranges, the empty ones dropped."""
    bounds = [round(i * trials / workers) for i in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]


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
    from concurrent.futures import ProcessPoolExecutor

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


# runs after `concurrent.futures` joins the workers; a pool left in the slot until module teardown
# would be collected after the pool modules, imported later than this one, were cleared, and its
# weakref callback would fail on the cleared `multiprocessing` name
atexit.register(_drop_pool)


def _pooled(jobs: list, size: int):
    """The jobs' results, in order, from the process's pool of `size` workers.

    A pool found broken before the first result is read broke before this
    call could have caused it (a worker killed while the pool sat idle), so
    it is replaced once and the jobs resubmitted; they are pure, so the
    results are the same.
    """
    from concurrent.futures.process import BrokenProcessPool

    try:
        parts = _pool_of(size).map(_run_chunks, jobs)
        first = next(parts)
    except BrokenProcessPool:
        _drop_pool()
        parts = _pool_of(size).map(_run_chunks, jobs)
        first = next(parts)
    return itertools.chain([first], parts)


def _tally(cfgs: list[SimConfig], workers: int) -> list[tuple[tuple[int, int, int, int], float]]:
    """Each config's summed tallies with a wall time: the call's for the first config, 0.0 for the others.

    Job k holds chunk k of every config, serially and pooled alike.  Serially
    each config is one chunk, and the one job runs in this process; if
    workers > 1 and a config has 2 * workers trials or more, the `workers`
    jobs go to the process's pool (see the module docstring).  If a pooled
    call fails in any way (a job raises, a worker dies, an interrupt), the
    pool is shut down before the error propagates, and the next pooled call
    starts a new one; a pool that broke before the call began is replaced
    instead (see `_pooled`).
    """
    if not protocol.is_int(workers):
        raise ConfigError([f"workers={workers!r} is not an integer"])
    if workers < 1:
        raise ConfigError([f"workers={workers} < 1"])
    pooled = workers > 1 and any(cfg.trials >= 2 * workers for cfg in cfgs)
    plans = [[(i, lo, hi) for lo, hi in _chunks(cfg.trials, workers if pooled else 1)] for i, cfg in enumerate(cfgs)]
    # job k holds chunk k of every config that has one; serially, the one job holds every config
    shares = [[c for c in share if c] for share in itertools.zip_longest(*plans)]
    jobs = [[(cfgs[i], lo, hi) for i, lo, hi in share] for share in shares]
    sums = [(0, 0, 0, 0)] * len(cfgs)
    start = time.perf_counter()
    with _pool_lock if pooled else contextlib.nullcontext():
        try:
            parts = _pooled(jobs, min(workers, _usable_cores())) if pooled else map(_run_chunks, jobs)
            for share, tallies in zip(shares, parts):
                for (i, _, _), part in zip(share, tallies):
                    sums[i] = tuple(a + b for a, b in zip(sums[i], part))
        except BaseException:
            if pooled:
                _drop_pool()
            raise
    return list(zip(sums, [time.perf_counter() - start] + [0.0] * (len(cfgs) - 1)))


def run_trials(cfg: SimConfig, workers: int = 1) -> SimReport:
    """Run the configured experiment and aggregate tallies into a report."""
    cfg.validate()
    [(tallies, wall)] = _tally([cfg], workers)
    return _report(cfg, tallies, wall)


def _report(cfg: SimConfig, tallies: tuple[int, int, int, int], wall: float) -> SimReport:
    flagged, passed_both, passed_v1, passed_v2 = tallies
    config = cfg.to_dict()
    kind = config["adversary"]["kind"]
    radii = {"r" + name[1:]: radius_for_epsilon(cfg.n, getattr(cfg, name), cfg.epsilon).r for name in _EDGE_PROBS}
    predicted = dict.fromkeys(("gamma_bound", "gamma_bound_conservative", "beta", "beta_v1", "beta_v2"))
    # every bound is about the algebraic engine's radius rule; the beta bounds hold only
    # for this adversary and d >= 2 (see theory)
    if cfg.engine == "algebraic":
        pred = theory.predict(theory.TheoryParams(cfg.n, cfg.h, **radii), cfg.epsilon)
        predicted["gamma_bound"] = float(theory.gamma_bound(cfg.epsilon))
        predicted["gamma_bound_conservative"] = float(pred.gamma_bound_conservative)
        if kind == "random_nonzero_error" and cfg.d >= 2:
            predicted.update((key, float(getattr(pred, key))) for key in ("beta", "beta_v1", "beta_v2"))

    def rate(count: int) -> dict:
        low, high = wilson_interval(count, cfg.trials)
        return {
            "count": count,
            "trials": cfg.trials,
            "estimate": count / cfg.trials,
            "wilson_low": low,
            "wilson_high": high,
        }

    measured = kind != "honest"
    return SimReport(
        config=config,
        radii=radii,
        predicted=predicted,
        gamma=rate(flagged),
        beta=rate(passed_both) if measured else None,
        per_watcher={"beta_v1": rate(passed_v1), "beta_v2": rate(passed_v2)} if measured else None,
        wall_time_s=wall,
    )


def sweep(base: SimConfig, axis: str, values, workers: int = 1) -> list[SimReport]:
    """One run per value of a numeric config field.

    Point i runs at seed `base.seed ^ i`, except on the `seed` axis, where
    each point runs at the seed it names.  An empty `values` is a ConfigError.
    Every point is validated before any trial runs, and all points share the
    process's one pool.  The points run together, so the first point's
    `wall_time_s` is the sweep's wall time, including pool start-up only
    when this call starts the pool, and later points read 0.0.
    """
    if axis not in _NUMERIC_FIELDS:
        raise ConfigError([f"axis {axis!r} is not a numeric config field"])
    # the axis value comes last, so on the seed axis it replaces the derived seed
    cfgs = [replace(base, **{"seed": base.seed ^ i, axis: v}) for i, v in enumerate(values)]
    if not cfgs:
        raise ConfigError(["values: holds no value, so the sweep has no point"])
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
    doc = rep.to_dict() if isinstance(rep, SimReport) else {"reports": [r.to_dict() for r in rep]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _leaves(obj, path: str = ""):
    """(dotted path, cell) for each leaf of a report document, in document order.

    A list leaf's cell is its JSON text; a null stays None, which `csv` writes as an empty cell.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, json.dumps(obj) if isinstance(obj, list) else obj


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
                rows = [dict(_leaves(r.to_dict())) for r in reports]
                # one header for every report: the union of their paths, a path a report lacks left empty
                w = csv.DictWriter(f, list(dict.fromkeys(key for row in rows for key in row)), restval="")
                w.writeheader()
                w.writerows(rows)
    except OSError as exc:
        raise IOError(f"cannot write report to {path or 'stdout'}: {exc}") from exc
