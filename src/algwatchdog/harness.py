"""Monte Carlo experiment runner and report plumbing.

Each trial draws fresh sources, coefficients, and a hash function, runs the
relay both honestly and under the configured corruption strategy, and asks
both watchers for a verdict.  Both arms share one channel realization (common
random numbers), drawn once per trial: the corrupted payload picks up the
error patterns the honest one did.  Per-trial randomness is keyed by (seed,
trial index), so tallies are bit-identical for any worker count.

A job's trials are drawn in blocks of up to 256 trials (`_BATCH_TRIALS`),
and each block's hash tables are built and scored in sub-batches of B =
max(1, min(256, `_TABLE_WORDS` >> n)) rows: the block bounds what a job holds
at small n, B at large n (figures in the comment above `_BATCH_TRIALS`).  A
job's chunks are cut into blocks in order, and consecutive chunks whose
configs differ only in h, seed and trials share them, so a block is a list of
(cfg, trials) segments.

The draw step (`_draw_batch`) derives each trial's two seeds by blake2b, and
one loop (`protocol.draws_below`) reseeds a `random.Random` through the C seed
for each and reads the two streams as MT19937 32-bit words; the rest of the
step and each sub-batch's kernel (`watchdog.trellis_batch` or
`watchdog.algebraic_batch`) work on arrays, and the score step (`_score`)
sums each segment's tallies.  Each trial is keyed by (seed, trial index), so
neither size moves a draw or a tally.  The radii are selected once for each
group of chunks that share blocks.

`run_trials` and `sweep` share one run path and one plan: their trials run as
(cfg, lo, hi) chunks, job k holds chunk k of every config, and the jobs'
results are read in order.  Serially each config is one chunk, and the one
job runs through the builtin `map` in this process.  With S = min(workers,
usable cores) > 1 and a config of 2S trials or more, the call pools: every
config is cut into S near-equal chunks, and job k runs on process k of the
one pool of S processes counting the caller, one job each.  `write_report`
writes the result to a file or to stdout as JSON, or as CSV: one column per
leaf of the JSON document, named by its dotted path (`config.n`,
`per_watcher.beta_v1.count`).  Either form walks the report's fields and
rounds each float by one rule (`_round`); a list leaf is one CSV cell, its
compact JSON.  Each fact is one leaf, and `config.adversary` is always an
object: its kind and the fields that kind uses.  Every `predicted` bound is
about the algebraic engine's radius rule, so a trellis report claims none
(null); `radii` is written for both engines, as exhaustive_best chooses its
error by them.

The pool is the calling process and S - 1 workers, each serving jobs over
its own `multiprocessing.Pipe`: a pooled call sends each worker its one job,
runs job 0, then reads each worker's tallies or exception in job order.  It
lives until the process ends, a call needs another size, or a call fails (a
job raises, a worker dies, an interrupt); a worker that died while the pool
sat idle is found before the jobs go out, and the pool is replaced once.
Workers are forked (or spawned) as the pool starts, so a later change here,
such as a monkeypatch, reaches only the caller's share.  They are stopped as
the process ends, by multiprocessing's exit hook, and each closes the pipe
ends it inherits, so it ends with the caller even if that is killed.  A
process forked while the pool exists forgets it (`_forget_pool`) and starts
its own, and pooled calls from several threads run one at a time.  A serial
run never imports multiprocessing.
"""

from __future__ import annotations

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
from json.encoder import encode_basestring_ascii

import numpy as np

from . import protocol, theory, watchdog
from .channel import BinarySymmetricChannel, masks_from_words, radius_for_epsilon
from .gf2n import canonical_spec
from .hashing import hash_tables
# the draw step reads hash coefficients as plain ints; `sample_hash` stays
# importable here because the benchmark's tracer wraps `harness.sample_hash`
from .hashing import sample as sample_hash  # noqa: F401

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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; better behaved than the normal approximation
    for the small probabilities this harness measures."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
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
# algebraic sub-batches of 4 trials ran ≈1.4x as fast as 1 with peak RSS unchanged (ROADMAP item 15).
# So B is 256 trials up to n = 10, 64 at n = 12 and 4 at n = 16 for the algebraic engine, and 256 up to
# n = 8 and 16 at n = 12 for the trellis engine.  The block keeps memory flat at small n: a 20,000-trial
# trellis run at n = 2 (h = 1, d = 3, p = 0.1, seed 1) peaks at 0.30 MB (tracemalloc, after a warm-up
# call) in 256-trial blocks, against 17.3 MB drawn in one block
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

    The block is (cfg, trials) segments whose configs differ at most in h, seed and trials; its draws all run at
    the first `next`, in one `protocol.draws_below` call that reseeds `rng` for each of a trial's two streams, keyed
    by its segment's seed and its index there.  The draw stream gives what randrange would: the sources, the
    coefficients, the hash coefficients a_0..a_d, then the relay's error as `draw_error` draws it, unless it is fixed
    or chosen.  The noise stream gives each link with p > 0, in `watcher_links` order, the 2n words of its n
    `random()` calls; with no such link it is not seeded.  Each sub-batch of B = max(1, `_TABLE_WORDS`[engine] >> n)
    rows then gets its (B, 2^n) uint16 hash tables, each cut to its segment's h, and its (B, 2, 5 + 2A) rows
    (`protocol.view_rows`): arm 0 is the honest relay's payload and, unless the strategy is honest, arm 1 the
    corrupting relay's (exhaustive_best's error is `protocol.best_errors`' at the radii).
    """
    cfg = segments[0][0]
    spec = canonical_spec(cfg.n)
    order, n = spec.order, cfg.n
    # exhaustive_best draws no error: it is chosen from each sub-batch's tables below
    chosen = strategy.kind == "exhaustive_best"
    read_error = strategy.kind in ("random_nonzero_error", "weight_bounded_error")
    fixed = list(cfg.sources["fixed"]) if isinstance(cfg.sources, dict) else []
    # x1 and x2 unless fixed, a1 - 1 and a2 - 1 (randrange(1, order)), a_0..a_d, then a read error less one
    bounds = [order] * (2 - len(fixed)) + [order - 1] * 2 + [order] * (cfg.d + 1) + [order - 1] * read_error
    probs = [chan.p for link in links for chan in link]
    live = [i for i, p in enumerate(probs) if p > 0.0]
    seeds = itertools.chain.from_iterable(
        zip(_derive_seeds(c.seed, trials, "draw"), _derive_seeds(c.seed, trials, "noise")) for c, trials in segments
    )
    draws, words = protocol.draws_below(rng, bounds, seeds, strategy.max_weight, 2 * n * len(live))
    draws = np.array(draws, dtype=np.int64).reshape(-1, len(bounds))
    if fixed:
        draws = np.column_stack((np.tile(fixed, (len(draws), 1)), draws))
    draws[:, 2:4] += 1
    noise = np.zeros((len(draws), 4), dtype=np.int64)
    if live:
        words = np.frombuffer(words, dtype="<u4").reshape(len(draws), len(live), n, 2)
        noise[:, live] = masks_from_words(words, [probs[i] for i in live])
    noise = noise.reshape(-1, 2, 2)
    sources, coeffs = draws[:, 0:2], draws[:, 2:4]
    # ndarray.repeat: np.repeat of lists took ≈15 µs a call in this step, against ≈3 µs (2-core x86_64 VM)
    widths = np.array([c.h for c, _ in segments]).repeat([len(trials) for _, trials in segments])
    honest = spec.mul_words(coeffs[:, 0], sources[:, 0]) ^ spec.mul_words(coeffs[:, 1], sources[:, 1])
    # the corrupting arm's error: read (less one), fixed_error's, or none yet
    error = draws[:, -1] + 1 if read_error else strategy.error
    payloads = np.stack([honest] if error is None else [honest, honest ^ error], axis=1)
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


def _chunks(trials: int, size: int) -> list[tuple[int, int]]:
    """Trial ranges for one config: `size` near-equal ranges, one per process of the pool, the empty ones dropped."""
    bounds = [round(i * trials / size) for i in range(size + 1)]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]


# (pid, size, [(process, pipe end) of workers 1..size-1], exit hook) of this process's pool, or None until one starts
_pool: tuple | None = None
# held through a pooled call, so no thread replaces or drops a pool another is using
_pool_lock = threading.Lock()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(conn, inherited: list) -> None:
    """A worker: closes the caller's pipe ends a fork copied in, then sends back each job's tallies or exception."""
    for end in inherited:
        end.close()
    with contextlib.suppress(EOFError, OSError):  # the caller closed the pipe
        for job in iter(conn.recv, None):
            try:
                reply = _run_chunks(job)
            except Exception as exc:  # raised by the caller
                reply = exc
            conn.send(reply)


def _pool_of(size: int) -> list:
    """The workers of this process's pool of `size` processes, started anew unless the slot holds them all alive."""
    global _pool
    pid = os.getpid()
    if _pool is not None and _pool[:2] == (pid, size) and all(proc.is_alive() for proc, _ in _pool[2]):
        return _pool[2]
    import multiprocessing
    from multiprocessing.util import Finalize

    _drop_pool()
    # filled as the workers start, so a failed start stops those started; multiprocessing's exit hook (at this process's
    # exit, or a multiprocessing child's end) runs the Finalize before it joins live children, which wait for jobs
    _pool = (pid, size, workers := [], Finalize(None, _drop_pool, exitpriority=0))
    for _ in range(size - 1):
        end, child = multiprocessing.Pipe()
        proc = multiprocessing.Process(target=_serve, args=(child, [end, *(e for _, e in workers)]))
        proc.start()
        child.close()
        workers.append((proc, end))
    return workers


def _drop_pool() -> None:
    """Empty the slot, stopping and reaping its workers if this process started them (a forked child leaves them)."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[0] == os.getpid():
        pool[3].cancel()
        for proc, _ in pool[2]:
            proc.terminate()
            proc.join()


def _forget_pool() -> None:
    """In a forked child: forget the parent's pool, whose workers the child's exit hook would fail to join."""
    global _pool
    if _pool is not None:
        from multiprocessing import process
        process._children.difference_update(proc for proc, _ in _pool[2])
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled(jobs: list) -> list:
    """The jobs' results, in order, from the process's pool of `len(jobs)` processes: job k runs on process k.

    Process 0, this one, runs job 0 once every worker has been sent its one job.  A call that fails in any way
    (a job raises, a worker dies, an interrupt) stops the pool, and the next starts afresh.
    """
    with _pool_lock:
        try:
            workers = _pool_of(len(jobs))
            for (_, conn), job in zip(workers, jobs[1:]):
                conn.send(job)
            results = [_run_chunks(jobs[0]), *(conn.recv() for _, conn in workers)]
            for result in results:
                if isinstance(result, Exception):
                    raise result
        except BaseException as exc:
            _drop_pool()
            if isinstance(exc, (EOFError, ConnectionError)):  # from a pipe whose worker is gone
                raise RuntimeError("a pool worker exited during the call") from exc
            raise
    return results


def _tally(cfgs: list[SimConfig], workers: int) -> list[tuple[tuple[int, int, int, int], float]]:
    """Each config's summed tallies with a wall time: the call's for the first config, 0.0 for the others.

    Job k holds chunk k of every config.  Serially each config is one chunk,
    and the one job runs in this process.  If S = min(workers, usable cores)
    is above 1 and a config has 2S trials or more, the S jobs go to the pool
    of S processes counting the caller, one job each (see `_pooled`).
    """
    if not protocol.is_int(workers):
        raise ConfigError([f"workers={workers!r} is not an integer"])
    if workers < 1:
        raise ConfigError([f"workers={workers} < 1"])
    size = min(workers, _usable_cores())
    pooled = size > 1 and any(cfg.trials >= 2 * size for cfg in cfgs)
    plans = [[(i, lo, hi) for lo, hi in _chunks(cfg.trials, size if pooled else 1)] for i, cfg in enumerate(cfgs)]
    # job k holds chunk k of every config that has one; serially, the one job holds every config
    shares = [[c for c in share if c] for share in itertools.zip_longest(*plans)]
    jobs = [[(cfgs[i], lo, hi) for i, lo, hi in share] for share in shares]
    sums = [(0, 0, 0, 0)] * len(cfgs)
    start = time.perf_counter()
    parts = _pooled(jobs) if pooled else map(_run_chunks, jobs)
    for share, tallies in zip(shares, parts):
        for (i, _, _), part in zip(share, tallies):
            sums[i] = tuple(a + b for a, b in zip(sums[i], part))
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
    # every bound is about the algebraic engine's radius rule; the beta bounds hold only
    # for this adversary and d >= 2 (see theory).  A leaf takes the scope of the first word
    # of its name, and a bound out of scope is null
    algebraic = cfg.engine == "algebraic"
    in_scope = {"gamma": algebraic, "beta": algebraic and kind == "random_nonzero_error" and cfg.d >= 2}
    bounds = theory.predict(theory.TheoryParams(cfg.n, cfg.h, **radii), cfg.epsilon)
    predicted = {key: float(bound) if in_scope[key.split("_")[0]] else None for key, bound in bounds.items()}

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
    process's one pool of min(workers, usable cores) processes counting the
    caller, one job each.  The points run together, so the first point's
    `wall_time_s` is the sweep's wall time, including pool start-up only
    when this call starts the pool, and later points read 0.0.
    """
    if axis not in _NUMERIC_FIELDS:
        raise ConfigError([f"axis {axis!r} is not a numeric config field"])
    # the axis value comes last, so on the seed axis it replaces the derived seed; a seed
    # that is no integer derives none and is left for `validate` to name
    derive = protocol.is_int(base.seed)
    cfgs = [replace(base, **{"seed": base.seed ^ i if derive else base.seed, axis: v}) for i, v in enumerate(values)]
    if not cfgs:
        raise ConfigError(["values: holds no value, so the sweep has no point"])
    for cfg in cfgs:
        cfg.validate()
    tallied = _tally(cfgs, workers)
    return [_report(cfg, tallies, wall) for cfg, (tallies, wall) in zip(cfgs, tallied)]


def _round(x: float) -> float:
    """The report's one rounding rule: a float to 12 significant digits."""
    return float(f"{x:.12g}")


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings of these float reprs


def _json(obj, pad: str) -> str:
    """`obj` as `json.dumps(obj, indent=2, sort_keys=True)` writes it at indent `pad`, each float `_round`ed."""
    if isinstance(obj, dict):
        inner = pad + "  "
        items = [encode_basestring_ascii(key) + ": " + _json(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if obj else "{}"
    if isinstance(obj, float):
        text = float.__repr__(_round(obj))
        return _JSON_FLOATS.get(text, text)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]" if obj else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def report_json(rep: SimReport | list[SimReport]) -> str:
    """The report(s) as indented JSON with keys sorted, written from the fields in one pass, floats `_round`ed."""
    return _json(vars(rep) if isinstance(rep, SimReport) else {"reports": [vars(r) for r in rep]}, "\n") + "\n"


def _leaves(obj, path: str = ""):
    """(dotted path, cell) for each leaf of a report's fields, in field order, each float `_round`ed.

    A list or tuple leaf's cell is the compact JSON of its items; a null stays None, which `csv` writes empty.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, (list, tuple)):
        yield path, json.dumps([_round(v) if isinstance(v, float) else v for v in obj])
    else:
        yield path, _round(obj) if isinstance(obj, float) else obj


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
                rows = [dict(_leaves(vars(r))) for r in reports]
                # one header for every report: the union of their paths, a path a report lacks left empty
                w = csv.DictWriter(f, list(dict.fromkeys(key for row in rows for key in row)), restval="")
                w.writeheader()
                w.writerows(rows)
    except OSError as exc:
        raise IOError(f"cannot write report to {path or 'stdout'}: {exc}") from exc
