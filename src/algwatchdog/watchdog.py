"""The two detection engines a watcher runs against its downstream relay.

The algebraic engine builds candidate sets (hash-consistent words inside a
Hamming ball around each overheard payload), pushes the peer candidates
through the known coding map, and flags the relay when the intersection with
the relay candidates is empty.  `algebraic_check` checks one observation;
`algebraic_batch` checks many at once on arrays, with the same verdicts,
and `relay_word_survivors` counts its survivors for every relay word.

The trellis engine scores the same observation as a four-layer path-sum:
overheard-peer vertex -> peer candidates -> coded images -> overheard-relay
vertex, with channel-likelihood edge weights.  `build_trellis`,
`consistency_probability` and `decide` score one observation;
`trellis_batch` scores many at once on arrays, with the same scores bit for
bit.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import BinarySymmetricChannel, ball_offsets, likelihood, likelihood_by_distance, radius_for_epsilon
from .gf2n import FieldElement, FieldSpec
from .hashing import HashFunction, HashValue

TRELLIS_MAX_WIDTH = 12


class Hypothesis(enum.Enum):
    H0 = "well-behaving"
    H1 = "malicious"


@dataclass(frozen=True)
class Observation:
    """Everything one watcher gathers in a single round.

    Headers (coefficients and hashes) arrive intact; the two overheard
    payloads went through the corresponding interference channels.
    """

    own_value: FieldElement
    own_coeff: FieldElement
    peer_coeff: FieldElement
    peer_hash: HashValue
    relay_hash: HashValue
    noisy_peer: int
    noisy_relay: int
    peer_channel: BinarySymmetricChannel
    relay_channel: BinarySymmetricChannel
    epsilon: float
    hf: HashFunction

    @property
    def n(self) -> int:
        return self.own_value.spec.n


@dataclass(frozen=True)
class Verdict:
    decision: Hypothesis
    consistency_score: float
    diagnostics: dict


@dataclass(frozen=True)
class Trellis:
    """Materialized slice of the four-layer model between the two observed vertices.

    Only the peer candidates (layer 2) and their coded images (layer 3) are
    stored; layers 1 and 4 are the single observed start and destination
    vertices.  weights_in are the normalized start->candidate weights;
    likelihood_out are the raw image->destination channel likelihoods, and
    edge_out marks which images are hash-consistent with the destination.
    """

    candidates: np.ndarray
    images: np.ndarray
    weights_in: np.ndarray
    likelihood_out: np.ndarray
    edge_out: np.ndarray


def candidate_set(obs: Observation, which: str, radius_override: int | None = None) -> tuple[np.ndarray, int]:
    """Hash-consistent words within the coverage radius of an overheard payload.

    Returns the candidate words of the "peer" or "relay" payload and the
    radius r of the Hamming ball they were drawn from.
    """
    if which == "peer":
        noisy, chan, target = obs.noisy_peer, obs.peer_channel, obs.peer_hash
    elif which == "relay":
        noisy, chan, target = obs.noisy_relay, obs.relay_channel, obs.relay_hash
    else:
        raise ValueError(f"unknown candidate role {which!r}")
    n = obs.n
    r = radius_for_epsilon(n, chan.p, obs.epsilon).r if radius_override is None else radius_override
    ball = noisy ^ ball_offsets(n, r)
    return ball[obs.hf.values_on(ball) == target.value], r


def algebraic_check(obs: Observation, radius_override: int | None = None) -> Verdict:
    """Empty-intersection misbehavior check.

    Maps every peer candidate x through own_coeff*own_value + peer_coeff*x
    and intersects the images with the relay candidate set; an empty
    intersection flags the relay.
    """
    peer_words, r_peer = candidate_set(obs, "peer", radius_override)
    spec = obs.own_value.spec
    images = spec.mul_words(obs.own_coeff.value, obs.own_value.value) ^ spec.mul_words(obs.peer_coeff.value, peer_words)
    relay_words, r_relay = candidate_set(obs, "relay", radius_override)
    # ball words are distinct, so relay_words holds no duplicates
    surviving = len(set(images.tolist()).intersection(relay_words.tolist()))
    score = surviving / len(relay_words) if len(relay_words) else 0.0
    decision = Hypothesis.H1 if not surviving else Hypothesis.H0
    return Verdict(
        decision,
        score,
        {
            "peer_candidates": len(images),
            "relay_candidates": len(relay_words),
            "surviving": surviving,
            "peer_radius": r_peer,
            "relay_radius": r_relay,
        },
    )


def _coded_images(
    spec: FieldSpec, tables: np.ndarray, rows: np.ndarray, peer_chan: BinarySymmetricChannel, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """One watcher's peer side in B trials: (row, image) per peer candidate x, trial by trial.

    tables is the stacked tables, flattened; of rows (B, 5 + 2A) only the
    peer side is read.  x is a word of trial row's peer ball that carries
    the peer hash, and image is own_coeff*own_value + peer_coeff*x.
    """
    n = spec.n
    own, own_coeff, peer_coeff, peer_hash, noisy_peer = rows[:, :5].T
    offsets = ball_offsets(n, radius_for_epsilon(n, peer_chan.p, epsilon).r)
    # ball[b] = (b, noisy_peer[b] ^ offset) as an index into the stacked tables
    ball = (np.arange(len(rows)) << n | noisy_peer)[:, None] ^ offsets
    row, col = np.nonzero(tables.take(ball) == peer_hash[:, None])
    cand = ball[row, col] & (spec.order - 1)
    return row, spec.mul_words(own_coeff, own)[row] ^ spec.mul_words(peer_coeff[row], cand)


# a chunk of images x relay-ball offsets holds at most this many words: a
# 4-trial n = 12, h = 2, p = 0.3 exhaustive_best run peaks at 43 MB with
# 2^18 and 144 MB with 2^22; below 2^18 each chunk's (B, 2^n) bincount costs
# more than its words at n = 12
_SURVIVOR_CHUNK_WORDS = 1 << 18


def relay_word_survivors(
    spec: FieldSpec,
    tables: np.ndarray,
    words: Sequence[Sequence[Sequence[int]]],
    channels: Sequence[tuple[BinarySymmetricChannel, BinarySymmetricChannel]],
    epsilon: float,
) -> np.ndarray:
    """`algebraic_check`'s survivor count for every relay word, each overheard without noise, in B trials.

    Read as `algebraic_batch` reads its arguments, but of words only the
    peer side.  counts[b, w, c] is `algebraic_check(obs)`'s survivor count
    for watcher w's view of trial b with relay payload c, its true hash and
    noisy_relay = c.  Counted from the image side: image x survives for
    every c of its relay ball with h(c) = h(x); the images are distinct, so
    each (x, c) pair counts once.
    """
    n = spec.n
    words = np.asarray(words, dtype=np.int64)
    batch = len(tables)
    tables = tables.ravel()
    counts = np.zeros((batch, 2, spec.order), dtype=np.int64)
    for w, (peer_chan, relay_chan) in enumerate(channels):
        row, images = _coded_images(spec, tables, words[:, w], peer_chan, epsilon)
        offsets = ball_offsets(n, radius_for_epsilon(n, relay_chan.p, epsilon).r)
        # (b, x) as an index into the stacked tables; x ^ offset keeps b
        images = row << n | images
        step = max(1, _SURVIVOR_CHUNK_WORDS // len(offsets))
        for lo in range(0, len(images), step):
            part = images[lo : lo + step]
            ball = part[:, None] ^ offsets
            # compress, not a boolean index, which took 4x as long
            hit = ball.compress((tables.take(ball) == tables.take(part)[:, None]).ravel())
            counts[:, w] += np.bincount(hit, minlength=batch << n).reshape(batch, -1)
    return counts


def algebraic_batch(
    spec: FieldSpec,
    tables: np.ndarray,
    words: Sequence[Sequence[Sequence[int]]],
    channels: Sequence[tuple[BinarySymmetricChannel, BinarySymmetricChannel]],
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The algebraic verdicts and survivor counts of a batch of B trials, computed on arrays.

    spec, tables, words and channels are read as `trellis_batch` reads them.
    Returns (accepted, surviving), both of shape (B, 2, A):
    surviving[b, w, a] is `algebraic_check(obs).diagnostics["surviving"]`
    for obs, the `Observation` with those fields, links and `epsilon`, and
    accepted[b, w, a] is True exactly when that check accepts obs.

    Each watcher's two radii are selected once per call.  Its peer ball is
    noisy_peer ^ `ball_offsets`, one row per trial, and hash membership is
    one gather from the hash tables.  The coded images of the peer
    candidates are computed once and shared by the arms.  The relay ball is
    never enumerated: image x survives an arm iff h(x) is the arm's relay
    hash and x lies within the relay radius of the noisy relay payload,
    that is, iff x is one of the arm's relay candidates.  With a nonzero
    peer coefficient (a `Scenario` has no other), x -> own_coeff*own_value
    + peer_coeff*x is a bijection, so the images are distinct and their
    count is the size of `algebraic_check`'s set intersection.  Every step is
    integer arithmetic, so the counts equal the scalar ones by construction.
    """
    n = spec.n
    words = np.asarray(words, dtype=np.int64)
    batch, arms = len(tables), (words.shape[2] - 5) // 2
    tables = tables.ravel()
    surviving = np.empty((batch, 2, arms), dtype=np.int64)
    for w, (peer_chan, relay_chan) in enumerate(channels):
        relay_hash, noisy_relay = words[:, w, 5::2], words[:, w, 6::2]
        row, images = _coded_images(spec, tables, words[:, w], peer_chan, epsilon)
        r_relay = radius_for_epsilon(n, relay_chan.p, epsilon).r
        hit = tables.take(row << n | images)[:, None] == relay_hash[row]
        hit &= np.bitwise_count(images[:, None] ^ noisy_relay[row]) <= r_relay
        k, arm = np.nonzero(hit)
        surviving[:, w] = np.bincount(row[k] * arms + arm, minlength=batch * arms).reshape(batch, arms)
    return surviving > 0, surviving


def build_trellis(obs: Observation) -> Trellis:
    """Materialize the reachable part of the four-layer model for one observation.

    Layer 2 is every word with the peer's hash, in ascending order; its
    weights are the peer-link likelihoods, normalized by their total.
    """
    n = obs.n
    if n > TRELLIS_MAX_WIDTH:
        raise ValueError(f"trellis engine supports n <= {TRELLIS_MAX_WIDTH}, got {n}")
    spec = obs.own_value.spec
    candidates = np.flatnonzero(obs.hf.table == obs.peer_hash.value)
    raw_in = likelihood(obs.peer_channel, candidates, obs.noisy_peer, n)
    total = _sum_in_order(raw_in)
    images = spec.mul_words(obs.own_coeff.value, obs.own_value.value) ^ spec.mul_words(obs.peer_coeff.value, candidates)
    return Trellis(
        candidates=candidates,
        images=images,
        weights_in=raw_in / total if total > 0 else np.zeros_like(raw_in),
        likelihood_out=likelihood(obs.relay_channel, images, obs.noisy_relay, n),
        edge_out=obs.hf.values_on(images) == obs.relay_hash.value,
    )


def _sum_in_order(terms: np.ndarray) -> float:
    """terms[0] + terms[1] + ... added one after another, the order `np.bincount` adds its weights in."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


def consistency_probability(tr: Trellis) -> float:
    """Sum over start->destination paths of the product of edge weights."""
    return _sum_in_order(tr.weights_in * np.where(tr.edge_out, tr.likelihood_out, 0.0))


def decide(score: float, threshold: float) -> Verdict:
    """Threshold rule on a consistency score: accept the relay iff score >= t.

    The score is an unnormalized path-sum likelihood (its relay-side factor
    is p^k (1-p)^(n-k)), so a fixed t means different things at different n
    and p: at n=8, p=0.1 a clean overhearing scores at most (1-p)^8 = 0.43
    and one flipped bit about 0.048, below t = 0.05.
    """
    decision = Hypothesis.H0 if score >= threshold else Hypothesis.H1
    return Verdict(decision, score, {"threshold": threshold})


def trellis_batch(
    spec: FieldSpec,
    tables: np.ndarray,
    words: Sequence[Sequence[Sequence[int]]],
    channels: Sequence[tuple[BinarySymmetricChannel, BinarySymmetricChannel]],
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The trellis verdicts and scores of a batch of B trials, computed on arrays.

    The trials lie in the field spec.  tables is their (B, 2^n) uint16
    hash tables, built in the log domain by `hashing.hash_tables`: trial
    b hashes with tables[b], indexed by word.  words[b][w] holds its
    watcher w's views of the A relay arms as one row of integers: own
    value, own coefficient, peer coefficient, peer hash and noisy peer
    payload, then relay hash and noisy relay payload per arm
    (`protocol.view_rows` builds the rows).  The arms share the peer side.
    channels[w] is watcher w's (peer link, relay link) in every trial.
    Returns (accepted, scores), both of shape (B, 2, A): scores[b, w, a] is
    `consistency_probability(build_trellis(obs))` for obs, the `Observation`
    with those fields and links, and accepted[b, w, a] is True
    exactly when `decide(scores[b, w, a], threshold)` accepts obs.

    One `np.flatnonzero` over the tables finds every watcher's peer
    candidates, and weights, coded images and image hashes follow for all
    watchers at once.  Relay
    likelihoods and per-view sums are computed only for the candidates whose
    image carries an arm's relay hash, the edges that reach the destination.

    Each score is the scalar path's bit for bit.  The terms are the same
    floats, and `np.bincount` adds each view's terms one after another in
    ascending candidate order, starting from 0.0, as `consistency_probability`
    and `build_trellis`'s weight total do; the scalar sum's extra terms are
    exact zeros, which change no bit of a sum of nonnegative floats.
    """
    n = spec.n
    if n > TRELLIS_MAX_WIDTH:
        raise ValueError(f"trellis engine supports n <= {TRELLIS_MAX_WIDTH}, got {n}")
    words = np.asarray(words, dtype=np.int64)
    arms = (words.shape[2] - 5) // 2
    own, own_coeff, peer_coeff, peer_hash, noisy_peer = words[:, :, :5].reshape(-1, 5).T
    relay_hash, noisy_relay = (words[:, :, 5 + i :: 2].reshape(-1, arms).T for i in (0, 1))
    # BSC likelihoods by distance: watcher w's peer link at block 2w, its relay link at 2w + 1
    stride = n + 1
    lik = np.concatenate([likelihood_by_distance(chan.p, n) for links in channels for chan in links])

    # found = (2 trial + watcher) 2^n + candidate
    # the tables are uint16; comparing them with int64 would cast every entry
    found = np.flatnonzero(tables[:, None, :] == peer_hash.astype(np.uint16).reshape(len(tables), 2, 1))
    cand = found & (spec.order - 1)
    row = found >> n
    raw = lik.take(2 * stride * (row & 1) + np.bitwise_count(cand ^ noisy_peer[row]))
    total = np.bincount(row, raw, minlength=len(own))
    images = spec.mul_words(own_coeff, own)[row] ^ spec.mul_words(peer_coeff[row], cand)
    image_hashes = tables.ravel().take((row >> 1 << n) | images)

    arm, hit = np.nonzero(image_hashes == relay_hash.astype(np.uint16).take(row, axis=1))
    r = row[hit]
    weights = raw[hit] / np.where(total > 0, total, 1.0)[r]
    lik_out = lik.take(stride * (2 * (r & 1) + 1) + np.bitwise_count(images[hit] ^ noisy_relay[arm, r]))
    scores = np.bincount(r * arms + arm, weights * lik_out, minlength=len(own) * arms).reshape(len(tables), 2, arms)

    return scores >= threshold, scores
