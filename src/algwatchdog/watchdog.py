"""The two detection engines a watcher runs against its downstream relay.

The algebraic engine builds candidate sets (hash-consistent words inside a
Hamming ball around each overheard payload), pushes the peer candidates
through the known coding map, and flags the relay when the intersection with
the relay candidates is empty.

The trellis engine scores the same observation as a four-layer path-sum:
overheard-peer vertex -> peer candidates -> coded images -> overheard-relay
vertex, with channel-likelihood edge weights.  `trellis_peer`,
`build_trellis`, `consistency_probability` and `decide` score one
observation; `trellis_batch` scores many at once on arrays, with the same
verdicts.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import BinarySymmetricChannel, ball_offsets, likelihood, likelihood_by_distance, radius_for_epsilon
from .gf2n import FieldElement
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


def peer_images(obs: Observation, radius_override: int | None = None) -> tuple[np.ndarray, int]:
    """The peer side of the check: peer candidates mapped through the coding map.

    Returns own_coeff*own_value + peer_coeff*x for every peer candidate x,
    and the radius of the peer ball.  It reads nothing of the relay's
    payload, so a caller that varies only the relay side can compute it once.
    """
    peer_words, r_peer = candidate_set(obs, "peer", radius_override)
    spec = obs.own_value.spec
    const = spec.mul(obs.own_coeff.value, obs.own_value.value)
    return const ^ spec.mul_words(obs.peer_coeff.value, peer_words), r_peer


def algebraic_check(obs: Observation, radius_override: int | None = None) -> Verdict:
    """Empty-intersection misbehavior check.

    Maps every peer candidate x through own_coeff*own_value + peer_coeff*x
    and intersects the images with the relay candidate set; an empty
    intersection flags the relay.
    """
    return check_relay(obs, peer_images(obs, radius_override), radius_override)


def check_relay(obs: Observation, peer: tuple[np.ndarray, int], radius_override: int | None = None) -> Verdict:
    """`algebraic_check` against a peer side `peer_images(obs, radius_override)` computed already."""
    images, r_peer = peer
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


def survivors_by_relay_word(obs: Observation, peer: tuple[np.ndarray, int]) -> np.ndarray:
    """`check_relay`'s survivor count for every relay word, each overheard without noise.

    Entry c is `check_relay(obs', peer).diagnostics["surviving"]` for obs'
    = obs with relay payload c, its true hash, and noisy_relay = c.  Counted
    from the image side: an image x survives for c when h(x) = h(c) and
    x lies within the relay radius of c; the images are distinct, so each
    (x, c) pair counts once.  `check_relay` keeps its set intersection: on
    one n=8 observation it takes about 1.3 us against 6 us for this count
    restricted to one c (2-core x86_64 VM), so the per-trial check does not
    go through here.
    """
    images, _ = peer
    table = obs.hf.table
    offsets = ball_offsets(obs.n, radius_for_epsilon(obs.n, obs.relay_channel.p, obs.epsilon).r)
    counts = np.zeros(len(table), dtype=np.int64)
    # chunks of images x ball offsets hold at most 2^22 words (32 MB)
    step = max(1, (1 << 22) // len(offsets))
    for lo in range(0, len(images), step):
        part = images[lo : lo + step]
        words = part[:, None] ^ offsets
        counts += np.bincount(words[table.take(words) == table.take(part)[:, None]], minlength=len(table))
    return counts


def trellis_peer(obs: Observation) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The peer side of the trellis: layers 2 and 3 and the edges into them.

    Returns (candidates, weights_in, images, image_hashes): every word with
    the peer's hash, its normalized start->candidate weight, its coded image
    own_coeff*own_value + peer_coeff*x, and the image's hash.  It reads
    nothing of the relay, so both relay arms of a trial can share it.
    """
    n = obs.n
    if n > TRELLIS_MAX_WIDTH:
        raise ValueError(f"trellis engine supports n <= {TRELLIS_MAX_WIDTH}, got {n}")
    spec = obs.own_value.spec
    candidates = np.flatnonzero(obs.hf.table == obs.peer_hash.value)
    raw_in = likelihood(obs.peer_channel, candidates, obs.noisy_peer, n)
    total = raw_in.sum()
    weights_in = raw_in / total if total > 0 else np.zeros_like(raw_in)
    const = spec.mul(obs.own_coeff.value, obs.own_value.value)
    images = const ^ spec.mul_words(obs.peer_coeff.value, candidates)
    return candidates, weights_in, images, obs.hf.values_on(images)


def build_trellis(obs: Observation, peer: tuple | None = None) -> Trellis:
    """Materialize the reachable part of the four-layer model for one observation.

    Given `peer`, the `trellis_peer` of an observation with the same peer
    side, only the relay side (the image->destination edges) is built.
    """
    candidates, weights_in, images, image_hashes = trellis_peer(obs) if peer is None else peer
    return Trellis(
        candidates=candidates,
        images=images,
        weights_in=weights_in,
        likelihood_out=likelihood(obs.relay_channel, images, obs.noisy_relay, obs.n),
        edge_out=image_hashes == obs.relay_hash.value,
    )


def consistency_probability(tr: Trellis) -> float:
    """Sum over start->destination paths of the product of edge weights."""
    return float(np.sum(tr.weights_in * np.where(tr.edge_out, tr.likelihood_out, 0.0)))


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
    hfs: Sequence[HashFunction],
    words: Sequence[Sequence[Sequence[int]]],
    channels: Sequence[tuple[BinarySymmetricChannel, BinarySymmetricChannel]],
    epsilon: float,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The trellis verdicts and scores of a batch of B trials, computed on arrays.

    Trial b hashes with hfs[b].  words[b][w] holds its watcher w's views of
    the A relay arms as one row of integers: own value, own coefficient,
    peer coefficient, peer hash and noisy peer payload, then relay hash and
    noisy relay payload per arm (`protocol.view_words` builds it).  The arms
    share the peer side, as `protocol.reobserve` makes them.  channels[w] is
    watcher w's (peer link, relay link) in every trial.  Returns (accepted,
    scores), both of shape (B, 2, A): accepted[b, w, a] is True exactly when
    `decide(consistency_probability(build_trellis(obs, trellis_peer(obs))),
    threshold)` accepts obs, the `Observation` with those fields, links and
    `epsilon`.

    The trials' hash tables are stacked into one (B, 2^n) buffer; one
    `np.flatnonzero` finds every watcher's peer candidates, and weights,
    coded images and image hashes follow for all watchers at once.  Relay
    likelihoods and per-view sums are computed only for the candidates whose
    image carries an arm's relay hash, the edges that reach the destination.

    Tie rule.  The weight totals and scores are sums taken in another order
    than `np.sum`'s, so they may differ from the scalar ones in the last
    bits.  Every term is nonnegative, so for a view with k peer candidates
    either path's score is within a relative 2k * 2^-53 (to first order:
    two sums of at most k terms, one division and one product per term) of
    the exact path-sum, and the two differ by at most about 4k * 2^-53
    times the score.  Every view whose batched score s has
    |s - threshold| <= 9 k 2^-53 s + k 2^-1070 (the last term covers
    underflow), with k taken as 2^n >= k, is rescored by the scalar path;
    outside that band both scores lie on the same side of the threshold.
    So each verdict equals the scalar one by construction, and each score
    is within that bound, for its own k, of the scalar score.
    """
    spec = hfs[0].spec
    n = spec.n
    if n > TRELLIS_MAX_WIDTH:
        raise ValueError(f"trellis engine supports n <= {TRELLIS_MAX_WIDTH}, got {n}")
    words = np.asarray(words, dtype=np.int64)
    arms = (words.shape[2] - 5) // 2
    own, own_coeff, peer_coeff, peer_hash, noisy_peer = words[:, :, :5].reshape(-1, 5).T
    relay_hash, noisy_relay = (words[:, :, 5 + i :: 2].reshape(-1, arms).T for i in (0, 1))
    tables = np.stack([hf.table for hf in hfs])
    # BSC likelihoods by distance: watcher w's peer link at block 2w, its relay link at 2w + 1
    stride = n + 1
    lik = np.concatenate([likelihood_by_distance(chan.p, n) for links in channels for chan in links])

    # found = (2 trial + watcher) 2^n + candidate
    # the tables are uint16; comparing them with int64 would cast every entry
    found = np.flatnonzero(tables[:, None, :] == peer_hash.astype(np.uint16).reshape(len(hfs), 2, 1))
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
    scores = np.bincount(r * arms + arm, weights * lik_out, minlength=len(own) * arms).reshape(len(hfs), 2, arms)

    accepted = scores >= threshold
    slack = spec.order * (9 * 2.0**-53 * scores + 2.0**-1070)
    for b, w, a in zip(*np.nonzero(np.abs(scores - threshold) <= slack)):
        hf, row_words = hfs[b], words[b, w].tolist()
        obs = Observation(
            *(FieldElement(v, spec) for v in row_words[:3]),
            HashValue(row_words[3], hf.width),
            HashValue(row_words[5 + 2 * a], hf.width),
            row_words[4],
            row_words[6 + 2 * a],
            *channels[w],
            epsilon,
            hf,
        )
        scores[b, w, a] = consistency_probability(build_trellis(obs))
        accepted[b, w, a] = decide(scores[b, w, a], threshold).decision is Hypothesis.H0
    return accepted, scores
