"""The two detection engines a watcher runs against its downstream relay.

The algebraic engine is the paper's empty-intersection rule.  A watcher's
peer candidates are the words that carry the peer's hash within the peer
radius of the overheard peer payload, its relay candidates the words that
carry the relay's hash within the relay radius of the overheard relay
payload.  It pushes the peer candidates through the known coding map and
flags the relay when no image is a relay candidate.  `algebraic_batch`
applies the rule to a batch of trials on arrays, and `relay_word_survivors`
counts its survivors for every relay word, from the same peer candidates.

The trellis engine scores the same observation as a four-layer path-sum:
overheard-peer vertex -> peer candidates -> coded images -> overheard-relay
vertex, with channel-likelihood edge weights.  `trellis_batch` scores a
batch of trials on arrays and accepts a view iff its score reaches the
threshold.  With p > 0 on every link, a view's score is positive exactly when
the algebraic rule with both radii n accepts it.

Each kernel sizes its watcher axis W from its input.  `algebraic_check`,
`build_trellis` and `consistency_probability` run the kernels on one
`Observation`, laid out as a one-trial batch with one watcher slot.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import BinarySymmetricChannel, ball_offsets, likelihood_by_distance, radius_for_epsilon
from .gf2n import FieldElement, FieldSpec
from .hashing import HashFunction

TRELLIS_MAX_WIDTH = 12


class Hypothesis(enum.Enum):
    H0 = "well-behaving"
    H1 = "malicious"


@dataclass(frozen=True)
class Observation:
    """Everything one watcher gathers in a single round.

    Headers (coefficients, and hashes as h-bit words) arrive intact; the two
    overheard payloads went through the corresponding interference channels.
    It is one watcher's view as objects: the words of a `protocol.view_rows`
    row, whose columns 3 and 5 + 2a hold its two hashes.
    """

    own_value: FieldElement
    own_coeff: FieldElement
    peer_coeff: FieldElement
    peer_hash: int
    relay_hash: int
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
    diagnostics: dict


def _one_trial(obs: Observation) -> tuple[np.ndarray, list, list]:
    """obs as a kernel's (tables, words, links): one trial with one watcher slot, holding obs's view."""
    row = [obs.own_value.value, obs.own_coeff.value, obs.peer_coeff.value, obs.peer_hash, obs.noisy_peer]
    row += [obs.relay_hash, obs.noisy_relay]
    return obs.hf.table[None], [[row]], [(obs.peer_channel, obs.relay_channel)]


def algebraic_check(obs: Observation, radius_override: int | None = None) -> Verdict:
    """The empty-intersection rule on one observation: `algebraic_batch` on a one-trial batch.

    Both radii are radius_override if given, else those `radius_for_epsilon`
    selects for the observation's links.  The diagnostics hold the radii,
    the survivor count and the candidate count of each ball.
    """
    if obs.peer_coeff.value == 0:
        # every peer candidate would map to one image, counted once per candidate
        raise ValueError("a zero peer coefficient degenerates the check")
    tables, words, links = _one_trial(obs)
    r_peer, r_relay = (
        radius_for_epsilon(obs.n, chan.p, obs.epsilon).r if radius_override is None else radius_override
        for chan in links[0]
    )
    surviving = int(algebraic_batch(obs.own_value.spec, tables, words, [(r_peer, r_relay)])[1][0, 0, 0])
    peer_candidates, relay_candidates = (
        int(np.count_nonzero(tables[0].take(noisy ^ ball_offsets(obs.n, r)) == target))
        for noisy, target, r in ((obs.noisy_peer, obs.peer_hash, r_peer), (obs.noisy_relay, obs.relay_hash, r_relay))
    )
    return Verdict(
        Hypothesis.H0 if surviving else Hypothesis.H1,
        {
            "peer_candidates": peer_candidates,
            "relay_candidates": relay_candidates,
            "surviving": surviving,
            "peer_radius": r_peer,
            "relay_radius": r_relay,
        },
    )


def _coded_images(spec: FieldSpec, tables: np.ndarray, words: np.ndarray, peer_radii: Sequence[int]):
    """Every view's peer side: (view row, image) per peer candidate x, each watcher's in trial order.

    Of words (B, W, 5 + 2A) only the peer side is read, and tables is flat.
    x carries view row b·W + w's peer hash within peer_radii[w] of its noisy
    peer payload; image is the table index (b << n) | (own_coeff*own_value +
    peer_coeff*x).  The views of one peer radius are read in one pass: a
    ball per view (noisy_peer ^ `ball_offsets`), one gather, one flatnonzero.
    """
    n, watchers = spec.n, words.shape[1]
    own, own_coeff, peer_coeff, peer_hash, noisy_peer = words[:, :, :5].reshape(-1, 5).T
    base = np.arange(len(words)).repeat(watchers) << n
    rows, cands = [], []
    for r in sorted(set(peer_radii)):
        views, offsets = np.flatnonzero(np.tile(np.equal(peer_radii, r), len(words))), ball_offsets(n, r)
        ball = (base | noisy_peer)[views, None] ^ offsets
        # the tables are uint16; comparing them with int64 would cast every entry
        found = np.flatnonzero(tables.take(ball) == peer_hash.astype(np.uint16)[views, None])
        rows.append(views[found // len(offsets)])
        cands.append(ball.take(found))
    row, cand = np.concatenate(rows), np.concatenate(cands) & (spec.order - 1)
    return row, base[row] | spec.mul_words(own_coeff, own)[row] ^ spec.mul_words(peer_coeff[row], cand)


# a chunk of images x relay-ball offsets holds at most this many words: a
# 4-trial n = 12, h = 2, p = 0.3 exhaustive_best run peaks at 43 MB with
# 2^18 and 144 MB with 2^22
_SURVIVOR_CHUNK_WORDS = 1 << 18


def relay_word_survivors(
    spec: FieldSpec, tables: np.ndarray, words: Sequence[Sequence[Sequence[int]]], radii: Sequence[tuple[int, int]]
) -> np.ndarray:
    """The algebraic rule's survivor count for every relay word, each overheard without noise, in B trials.

    Read as `algebraic_batch` reads its arguments, but of words only the
    peer side, found by the same helper.  counts is (B, W, 2^n):
    counts[b, w, c] is the number of watcher w's peer candidates in trial b
    whose image is a relay candidate when the relay sends c and watcher w
    overhears c, that is, carries c's hash within the relay radius of c.
    Counted from the image side, watcher by watcher: image x survives for
    every c of its relay ball with h(c) = h(x); the images are distinct, so
    each (x, c) pair counts once.
    """
    n, watchers, words, tables = spec.n, len(radii), np.asarray(words, dtype=np.int64), tables.ravel()
    row, images = _coded_images(spec, tables, words, [r_peer for r_peer, _ in radii])
    counts = np.zeros((len(words), watchers, spec.order), dtype=np.int64)
    for w, (_, r_relay) in enumerate(radii):
        mine, offsets = images[row % watchers == w], ball_offsets(n, r_relay)
        step = max(1, _SURVIVOR_CHUNK_WORDS // len(offsets))
        for lo in range(0, len(mine), step):
            part = mine[lo : lo + step]
            ball = part[:, None] ^ offsets
            # compress, not a boolean index, which took 4x as long
            hit = ball.compress((tables.take(ball) == tables.take(part)[:, None]).ravel())
            # images come in trial order: the chunk counts over its own trials first..last alone
            first, last = part[0] >> n, (part[-1] >> n) + 1
            span = counts[first:last, w]
            span += np.bincount(hit - (first << n), minlength=(last - first) << n).reshape(span.shape)
    return counts


def algebraic_batch(
    spec: FieldSpec, tables: np.ndarray, words: Sequence[Sequence[Sequence[int]]], radii: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The algebraic verdicts and survivor counts of a batch of B trials, computed on arrays.

    spec, tables and words are read as `trellis_batch` reads them, and
    radii[w] is watcher w's (peer radius, relay radius) in every trial.
    Returns (accepted, surviving), both of shape (B, W = len(radii), A):
    surviving[b, w, a] is the number of watcher w's peer candidates in
    trial b whose coded image is one of arm a's relay candidates, and
    accepted[b, w, a] is True exactly when that number is nonzero, the
    paper's rule.

    The peer candidates of all B·W views, row b·W + w as in `trellis_batch`,
    are found in one pass per distinct peer radius, one on a network whose
    peer links are alike.  The arms share the coded images, and no relay
    ball is enumerated: image x survives an arm iff it carries the arm's
    relay hash and lies within the relay radius of the noisy relay payload,
    tested only where the hash matches.
    With a nonzero peer coefficient (a `Scenario` has no other), x ->
    own_coeff*own_value + peer_coeff*x is a bijection, so the images are
    distinct and their count is the size of their intersection with the
    relay candidates.  Every step is integer arithmetic.
    """
    words, tables = np.asarray(words, dtype=np.int64), tables.ravel()
    watchers, arms = words.shape[1], (words.shape[2] - 5) // 2
    peer_radii, relay_radii = zip(*radii)
    row, images = _coded_images(spec, tables, words, peer_radii)
    relay_hash, noisy_relay = (words[:, :, 5 + i :: 2].reshape(-1, arms).T for i in (0, 1))
    arm, k = np.nonzero(tables.take(images) == relay_hash.astype(np.uint16).take(row, axis=1))
    r = row[k]
    near = np.bitwise_count((images[k] ^ noisy_relay[arm, r]) & (spec.order - 1)) <= np.take(relay_radii, r % watchers)
    surviving = np.bincount(r[near] * arms + arm[near], minlength=relay_hash.size).reshape(-1, watchers, arms)
    return surviving > 0, surviving


def build_trellis(obs: Observation) -> np.ndarray:
    """The trellis path-sum of one observation: `trellis_batch`'s (1, 1, 1) scores on a one-trial batch.

    Like the kernel, raises ValueError above `TRELLIS_MAX_WIDTH`.
    """
    tables, words, links = _one_trial(obs)
    return trellis_batch(obs.own_value.spec, tables, words, links, 0.0)[1]


def consistency_probability(scores: np.ndarray) -> float:
    """The score `build_trellis` computed: the sum over start->destination paths of the product of edge weights."""
    return float(scores[0, 0, 0])


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
    b hashes with tables[b], indexed by word.  words is (B, W, 5 + 2A), W
    1 or 2: words[b][w] holds its watcher w's views of the A relay arms as
    one row of integers: own value, own coefficient, peer coefficient, peer
    hash and noisy peer payload, then relay hash and noisy relay payload per
    arm (`protocol.view_rows` builds the rows, W = 2).  The arms share the
    peer side.  channels[w] is watcher w's (peer link, relay link) in every
    trial.  Returns (accepted, scores), both of shape (B, W, A).
    scores[b, w, a] is the path-sum over watcher w's peer candidates x in
    trial b, every word with the peer hash: the peer-link likelihood of x,
    normalized by the candidates' total, times the relay-link likelihood of
    x's coded image if the image carries arm a's relay hash, else 0.
    accepted[b, w, a] is True exactly when scores[b, w, a] >= threshold.
    A score is an unnormalized path-sum likelihood, so a fixed threshold
    means different things at different n and p.

    One `np.flatnonzero` over the tables finds every watcher's peer
    candidates, and weights, coded images and image hashes follow for all
    watchers at once.  Relay likelihoods and per-view sums are computed
    only for the candidates whose image carries an arm's relay hash, the
    edges that reach the destination.  `np.bincount` adds each view's terms
    one after another in ascending candidate order, starting from 0.0.
    """
    n = spec.n
    if n > TRELLIS_MAX_WIDTH:
        raise ValueError(f"trellis engine supports n <= {TRELLIS_MAX_WIDTH}, got {n}")
    words = np.asarray(words, dtype=np.int64)
    watchers, arms = words.shape[1], (words.shape[2] - 5) // 2
    # view row = W trial + watcher, so for W in (1, 2) the watcher is row & shift and the trial row >> shift
    shift = watchers - 1
    own, own_coeff, peer_coeff, peer_hash, noisy_peer = words[:, :, :5].reshape(-1, 5).T
    relay_hash, noisy_relay = (words[:, :, 5 + i :: 2].reshape(-1, arms).T for i in (0, 1))
    # BSC likelihoods by distance: watcher w's peer link at block 2w, its relay link at 2w + 1
    stride = n + 1
    lik = np.concatenate([likelihood_by_distance(chan.p, n) for links in channels for chan in links])

    # found = view row 2^n + candidate
    # the tables are uint16; comparing them with int64 would cast every entry
    found = np.flatnonzero(tables[:, None, :] == peer_hash.astype(np.uint16).reshape(len(tables), watchers, 1))
    cand = found & (spec.order - 1)
    row = found >> n
    raw = lik.take(2 * stride * (row & shift) + np.bitwise_count(cand ^ noisy_peer[row]))
    total = np.bincount(row, raw, minlength=len(own))
    images = spec.mul_words(own_coeff, own)[row] ^ spec.mul_words(peer_coeff[row], cand)
    image_hashes = tables.ravel().take((row >> shift << n) | images)

    arm, hit = np.nonzero(image_hashes == relay_hash.astype(np.uint16).take(row, axis=1))
    r = row[hit]
    weights = raw[hit] / np.where(total > 0, total, 1.0)[r]
    lik_out = lik.take(stride * (2 * (r & shift) + 1) + np.bitwise_count(images[hit] ^ noisy_relay[arm, r]))
    scores = np.bincount(r * arms + arm, weights * lik_out, minlength=len(own) * arms).reshape(-1, watchers, arms)

    return scores >= threshold, scores
