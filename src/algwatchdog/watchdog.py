"""The two detection engines a watcher runs against its downstream relay.

The algebraic engine builds candidate sets (hash-consistent words inside a
Hamming ball around each overheard payload), pushes the peer candidates
through the known coding map, and flags the relay when the intersection with
the relay candidates is empty.

The trellis engine scores the same observation as a four-layer path-sum:
overheard-peer vertex -> peer candidates -> coded images -> overheard-relay
vertex, with channel-likelihood edge weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import BinarySymmetricChannel, ball_offsets, log_likelihood, radius_for_epsilon
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


def build_trellis(obs: Observation) -> Trellis:
    """Materialize the reachable part of the four-layer model for one observation."""
    n = obs.n
    if n > TRELLIS_MAX_WIDTH:
        raise ValueError(f"trellis engine supports n <= {TRELLIS_MAX_WIDTH}, got {n}")
    spec = obs.own_value.spec
    candidates = np.flatnonzero(obs.hf.table == obs.peer_hash.value)
    raw_in = np.exp(log_likelihood(obs.peer_channel, candidates, obs.noisy_peer, n))
    total = raw_in.sum()
    weights_in = raw_in / total if total > 0 else np.zeros_like(raw_in)
    const = spec.mul(obs.own_coeff.value, obs.own_value.value)
    images = const ^ spec.mul_words(obs.peer_coeff.value, candidates)
    edge_out = obs.hf.values_on(images) == obs.relay_hash.value
    likelihood_out = np.exp(log_likelihood(obs.relay_channel, images, obs.noisy_relay, n))
    return Trellis(
        candidates=candidates,
        images=images,
        weights_in=weights_in,
        likelihood_out=likelihood_out,
        edge_out=edge_out,
    )


def consistency_probability(tr: Trellis) -> float:
    """Sum over start->destination paths of the product of edge weights."""
    return float(np.sum(tr.weights_in * np.where(tr.edge_out, tr.likelihood_out, 0.0)))


def decide(score: float, threshold: float) -> Verdict:
    """Threshold rule on a consistency score: accept the relay iff score >= t."""
    decision = Hypothesis.H0 if score >= threshold else Hypothesis.H1
    return Verdict(decision, score, {"threshold": threshold})
