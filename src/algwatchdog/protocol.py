"""Packets, the two-source/one-relay scenario, relay behaviors, and overhearing.

Headers are reliable: the watchers know the coding coefficients through the
`Scenario`, which stands for the overheard headers, so a packet carries only
its own hash and the coded payload, the one noise-exposed part.  The relay is
either honest or injects a nonzero error into its payload while keeping its
own hash consistent with the corrupted payload (the downstream receiver
checks that hash, so an inconsistent one would be caught immediately).
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import BinarySymmetricChannel, transmit
from .gf2n import FieldElement, FieldSpec
from .hashing import HashFunction, HashValue, evaluate
from .watchdog import Observation, check_relay, peer_images

EXHAUSTIVE_MAX_WIDTH = 12


@dataclass(frozen=True)
class Packet:
    """What a node transmits: its hash of the payload and the payload word."""

    own_hash: HashValue
    payload: int


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON booleans load as bool, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AdversaryStrategy:
    """How the relay corrupts its output; `honest()` for no corruption."""

    kind: str
    error: int | None = None
    max_weight: int | None = None

    _KINDS = ("honest", "random_nonzero_error", "fixed_error", "weight_bounded_error", "exhaustive_best")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "fixed_error" and not (is_int(self.error) and self.error):
            raise ValueError(f"fixed_error requires a nonzero error word, got error={self.error!r}")
        if self.kind == "weight_bounded_error" and not (is_int(self.max_weight) and self.max_weight >= 1):
            raise ValueError(f"weight_bounded_error requires max_weight >= 1, got max_weight={self.max_weight!r}")

    @classmethod
    def honest(cls):
        return cls("honest")

    @classmethod
    def random_nonzero_error(cls):
        return cls("random_nonzero_error")

    @classmethod
    def fixed_error(cls, e: int):
        return cls("fixed_error", error=e)

    @classmethod
    def weight_bounded_error(cls, w: int):
        return cls("weight_bounded_error", max_weight=w)

    @classmethod
    def exhaustive_best(cls):
        return cls("exhaustive_best")


@dataclass(frozen=True)
class Scenario:
    """Two sources, one relay, one sink, with per-edge channels.

    chan_21/chan_12 are the source-to-source overhearing links, chan_31 and
    chan_32 the relay-to-source ones.
    """

    spec: FieldSpec
    hf: HashFunction
    x1: FieldElement
    x2: FieldElement
    a1: FieldElement
    a2: FieldElement
    chan_12: BinarySymmetricChannel
    chan_21: BinarySymmetricChannel
    chan_31: BinarySymmetricChannel
    chan_32: BinarySymmetricChannel
    epsilon: float

    def __post_init__(self):
        if self.a1.value == 0 or self.a2.value == 0:
            raise ValueError("zero coding coefficients degenerate the check")

    def honest_relay_value(self) -> FieldElement:
        return self.a1 * self.x1 + self.a2 * self.x2

    def source_packet(self, which: int) -> Packet:
        x = self.x1 if which == 1 else self.x2
        return Packet(evaluate(self.hf, x), x.value)


def _choose_error(scn: Scenario, strategy: AdversaryStrategy, rng) -> int:
    order = scn.spec.order
    if strategy.kind == "honest":
        return 0
    if strategy.kind == "fixed_error":
        if not (0 < strategy.error < order):
            raise ValueError(f"fixed error {strategy.error} not a nonzero {scn.spec.n}-bit word")
        return strategy.error
    if strategy.kind == "random_nonzero_error":
        return rng.randrange(1, order)
    if strategy.kind == "weight_bounded_error":
        w = min(strategy.max_weight, scn.spec.n)
        while True:
            e = rng.randrange(1, order)
            if e.bit_count() <= w:
                return e
    return _best_error(scn)


def _best_error(scn: Scenario) -> int:
    """Error maximizing the zero-noise pass chance, by scanning the whole field.

    For each candidate error the product over the two watchers of the
    surviving-intersection size (computed on noise-free observations at the
    configured radii) measures how well the corruption hides; ties break
    toward the larger pass-count sum, then the smaller error word.
    """
    n = scn.spec.n
    if n > EXHAUSTIVE_MAX_WIDTH:
        raise ValueError(f"exhaustive_best scans 2^n errors; n <= {EXHAUSTIVE_MAX_WIDTH} required")
    honest = scn.honest_relay_value()
    honest_hash = evaluate(scn.hf, honest)
    watchers = []
    for w, peer in ((1, scn.source_packet(2)), (2, scn.source_packet(1))):
        # the peer side of a watcher's check does not depend on the error
        obs = _observation(w, scn, peer.own_hash, honest_hash, peer.payload, honest.value)
        watchers.append((w, peer, peer_images(obs)))

    def hiding(e: int) -> tuple[int, int, int]:
        corrupted = FieldElement(honest.value ^ e, scn.spec)
        relay_hash = evaluate(scn.hf, corrupted)
        c1, c2 = (
            check_relay(_observation(w, scn, peer.own_hash, relay_hash, peer.payload, corrupted.value), side)
            .diagnostics["surviving"]
            for w, peer, side in watchers
        )
        return (c1 * c2, c1 + c2, -e)

    return max(range(1, scn.spec.order), key=hiding)


def _observation(
    watcher: int,
    scn: Scenario,
    peer_hash: HashValue,
    relay_hash: HashValue,
    peer_payload: int,
    relay_payload: int,
    rng=None,
) -> Observation:
    """One watcher's view of a round: its own value and coefficients, its two links.

    With an rng the peer payload, then the relay payload, cross the
    watcher's overhearing links; without one both arrive exact.
    """
    if watcher == 1:
        own, a_own, a_peer, peer_chan, relay_chan = scn.x1, scn.a1, scn.a2, scn.chan_21, scn.chan_31
    else:
        own, a_own, a_peer, peer_chan, relay_chan = scn.x2, scn.a2, scn.a1, scn.chan_12, scn.chan_32
    if rng is not None:
        peer_payload = transmit(peer_chan, peer_payload, scn.spec.n, rng)
        relay_payload = transmit(relay_chan, relay_payload, scn.spec.n, rng)
    return Observation(
        own_value=own,
        own_coeff=a_own,
        peer_coeff=a_peer,
        peer_hash=peer_hash,
        relay_hash=relay_hash,
        noisy_peer=peer_payload,
        noisy_relay=relay_payload,
        peer_channel=peer_chan,
        relay_channel=relay_chan,
        epsilon=scn.epsilon,
        hf=scn.hf,
    )


def relay_output(scn: Scenario, strategy: AdversaryStrategy, rng) -> Packet:
    """The relay's transmitted packet, honest or corrupted per the strategy."""
    e = _choose_error(scn, strategy, rng)
    payload = scn.honest_relay_value().value ^ e
    return Packet(evaluate(scn.hf, FieldElement(payload, scn.spec)), payload)


def observe(watcher: int, scn: Scenario, source_packets: tuple[Packet, Packet], relay_packet: Packet, rng) -> Observation:
    """What one source-side watcher gathers: intact headers, noisy payloads."""
    if watcher not in (1, 2):
        raise ValueError("watcher must be node 1 or 2")
    peer = source_packets[1] if watcher == 1 else source_packets[0]
    return _observation(watcher, scn, peer.own_hash, relay_packet.own_hash, peer.payload, relay_packet.payload, rng)
