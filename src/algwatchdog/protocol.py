"""Packets, the two-source/one-relay scenario, relay behaviors, and overhearing.

A packet carries the coding coefficients and hashes as reliable header
fields and the coded payload as the only noise-exposed part.  The relay is
either honest or injects a nonzero error into its payload while keeping its
own hash consistent with the corrupted payload (the downstream receiver
checks that hash, so an inconsistent one would be caught immediately).
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import BinarySymmetricChannel, transmit
from .gf2n import FieldElement, FieldSpec, canonical_spec
from .hashing import HashFunction, HashValue, evaluate
from .watchdog import Observation, algebraic_check

EXHAUSTIVE_MAX_WIDTH = 12
WIRE_VERSION = 1


class PacketDecodeError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Packet:
    coeffs: tuple[FieldElement, ...]
    neighbor_hashes: tuple[HashValue, ...]
    own_hash: HashValue
    payload: int

    def __post_init__(self):
        if len(self.coeffs) != len(self.neighbor_hashes):
            raise ValueError("one neighbor hash per coding coefficient")


def _is_int(value) -> bool:
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
        if self.kind == "fixed_error" and not (_is_int(self.error) and self.error):
            raise ValueError(f"fixed_error requires a nonzero error word, got error={self.error!r}")
        if self.kind == "weight_bounded_error" and not (_is_int(self.max_weight) and self.max_weight >= 1):
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
    allow_zero_coeffs: bool = False

    def __post_init__(self):
        if not self.allow_zero_coeffs and (self.a1.value == 0 or self.a2.value == 0):
            raise ValueError("zero coding coefficients degenerate the check; override explicitly")

    def honest_relay_value(self) -> FieldElement:
        return self.a1 * self.x1 + self.a2 * self.x2

    def source_packet(self, which: int) -> Packet:
        x = self.x1 if which == 1 else self.x2
        return Packet((), (), evaluate(self.hf, x), x.value)


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
    honest = scn.honest_relay_value().value
    peers = ((1, scn.source_packet(2)), (2, scn.source_packet(1)))

    def hiding(e: int) -> tuple[int, int, int]:
        corrupted = FieldElement(honest ^ e, scn.spec)
        relay_hash = evaluate(scn.hf, corrupted)
        c1, c2 = (
            algebraic_check(_observation(w, scn, peer.own_hash, relay_hash, peer.payload, corrupted.value))
            .diagnostics["surviving"]
            for w, peer in peers
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
    payload_elem = FieldElement(payload, scn.spec)
    return Packet(
        coeffs=(scn.a1, scn.a2),
        neighbor_hashes=(evaluate(scn.hf, scn.x1), evaluate(scn.hf, scn.x2)),
        own_hash=evaluate(scn.hf, payload_elem),
        payload=payload,
    )


def observe(watcher: int, scn: Scenario, source_packets: tuple[Packet, Packet], relay_packet: Packet, rng) -> Observation:
    """What one source-side watcher gathers: intact headers, noisy payloads."""
    if watcher not in (1, 2):
        raise ValueError("watcher must be node 1 or 2")
    peer = source_packets[1] if watcher == 1 else source_packets[0]
    return _observation(watcher, scn, peer.own_hash, relay_packet.own_hash, peer.payload, relay_packet.payload, rng)


def _width_bytes(bits: int) -> int:
    return (bits + 7) // 8


def encode_packet(pkt: Packet, n: int, h: int) -> bytes:
    """Frame layout: [version][n][h][coeff count][coeffs][neighbor hashes][own hash][payload].

    Multi-byte fields are little-endian; sub-byte values are zero-padded to
    whole bytes.
    """
    cw, hw = _width_bytes(n), _width_bytes(h)
    out = bytearray([WIRE_VERSION, n, h, len(pkt.coeffs)])
    for c in pkt.coeffs:
        out += c.value.to_bytes(cw, "little")
    for hv in pkt.neighbor_hashes:
        out += hv.value.to_bytes(hw, "little")
    out += pkt.own_hash.value.to_bytes(hw, "little")
    out += pkt.payload.to_bytes(cw, "little")
    return bytes(out)


def decode_packet(frame: bytes) -> Packet:
    """Parse a wire frame; the field is reconstructed as the canonical GF(2^n)."""
    if len(frame) < 4:
        raise PacketDecodeError("truncated header", len(frame))
    if frame[0] != WIRE_VERSION:
        raise PacketDecodeError(f"unsupported version {frame[0]}", 0)
    n, h, count = frame[1], frame[2], frame[3]
    try:
        spec = canonical_spec(n)
    except Exception:
        raise PacketDecodeError(f"unsupported field width {n}", 1)
    if not (1 <= h <= n):
        raise PacketDecodeError(f"hash width {h} outside [1, {n}]", 2)
    cw, hw = _width_bytes(n), _width_bytes(h)
    expected = 4 + count * cw + (count + 1) * hw + cw
    if len(frame) != expected:
        raise PacketDecodeError(f"frame length {len(frame)}, expected {expected}", min(len(frame), expected))
    pos = 4

    def take(nbytes: int, limit: int, what: str) -> int:
        nonlocal pos
        v = int.from_bytes(frame[pos : pos + nbytes], "little")
        if v >= limit:
            raise PacketDecodeError(f"{what} value {v} out of range", pos)
        pos += nbytes
        return v

    coeffs = tuple(FieldElement(take(cw, spec.order, "coefficient"), spec) for _ in range(count))
    nh = tuple(HashValue(take(hw, 1 << h, "neighbor hash"), h) for _ in range(count))
    own = HashValue(take(hw, 1 << h, "own hash"), h)
    payload = take(cw, spec.order, "payload")
    return Packet(coeffs, nh, own, payload)
