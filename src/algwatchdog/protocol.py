"""Packets, the two-source/one-relay scenario, relay behaviors, and overhearing.

Headers are reliable: the watchers know the coding coefficients through the
`Scenario`, which stands for the overheard headers, so a packet carries only
its own hash and the coded payload, the one noise-exposed part.  The relay is
either honest or injects a nonzero error into its payload while keeping its
own hash consistent with the corrupted payload (the downstream receiver
checks that hash, so an inconsistent one would be caught immediately).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import BinarySymmetricChannel, noise_mask, transmit  # noqa: F401
from .gf2n import FieldElement, FieldSpec
# packets hash through `HashFunction.of_word` and noise comes from
# `noise_mask`; `evaluate` and `transmit` stay importable here because the
# benchmark's tracer wraps `protocol.evaluate` and `protocol.transmit`
from .hashing import HashFunction, HashValue, evaluate  # noqa: F401
from .watchdog import Observation, survivors_by_relay_word

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
        for name, kind in (("error", "fixed_error"), ("max_weight", "weight_bounded_error")):
            value = getattr(self, name)
            if value is not None and self.kind != kind:
                raise ValueError(f"{name}={value!r} applies only to {kind}, not to {self.kind}")

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

    # a1*x1 + a2*x2 as a word: what an honest relay forwards
    honest_payload: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.a1.value == 0 or self.a2.value == 0:
            raise ValueError("zero coding coefficients degenerate the check")
        mul = self.spec.mul
        honest = mul(self.a1.value, self.x1.value) ^ mul(self.a2.value, self.x2.value)
        object.__setattr__(self, "honest_payload", honest)

    def honest_relay_value(self) -> FieldElement:
        return FieldElement(self.honest_payload, self.spec)

    def source_packet(self, which: int) -> Packet:
        x = (self.x1 if which == 1 else self.x2).value
        return Packet(self.hf.of_word(x), x)


def draw_error(strategy: AdversaryStrategy, spec: FieldSpec, rng) -> int:
    """The relay's error word under every strategy but exhaustive_best, drawn from rng.

    exhaustive_best draws nothing: its error is a function of the scenario
    (`relay_output` computes it).
    """
    order = spec.order
    if strategy.kind == "honest":
        return 0
    if strategy.kind == "fixed_error":
        if not (0 < strategy.error < order):
            raise ValueError(f"fixed error {strategy.error} not a nonzero {spec.n}-bit word")
        return strategy.error
    if strategy.kind == "random_nonzero_error":
        return rng.randrange(1, order)
    if strategy.kind == "weight_bounded_error":
        w = min(strategy.max_weight, spec.n)
        while True:
            e = rng.randrange(1, order)
            if e.bit_count() <= w:
                return e
    raise ValueError(f"{strategy.kind} draws no error; its error is a function of the scenario")


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
    honest = scn.honest_payload
    hash_of = scn.hf.of_word
    errors = np.arange(1, scn.spec.order)
    counts = []
    for w in (1, 2):
        peer = roles(w, scn)[3].value
        obs = _observation(w, scn, hash_of(peer), hash_of(honest), peer, honest)
        # the watcher's survivor count for every relay word it could overhear
        counts.append(survivors_by_relay_word(obs)[honest ^ errors])
    c1, c2 = counts
    # the last error in (c1 * c2, c1 + c2, -e) order
    return int(errors[np.lexsort((-errors, c1 + c2, c1 * c2))[-1]])


def watcher_links(
    chan_12: BinarySymmetricChannel,
    chan_21: BinarySymmetricChannel,
    chan_31: BinarySymmetricChannel,
    chan_32: BinarySymmetricChannel,
) -> tuple[tuple[BinarySymmetricChannel, BinarySymmetricChannel], ...]:
    """Each watcher's (peer link, relay link), watcher 1 first, from a `Scenario`'s four channel fields."""
    return (chan_21, chan_31), (chan_12, chan_32)


def roles(
    watcher: int, scn: Scenario
) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement, BinarySymmetricChannel, BinarySymmetricChannel]:
    """A watcher's own value, own and peer coefficients, peer's value, and peer and relay links.

    Watcher w's own value and coefficient are node w's, its peer the other
    source; `view_rows` lays its rows out in the same roles.
    """
    links = watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)[watcher - 1]
    if watcher == 1:
        return scn.x1, scn.a1, scn.a2, scn.x2, *links
    return scn.x2, scn.a2, scn.a1, scn.x1, *links


def _observation(
    watcher: int,
    scn: Scenario,
    peer_hash: HashValue,
    relay_hash: HashValue,
    peer_payload: int,
    relay_payload: int,
) -> Observation:
    """One watcher's view of a round: its own value and coefficients, its two links, the payloads as overheard."""
    own, a_own, a_peer, _, peer_chan, relay_chan = roles(watcher, scn)
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
    if strategy.kind == "exhaustive_best":
        error = _best_error(scn)
    else:
        error = draw_error(strategy, scn.spec, rng)
    payload = scn.honest_payload ^ error
    return Packet(scn.hf.of_word(payload), payload)


def observe(watcher: int, scn: Scenario, source_packets: tuple[Packet, Packet], relay_packet: Packet, rng) -> Observation:
    """What one source-side watcher gathers: intact headers, noisy payloads."""
    if watcher not in (1, 2):
        raise ValueError("watcher must be node 1 or 2")
    peer = source_packets[1] if watcher == 1 else source_packets[0]
    peer_noise, relay_noise = _noise(watcher, scn, rng)
    return _observation(
        watcher, scn, peer.own_hash, relay_packet.own_hash, peer.payload ^ peer_noise, relay_packet.payload ^ relay_noise
    )


def _noise(watcher: int, scn: Scenario, rng) -> tuple[int, int]:
    """The error patterns of the watcher's peer link, then its relay link, drawn from rng."""
    return noise_masks([roles(watcher, scn)[4:]], scn.spec.n, rng)[0]


def noise_masks(links, n: int, rng) -> tuple[tuple[int, int], ...]:
    """The n-bit error patterns of each (peer link, relay link) pair in turn, peer link first, drawn from rng."""
    return tuple((noise_mask(peer_chan, n, rng), noise_mask(relay_chan, n, rng)) for peer_chan, relay_chan in links)


def link_noise(scn: Scenario, rng) -> tuple[tuple[int, int], tuple[int, int]]:
    """One round's channel realization: each watcher's (peer link, relay link) error patterns.

    Drawn as `observe` draws them for watcher 1, then watcher 2: with
    equally seeded rngs, `views(scn, [relay_packet.payload],
    link_noise(scn, rng))[0]` lists what `observe(w, scn, sources,
    relay_packet, rng)` returns called for w = 1, then 2.
    """
    return noise_masks(watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32), scn.spec.n, rng)


def views(scn: Scenario, relay_payloads, noise) -> list[list[Observation]]:
    """Both watchers' observations of each relay payload in turn: entry [a][w - 1] is watcher w's of payload a.

    `noise` is the round's channel realization, from `link_noise`; every
    payload crosses it, so a corrupted payload picks up the error patterns
    the honest one did, and the views of one watcher share its peer side.
    """
    hash_of = scn.hf.of_word
    relay_hashes = [hash_of(payload) for payload in relay_payloads]
    out = [[] for _ in relay_payloads]
    for watcher, (peer_noise, relay_noise) in zip((1, 2), noise):
        peer = roles(watcher, scn)[3].value
        peer_hash = hash_of(peer)
        for arm, payload, relay_hash in zip(out, relay_payloads, relay_hashes):
            arm.append(_observation(watcher, scn, peer_hash, relay_hash, peer ^ peer_noise, payload ^ relay_noise))
    return out


def view_words(watcher: int, scn: Scenario, relay_payloads, noise: tuple[int, int]) -> list[int]:
    """The integer fields of the watcher's `views` of each relay payload in turn, as one flat row.

    `noise` is the watcher's (peer link, relay link) error patterns; the
    row is the watcher's row of `view_rows` for this one trial.
    """
    sources, coeffs = [[scn.x1.value, scn.x2.value]], [[scn.a1.value, scn.a2.value]]
    # the other watcher's row, built on the same noise, is dropped
    rows = view_rows(sources, coeffs, scn.hf.table[None], [relay_payloads], [[noise, noise]])
    return rows[0, watcher - 1].tolist()


def view_rows(sources, coeffs, tables: np.ndarray, relay_payloads, noise) -> np.ndarray:
    """Both watchers' views of each relay payload, for a batch of B trials, as rows of integers.

    sources and coeffs are (B, 2): x1, x2 and a1, a2 per trial.  tables is
    the (B, 2^n) hash tables, relay_payloads (B, A) the words the relay
    arms send, and noise (B, 2, 2) each watcher's (peer link, relay link)
    error patterns, as `link_noise` gives them.  Row [b, w - 1] is watcher
    w's: own value, own coefficient, peer coefficient, peer hash and noisy
    peer payload, then relay hash and noisy relay payload for each relay
    payload, in the roles `roles` gives.  This is the layout
    `watchdog.trellis_batch` and `watchdog.algebraic_batch` read.
    """
    own = np.asarray(sources, dtype=np.int64)
    a_own = np.asarray(coeffs, dtype=np.int64)
    payloads = np.asarray(relay_payloads, dtype=np.int64)
    noise = np.asarray(noise, dtype=np.int64)
    batch, arms = payloads.shape
    # watcher w's peer is the other source, its peer coefficient the other coefficient
    peer, a_peer = own[:, ::-1], a_own[:, ::-1]
    trial = np.arange(batch)[:, None]
    rows = np.empty((batch, 2, 5 + 2 * arms), dtype=np.int64)
    rows[:, :, 0], rows[:, :, 1], rows[:, :, 2] = own, a_own, a_peer
    rows[:, :, 3] = tables[trial, peer]
    rows[:, :, 4] = peer ^ noise[:, :, 0]
    rows[:, :, 5::2] = tables[trial, payloads][:, None, :]
    rows[:, :, 6::2] = payloads[:, None, :] ^ noise[:, :, 1:]
    return rows
