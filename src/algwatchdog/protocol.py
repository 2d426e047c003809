"""The two-source/one-relay scenario, relay behaviors, and overhearing.

Headers are reliable: the watchers know the coding coefficients through the
`Scenario`, which stands for the overheard headers, and each node's hash, an
`evaluate` read of its payload, so a packet is just its payload word, the one
noise-exposed part.  The relay is either honest or injects a nonzero error
into its payload while keeping its own hash consistent with the corrupted
payload (the receiver checks that hash, so an inconsistent one is caught).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# noise comes from `noise_mask`; `transmit` stays importable here because
# the benchmark's tracer wraps `protocol.transmit`
from .channel import BinarySymmetricChannel, noise_mask, radius_for_epsilon, transmit  # noqa: F401
from .gf2n import FieldElement, FieldSpec
from .hashing import HashFunction, evaluate
from .watchdog import Observation, relay_word_survivors

EXHAUSTIVE_MAX_WIDTH = 12


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON booleans load as bool, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AdversaryStrategy:
    """How the relay corrupts its output; `AdversaryStrategy("honest")` for no corruption."""

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
        mul = self.spec.mul_words
        honest = int(mul(self.a1.value, self.x1.value) ^ mul(self.a2.value, self.x2.value))
        object.__setattr__(self, "honest_payload", honest)

    def source_packet(self, which: int) -> int:
        """The payload word source `which`, node 1 or 2, transmits."""
        if which not in (1, 2):
            raise ValueError("source must be node 1 or 2")
        return (self.x1 if which == 1 else self.x2).value


def draws_below(rng, bounds) -> list[int]:
    """`rng.randrange(bound)` for each bound in turn, read from rng's MT19937 words as CPython reads it.

    randrange(b) reads getrandbits(b.bit_length()), the top bits of one
    32-bit output, until a read falls below b; randrange(1, b) is 1 +
    randrange(b - 1).  Reading those words directly draws the same values
    from the same stream without randrange's per-call cost, and keeps the
    draws fixed if a later Python changes how randrange is implemented,
    which it does not promise to keep.
    """
    getrandbits = rng.getrandbits
    out = []
    for bound in bounds:
        k = bound.bit_length()
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        out.append(r)
    return out


def draw_error(strategy: AdversaryStrategy, spec: FieldSpec, rng) -> int:
    """The relay's error word under every strategy but exhaustive_best, drawn from rng.

    A drawn error is a `draws_below` read of a nonzero word, repeated under
    weight_bounded_error until its weight is in bound.  exhaustive_best
    draws nothing: `best_errors` chooses its error.
    """
    order = spec.order
    if strategy.kind == "honest":
        return 0
    if strategy.kind == "fixed_error":
        if not (0 < strategy.error < order):
            raise ValueError(f"fixed error {strategy.error} not a nonzero {spec.n}-bit word")
        return strategy.error
    if strategy.kind in ("random_nonzero_error", "weight_bounded_error"):
        # random_nonzero_error sets no max_weight: every nonzero word is in bound
        w = strategy.max_weight or spec.n
        while True:
            [e] = draws_below(rng, (order - 1,))
            e += 1
            if e.bit_count() <= w:
                return e
    raise ValueError(f"{strategy.kind} draws no error; its error is a function of the scenario")


# best_errors scores at most this many table words of trials at once: its (B, 2, 2^n) survivor
# counts and score arrays grow with them (tracemalloc peak of one call, d = 3, p = 0.1: 256 trials
# at n = 10 and 64 at n = 12 reach 12.3 MB scored at once, 5.3 and 3.9 MB in slices)
_BEST_ERRORS_WORDS = 1 << 16


def best_errors(spec: FieldSpec, tables: np.ndarray, sources, coeffs, radii) -> np.ndarray:
    """exhaustive_best's error in each of B trials, chosen by scanning the whole field.

    tables, sources and coeffs are read as `view_rows` reads them, and
    radii[w] is watcher w's (peer radius, relay radius), in `watcher_links`
    order.  An error hides as well as the product of the watchers' survivor
    counts c1 * c2 on noise-free observations at those radii; ties break
    toward the larger c1 + c2, then the smaller error word.  The trials are
    scored in slices of `_BEST_ERRORS_WORDS` table words.
    """
    if spec.n > EXHAUSTIVE_MAX_WIDTH:
        raise ValueError(f"exhaustive_best scans 2^n errors; n <= {EXHAUSTIVE_MAX_WIDTH} required")
    sources, coeffs = np.asarray(sources, dtype=np.int64), np.asarray(coeffs, dtype=np.int64)
    step = max(1, _BEST_ERRORS_WORDS >> spec.n)
    if len(tables) > step:
        parts = (slice(lo, lo + step) for lo in range(0, len(tables), step))
        return np.concatenate([best_errors(spec, tables[p], sources[p], coeffs[p], radii) for p in parts])
    honest = spec.mul_words(coeffs[:, 0], sources[:, 0]) ^ spec.mul_words(coeffs[:, 1], sources[:, 1])
    batch = len(honest)
    # each watcher's noiseless peer side; the survivor counts read no relay arm
    rows = view_rows(sources, coeffs, tables, np.empty((batch, 0)), np.zeros((batch, 2, 2)))
    c1, c2 = relay_word_survivors(spec, tables, rows, radii).transpose(1, 0, 2)
    # relay words by (c1 * c2, c1 + c2), the honest word, error 0, last
    score = c1 * c2
    score[np.arange(batch), honest] = -1
    total = np.where(score == score.max(axis=1, keepdims=True), c1 + c2, -1)
    errors = np.arange(spec.order) ^ honest[:, None]
    # the smallest error among the relay words that tie on both
    return np.where(total == total.max(axis=1, keepdims=True), errors, spec.order).min(axis=1)


def watcher_links(
    chan_12: BinarySymmetricChannel,
    chan_21: BinarySymmetricChannel,
    chan_31: BinarySymmetricChannel,
    chan_32: BinarySymmetricChannel,
) -> tuple[tuple[BinarySymmetricChannel, BinarySymmetricChannel], ...]:
    """Each watcher's (peer link, relay link), watcher 1 first, from a `Scenario`'s four channel fields."""
    return (chan_21, chan_31), (chan_12, chan_32)


def watcher_radii(links, n: int, epsilon: float) -> tuple[tuple[int, int], ...]:
    """Each watcher's (peer, relay) radii: what `radius_for_epsilon` selects for its (peer link, relay link)."""
    return tuple(tuple(radius_for_epsilon(n, chan.p, epsilon).r for chan in link) for link in links)


def relay_output(scn: Scenario, strategy: AdversaryStrategy, rng) -> int:
    """The relay's transmitted payload word, honest or corrupted per the strategy."""
    if strategy.kind == "exhaustive_best":
        sources, coeffs = [[scn.x1.value, scn.x2.value]], [[scn.a1.value, scn.a2.value]]
        links = watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)
        radii = watcher_radii(links, scn.spec.n, scn.epsilon)
        error = int(best_errors(scn.spec, scn.hf.table[None], sources, coeffs, radii)[0])
    else:
        error = draw_error(strategy, scn.spec, rng)
    return scn.honest_payload ^ error


def observe(watcher: int, scn: Scenario, relay_payload: int, rng) -> Observation:
    """What one source-side watcher gathers: intact headers, noisy payloads.

    Watcher w's own value and coefficient are node w's, its peer the other
    source, whose payload comes from the scenario; `view_rows` lays its rows
    out in the same roles.  Both hashes are `evaluate` reads, of the peer's
    word and of relay_payload.  The peer link's error pattern is drawn from
    rng before the relay link's.
    """
    if watcher not in (1, 2):
        raise ValueError("watcher must be node 1 or 2")
    own, peer, a_own, a_peer = (scn.x1, scn.x2, scn.a1, scn.a2) if watcher == 1 else (scn.x2, scn.x1, scn.a2, scn.a1)
    peer_chan, relay_chan = watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)[watcher - 1]
    ((peer_noise, relay_noise),) = noise_masks([(peer_chan, relay_chan)], scn.spec.n, rng)
    return Observation(
        own_value=own,
        own_coeff=a_own,
        peer_coeff=a_peer,
        peer_hash=evaluate(scn.hf, peer),
        relay_hash=evaluate(scn.hf, FieldElement(relay_payload, scn.spec)),
        noisy_peer=peer.value ^ peer_noise,
        noisy_relay=relay_payload ^ relay_noise,
        peer_channel=peer_chan,
        relay_channel=relay_chan,
        epsilon=scn.epsilon,
        hf=scn.hf,
    )


def noise_masks(links, n: int, rng) -> tuple[tuple[int, int], ...]:
    """The n-bit error patterns of each (peer link, relay link) pair in turn, peer link first, drawn from rng."""
    return tuple((noise_mask(peer_chan, n, rng), noise_mask(relay_chan, n, rng)) for peer_chan, relay_chan in links)


def view_rows(sources, coeffs, tables: np.ndarray, relay_payloads, noise) -> np.ndarray:
    """Both watchers' views of each relay payload, for a batch of B trials, as rows of integers.

    sources and coeffs are (B, 2): x1, x2 and a1, a2 per trial.  tables is
    the (B, 2^n) hash tables, relay_payloads (B, A) the words the relay
    arms send, and noise (B, 2, 2) each watcher's (peer link, relay link)
    error patterns, as `noise_masks` draws them on `watcher_links`.  Row
    [b, w - 1] is watcher w's: own value, own coefficient, peer
    coefficient, peer hash and noisy peer payload, then relay hash and
    noisy relay payload for each relay payload, in the roles `observe`
    gives.  This is the layout `watchdog.trellis_batch` and
    `watchdog.algebraic_batch` read.
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
