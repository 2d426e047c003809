"""Relay behavior and overhearing tests.

Packets carry only the hash and the payload; the watchers read the coding
coefficients from the Scenario, which stands for the reliable headers.
"""

import random

import pytest

from algwatchdog.channel import BinarySymmetricChannel, noise_mask, radius_for_epsilon
from algwatchdog.gf2n import FieldElement, canonical_spec
from algwatchdog.hashing import evaluate, sample
from algwatchdog.protocol import (
    AdversaryStrategy,
    Scenario,
    _observation,
    link_noise,
    observe,
    relay_output,
    view_words,
    views,
)
from algwatchdog.watchdog import algebraic_check, survivors_by_relay_word

GF16 = canonical_spec(4)
GF32 = canonical_spec(5)
GF256 = canonical_spec(8)


def make_scenario(spec=GF16, x1=0b0101, x2=0b0111, a1=1, a2=1, p=0.0, h=2, seed=0, epsilon=0.01):
    rng = random.Random(seed)
    hf = sample(rng, 3, spec, h)
    chan = BinarySymmetricChannel(p)
    return Scenario(
        spec=spec, hf=hf,
        x1=FieldElement(x1, spec), x2=FieldElement(x2, spec),
        a1=FieldElement(a1, spec), a2=FieldElement(a2, spec),
        chan_12=chan, chan_21=chan, chan_31=chan, chan_32=chan,
        epsilon=epsilon,
    )


def reference_pass_counts(scn, e):
    """(c1, c2): how many words survive each watcher's noise-free check of error e.

    Candidate sets come from a full field scan with Hamming distance and
    scalar hash evaluation; no ball enumeration or vector arithmetic.
    """
    spec, hf = scn.spec, scn.hf
    corrupted = scn.honest_relay_value().value ^ e
    relay_hash = evaluate(hf, FieldElement(corrupted, spec))
    words = [FieldElement(w, spec) for w in range(spec.order)]
    counts = []
    for own, peer, a_own, a_peer, peer_chan, relay_chan in (
        (scn.x1, scn.x2, scn.a1, scn.a2, scn.chan_21, scn.chan_31),
        (scn.x2, scn.x1, scn.a2, scn.a1, scn.chan_12, scn.chan_32),
    ):
        r_peer = radius_for_epsilon(spec.n, peer_chan.p, scn.epsilon).r
        r_relay = radius_for_epsilon(spec.n, relay_chan.p, scn.epsilon).r
        peer_hash = evaluate(hf, peer)
        peer_cands = [x for x in words if (x.value ^ peer.value).bit_count() <= r_peer and evaluate(hf, x) == peer_hash]
        relay_cands = {
            y.value for y in words if (y.value ^ corrupted).bit_count() <= r_relay and evaluate(hf, y) == relay_hash
        }
        counts.append(len({(a_own * own + a_peer * x).value for x in peer_cands} & relay_cands))
    return counts


class TestRelayOutput:
    def test_honest_xor_of_sources(self):
        scn = make_scenario()
        pkt = relay_output(scn, AdversaryStrategy.honest(), random.Random(1))
        assert pkt.payload == 0b0010
        assert pkt.own_hash == evaluate(scn.hf, FieldElement(pkt.payload, scn.spec))

    def test_honest_packet_valid_under_random_coefficients(self):
        rng = random.Random(11)
        for _ in range(50):
            scn = make_scenario(
                x1=rng.randrange(16), x2=rng.randrange(16),
                a1=rng.randrange(1, 16), a2=rng.randrange(1, 16), seed=rng.random(),
            )
            pkt = relay_output(scn, AdversaryStrategy.honest(), rng)
            assert pkt.payload == scn.honest_relay_value().value
            assert pkt.own_hash == evaluate(scn.hf, FieldElement(pkt.payload, scn.spec))

    def test_fixed_error_offsets_payload(self):
        scn = make_scenario()
        pkt = relay_output(scn, AdversaryStrategy.fixed_error(0b1001), random.Random(1))
        assert pkt.payload == 0b0010 ^ 0b1001
        assert pkt.own_hash == evaluate(scn.hf, FieldElement(pkt.payload, scn.spec))

    def test_fixed_zero_error_rejected(self):
        with pytest.raises(ValueError):
            AdversaryStrategy.fixed_error(0)

    def test_random_nonzero_error_statistics(self):
        scn = make_scenario(spec=GF256, h=3)
        rng = random.Random(2)
        honest = scn.honest_relay_value().value
        errors = {relay_output(scn, AdversaryStrategy.random_nonzero_error(), rng).payload ^ honest for _ in range(10_000)}
        assert 0 not in errors
        assert len(errors) > 200

    def test_weight_bounded_error(self):
        scn = make_scenario(spec=GF256, h=3)
        rng = random.Random(3)
        honest = scn.honest_relay_value().value
        for _ in range(200):
            pkt = relay_output(scn, AdversaryStrategy.weight_bounded_error(2), rng)
            e = pkt.payload ^ honest
            assert 1 <= e.bit_count() <= 2

    def test_exhaustive_best_returns_nonzero_error(self):
        scn = make_scenario(p=0.1)
        pkt = relay_output(scn, AdversaryStrategy.exhaustive_best(), random.Random(4))
        assert pkt.payload != scn.honest_relay_value().value

    @pytest.mark.parametrize("seed, p", [(1, 0.1), (5, 0.2)])
    def test_exhaustive_best_maximizes_pass_counts(self, seed, p):
        scn = make_scenario(spec=GF32, x1=0b10110, x2=0b01011, a1=3, a2=7, p=p, h=2, seed=seed)

        def key(e):
            c1, c2 = reference_pass_counts(scn, e)
            return (c1 * c2, c1 + c2, -e)

        want = max(range(1, scn.spec.order), key=key)
        assert key(want)[0] > 0
        pkt = relay_output(scn, AdversaryStrategy.exhaustive_best(), random.Random(4))
        assert pkt.payload ^ scn.honest_relay_value().value == want

    @pytest.mark.parametrize(
        "spec, p, h, seed",
        [(GF32, 0.0, 2, 1), (GF32, 0.1, 2, 2), (GF32, 0.2, 3, 3), (canonical_spec(6), 0.1, 1, 4),
         (canonical_spec(6), 0.05, 4, 5), (canonical_spec(6), 0.5, 2, 6)],
    )
    def test_batched_survivors_match_check_relay(self, spec, p, h, seed):
        # the whole-field count behind exhaustive_best against the
        # per-observation kernel, error by error, for both watchers
        rng = random.Random(seed)
        scn = make_scenario(
            spec=spec, x1=rng.randrange(spec.order), x2=rng.randrange(spec.order),
            a1=rng.randrange(1, spec.order), a2=rng.randrange(1, spec.order), p=p, h=h, seed=seed,
        )
        honest = scn.honest_payload
        for w, peer in ((1, scn.source_packet(2)), (2, scn.source_packet(1))):
            obs = _observation(w, scn, peer.own_hash, scn.hf.of_word(honest), peer.payload, honest)
            counts = survivors_by_relay_word(obs)
            for e in range(1, spec.order):
                relay = honest ^ e
                one = _observation(w, scn, peer.own_hash, scn.hf.of_word(relay), peer.payload, relay)
                assert counts[relay] == algebraic_check(one).diagnostics["surviving"]

    def test_exhaustive_best_cost_error_at_large_n(self):
        spec = canonical_spec(14)
        scn = make_scenario(spec=spec, x1=5, x2=9, h=4, p=0.05)
        with pytest.raises(ValueError, match="exhaustive"):
            relay_output(scn, AdversaryStrategy.exhaustive_best(), random.Random(5))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            AdversaryStrategy("omniscient")


class TestObserve:
    def test_noiseless_overhearing_is_exact(self):
        scn = make_scenario(p=0.0)
        sources = (scn.source_packet(1), scn.source_packet(2))
        relay = relay_output(scn, AdversaryStrategy.honest(), random.Random(1))
        obs = observe(1, scn, sources, relay, random.Random(2))
        assert obs.noisy_peer == scn.x2.value
        assert obs.noisy_relay == relay.payload

    def test_headers_never_corrupted(self):
        scn = make_scenario(p=0.5)
        sources = (scn.source_packet(1), scn.source_packet(2))
        relay = relay_output(scn, AdversaryStrategy.honest(), random.Random(1))
        rng = random.Random(3)
        for watcher in (1, 2):
            for _ in range(20):
                obs = observe(watcher, scn, sources, relay, rng)
                peer = scn.x2 if watcher == 1 else scn.x1
                assert obs.peer_hash == evaluate(scn.hf, peer)
                assert obs.relay_hash == relay.own_hash
                assert (obs.own_coeff, obs.peer_coeff) == ((scn.a1, scn.a2) if watcher == 1 else (scn.a2, scn.a1))

    def test_mean_overheard_distance(self):
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, h=3, p=0.1)
        sources = (scn.source_packet(1), scn.source_packet(2))
        relay = relay_output(scn, AdversaryStrategy.honest(), random.Random(1))
        rng = random.Random(4)
        total = sum(
            (observe(1, scn, sources, relay, rng).noisy_relay ^ relay.payload).bit_count()
            for _ in range(10_000)
        )
        sigma = (8 * 0.1 * 0.9) ** 0.5
        assert abs(total / 10_000 - 0.8) <= 3 * sigma / 100

    def test_peer_noise_drawn_before_relay_noise(self):
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, h=3, p=0.3)
        sources = (scn.source_packet(1), scn.source_packet(2))
        relay = relay_output(scn, AdversaryStrategy.honest(), random.Random(1))
        obs = observe(2, scn, sources, relay, random.Random(6))
        rng = random.Random(6)
        assert obs.noisy_peer == scn.x1.value ^ noise_mask(scn.chan_12, 8, rng)
        assert obs.noisy_relay == relay.payload ^ noise_mask(scn.chan_32, 8, rng)

    @pytest.mark.parametrize("watcher", [1, 2])
    def test_reobserve_crosses_the_same_channel_realization(self, watcher):
        # `views` observes the corrupted payload again across the honest one's
        # channel realization: each view is what `observe` gives for that
        # payload from the rng the honest view was drawn from
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, h=3, p=0.3)
        sources = (scn.source_packet(1), scn.source_packet(2))
        honest = relay_output(scn, AdversaryStrategy.honest(), random.Random(1))
        for seed in range(20):
            corrupted = relay_output(scn, AdversaryStrategy.random_nonzero_error(), random.Random(seed))
            arms = views(scn, [honest.payload, corrupted.payload], link_noise(scn, random.Random(seed)))
            for arm, relay in zip(arms, (honest, corrupted)):
                rng = random.Random(seed)
                want = [observe(w, scn, sources, relay, rng) for w in (1, 2)]
                assert arm[watcher - 1] == want[watcher - 1]

    def test_link_noise_and_view_draw_what_observe_draws(self):
        # one channel realization per round, in observe's order: the harness's draw step relies on it
        scn = Scenario(
            spec=GF256, hf=sample(random.Random(7), 3, GF256, 3),
            x1=FieldElement(0x31, GF256), x2=FieldElement(0x7C, GF256),
            a1=FieldElement(3, GF256), a2=FieldElement(9, GF256),
            chan_12=BinarySymmetricChannel(0.3), chan_21=BinarySymmetricChannel(0.1),
            chan_31=BinarySymmetricChannel(0.0), chan_32=BinarySymmetricChannel(0.5), epsilon=0.01,
        )
        sources = (scn.source_packet(1), scn.source_packet(2))
        for seed in range(20):
            relay = relay_output(scn, AdversaryStrategy.random_nonzero_error(), random.Random(seed))
            rng = random.Random(seed)
            want = [observe(w, scn, sources, relay, rng) for w in (1, 2)]
            noise = link_noise(scn, random.Random(seed))
            assert views(scn, [relay.payload], noise) == [want]
            for w, obs in zip((1, 2), want):
                assert view_words(w, scn, [relay.payload], noise[w - 1]) == [
                    obs.own_value.value, obs.own_coeff.value, obs.peer_coeff.value, obs.peer_hash.value,
                    obs.noisy_peer, obs.relay_hash.value, obs.noisy_relay,
                ]

    def test_bad_watcher_id(self):
        scn = make_scenario()
        with pytest.raises(ValueError):
            observe(3, scn, (scn.source_packet(1), scn.source_packet(2)), relay_output(scn, AdversaryStrategy.honest(), random.Random(1)), random.Random(1))


def test_zero_coefficients_need_override():
    # no override exists: a zero coefficient is always rejected
    spec = GF16
    rng = random.Random(0)
    hf = sample(rng, 3, spec, 2)
    chan = BinarySymmetricChannel(0.0)
    with pytest.raises(ValueError):
        Scenario(
            spec=spec, hf=hf,
            x1=FieldElement(1, spec), x2=FieldElement(2, spec),
            a1=FieldElement(0, spec), a2=FieldElement(1, spec),
            chan_12=chan, chan_21=chan, chan_31=chan, chan_32=chan,
            epsilon=0.01,
        )
