"""Relay behavior and overhearing tests.

A packet is its payload word and its hash the `evaluate` read of that word;
the watchers read the coding coefficients from the Scenario, which stands
for the reliable headers.
"""

import dataclasses
import random

import numpy as np
import pytest

from algwatchdog.channel import BinarySymmetricChannel, noise_mask, radius_for_epsilon
from algwatchdog.gf2n import FieldElement, FieldError, canonical_spec
from algwatchdog.hashing import evaluate, sample
from algwatchdog.protocol import (
    AdversaryStrategy,
    Scenario,
    best_errors,
    draw_error,
    draws_below,
    noise_masks,
    observe,
    relay_output,
    view_rows,
    watcher_links,
)
from algwatchdog.watchdog import relay_word_survivors
from oracles import slow_mul, survivors_by_scan

GF16 = canonical_spec(4)
GF32 = canonical_spec(5)
GF256 = canonical_spec(8)


def make_scenario(spec=GF16, x1=0b0101, x2=0b0111, a1=1, a2=1, p=0.0, h=2, seed=0, epsilon=0.01):
    """A scenario whose links all have crossover probability p, or, for a 4-tuple p, p12, p21, p31 and p32."""
    rng = random.Random(seed)
    hf = sample(rng, 3, spec, h)
    probs = p if isinstance(p, tuple) else (p,) * 4
    chans = {f"chan_{link}": BinarySymmetricChannel(q) for link, q in zip(("12", "21", "31", "32"), probs)}
    return Scenario(
        spec=spec, hf=hf,
        x1=FieldElement(x1, spec), x2=FieldElement(x2, spec),
        a1=FieldElement(a1, spec), a2=FieldElement(a2, spec),
        epsilon=epsilon, **chans,
    )


def random_scenario(rng, spec, p, h):
    """make_scenario with sources, coefficients and hash drawn from rng."""
    return make_scenario(
        spec=spec, x1=rng.randrange(spec.order), x2=rng.randrange(spec.order),
        a1=rng.randrange(1, spec.order), a2=rng.randrange(1, spec.order), p=p, h=h, seed=rng.random(),
    )


def batch_arrays(scenarios):
    """The stacked tables, sources and coefficients of scenarios, as the harness's draw step holds them."""
    tables = np.stack([scn.hf.table for scn in scenarios])
    sources = [[scn.x1.value, scn.x2.value] for scn in scenarios]
    coeffs = [[scn.a1.value, scn.a2.value] for scn in scenarios]
    return tables, sources, coeffs


def scenario_links(scn):
    """Both watchers' (peer link, relay link) in scn, watcher 1 first."""
    return watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)


def link_radii(links, n, epsilon):
    """Each watcher's (peer, relay) radii, as `radius_for_epsilon` selects them for its links."""
    return [tuple(radius_for_epsilon(n, chan.p, epsilon).r for chan in link) for link in links]


def row_of(obs):
    """An observation's words in the order of a `view_rows` row with one relay arm."""
    return [
        obs.own_value.value, obs.own_coeff.value, obs.peer_coeff.value, obs.peer_hash,
        obs.noisy_peer, obs.relay_hash, obs.noisy_relay,
    ]


def best_error_key(scn):
    """exhaustive_best's order on errors, from `reference_pass_counts`: the best error is the largest."""
    def key(e):
        c1, c2 = reference_pass_counts(scn, e)
        return (c1 * c2, c1 + c2, -e)

    return key


def reference_pass_counts(scn, e):
    """(c1, c2): how many words survive each watcher's noise-free check of error e.

    Candidate sets come from a full field scan with Hamming distance and
    scalar hash evaluation; no ball enumeration or vector arithmetic.
    """
    spec, hf = scn.spec, scn.hf
    corrupted = scn.honest_payload ^ e
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
        coded = slow_mul(a_own.value, own.value, spec.reduction_poly)
        counts.append(len({coded ^ slow_mul(a_peer.value, x.value, spec.reduction_poly) for x in peer_cands} & relay_cands))
    return counts


class TestDrawsBelow:
    """The rejection read of MT19937 words against `random.Random.randrange`, which runs the same read."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_equals_randrange(self, n):
        order = 1 << n
        for seed in range(300):
            got, want = random.Random(seed), random.Random(seed)
            # randrange(1, order) is 1 + the read below order - 1
            values = draws_below(got, [order, order - 1, order, order - 1])
            values[1] += 1
            values[3] += 1
            assert values == [want.randrange(order), want.randrange(1, order), want.randrange(order), want.randrange(1, order)]
            assert got.getstate() == want.getstate()

    @pytest.mark.parametrize(
        "strategy",
        [AdversaryStrategy("random_nonzero_error"), AdversaryStrategy("weight_bounded_error", max_weight=2)],
        ids=["random_nonzero_error", "weight_bounded_error"],
    )
    def test_drawn_error_equals_randrange_loop(self, strategy):
        # draw_error's reads are what randrange(1, order) drew before they were read as words
        for seed in range(300):
            got, want = random.Random(seed), random.Random(seed)
            e = want.randrange(1, GF256.order)
            while strategy.max_weight and e.bit_count() > strategy.max_weight:
                e = want.randrange(1, GF256.order)
            assert draw_error(strategy, GF256, got) == e
            assert got.getstate() == want.getstate()


class TestRelayOutput:
    def test_honest_xor_of_sources(self):
        scn = make_scenario()
        payload = relay_output(scn, AdversaryStrategy("honest"), random.Random(1))
        assert payload == 0b0010 and type(payload) is int

    def test_honest_packet_valid_under_random_coefficients(self):
        rng = random.Random(11)
        for _ in range(50):
            scn = make_scenario(
                x1=rng.randrange(16), x2=rng.randrange(16),
                a1=rng.randrange(1, 16), a2=rng.randrange(1, 16), seed=rng.random(),
            )
            payload = relay_output(scn, AdversaryStrategy("honest"), rng)
            assert payload == scn.honest_payload and type(payload) is int

    def test_fixed_error_offsets_payload(self):
        scn = make_scenario()
        payload = relay_output(scn, AdversaryStrategy("fixed_error", error=0b1001), random.Random(1))
        assert payload == 0b0010 ^ 0b1001 and type(payload) is int

    def test_fixed_zero_error_rejected(self):
        with pytest.raises(ValueError):
            AdversaryStrategy("fixed_error", error=0)

    def test_fixed_error_outside_the_field_rejected(self):
        # validation stops such a config before a run; a direct call is refused too
        for error in (GF16.order, GF16.order + 3):
            with pytest.raises(ValueError, match=f"fixed error {error} not a nonzero 4-bit word"):
                draw_error(AdversaryStrategy("fixed_error", error=error), GF16, random.Random(1))

    def test_random_nonzero_error_statistics(self):
        scn = make_scenario(spec=GF256, h=3)
        rng = random.Random(2)
        honest = scn.honest_payload
        errors = {relay_output(scn, AdversaryStrategy("random_nonzero_error"), rng) ^ honest for _ in range(10_000)}
        assert 0 not in errors
        assert len(errors) > 200

    def test_weight_bounded_error(self):
        scn = make_scenario(spec=GF256, h=3)
        rng = random.Random(3)
        honest = scn.honest_payload
        for _ in range(200):
            e = relay_output(scn, AdversaryStrategy("weight_bounded_error", max_weight=2), rng) ^ honest
            assert 1 <= e.bit_count() <= 2

    def test_exhaustive_best_returns_nonzero_error(self):
        scn = make_scenario(p=0.1)
        payload = relay_output(scn, AdversaryStrategy("exhaustive_best"), random.Random(4))
        assert payload != scn.honest_payload and type(payload) is int

    @pytest.mark.parametrize(
        "seed, p",
        [
            (1, 0.1),
            (5, 0.2),
            # every watcher's peer and relay radii differ; a p=0 link has radius 0
            pytest.param(2, (0.05, 0.2, 0.0, 0.3), id="2-asymmetric"),
            pytest.param(3, (0.0, 0.1, 0.3, 0.05), id="3-asymmetric-p12-zero"),
        ],
    )
    def test_exhaustive_best_maximizes_pass_counts(self, seed, p):
        scn = make_scenario(spec=GF32, x1=0b10110, x2=0b01011, a1=3, a2=7, p=p, h=2, seed=seed)
        key = best_error_key(scn)
        want = max(range(1, scn.spec.order), key=key)
        assert key(want)[0] > 0
        payload = relay_output(scn, AdversaryStrategy("exhaustive_best"), random.Random(4))
        assert payload ^ scn.honest_payload == want

    def test_best_errors_of_a_batch_maximize_pass_counts(self):
        # one call picks every trial's error, as the harness's draw step makes it
        rng = random.Random(9)
        scenarios = [random_scenario(rng, GF32, (0.05, 0.2, 0.0, 0.3), rng.randrange(1, 4)) for _ in range(5)]
        radii = link_radii(scenario_links(scenarios[0]), GF32.n, scenarios[0].epsilon)
        got = best_errors(GF32, *batch_arrays(scenarios), radii)
        assert got.shape == (5,)
        keys = [best_error_key(scn) for scn in scenarios]
        want = [max(range(1, GF32.order), key=key) for key in keys]
        assert got.tolist() == want
        # in one trial at least, c1 + c2 breaks a tie in c1 * c2
        assert any(max(range(1, GF32.order), key=lambda e: key(e)[::2]) != e for key, e in zip(keys, want))

    @pytest.mark.parametrize(
        "spec, p, h, seed",
        [(GF32, 0.0, 2, 1), (GF32, 0.1, 2, 2), (GF32, 0.2, 3, 3), (canonical_spec(6), 0.1, 1, 4),
         (canonical_spec(6), 0.05, 4, 5), (canonical_spec(6), 0.5, 2, 6)],
    )
    def test_relay_word_survivors_match_survivor_scan(self, spec, p, h, seed):
        # the whole-field count behind exhaustive_best against a scan of
        # each observation, relay word by relay word, for both watchers of
        # three trials, each watcher's peer overheard through its noisy link
        rng = random.Random(seed)
        probs = (p, p / 2, 0.0, p)
        scenarios = [random_scenario(rng, spec, probs, h) for _ in range(3)]
        seeds = [rng.random() for _ in scenarios]
        links = watcher_links(*(BinarySymmetricChannel(q) for q in probs))
        noise = [noise_masks(links, spec.n, random.Random(seed)) for seed in seeds]
        tables, sources, coeffs = batch_arrays(scenarios)
        honest = [[scn.honest_payload] for scn in scenarios]
        rows = view_rows(sources, coeffs, tables, honest, noise)
        radii = link_radii(links, spec.n, 0.01)
        counts = relay_word_survivors(spec, tables, rows, radii)
        assert counts.shape == (3, 2, spec.order)
        for b, (scn, seed) in enumerate(zip(scenarios, seeds)):
            payload, noise_rng = relay_output(scn, AdversaryStrategy("honest"), rng), random.Random(seed)
            for w in (1, 2):
                obs = observe(w, scn, payload, noise_rng)
                for relay in range(spec.order):
                    one = dataclasses.replace(obs, relay_hash=evaluate(scn.hf, FieldElement(relay, spec)), noisy_relay=relay)
                    assert counts[b, w - 1, relay] == survivors_by_scan(one, *radii[w - 1])

    def test_exhaustive_best_cost_error_at_large_n(self):
        spec = canonical_spec(14)
        scn = make_scenario(spec=spec, x1=5, x2=9, h=4, p=0.05)
        with pytest.raises(ValueError, match="exhaustive"):
            relay_output(scn, AdversaryStrategy("exhaustive_best"), random.Random(5))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            AdversaryStrategy("omniscient")


class TestObserve:
    def test_noiseless_overhearing_is_exact(self):
        scn = make_scenario(p=0.0)
        relay = relay_output(scn, AdversaryStrategy("honest"), random.Random(1))
        obs = observe(1, scn, relay, random.Random(2))
        assert obs.noisy_peer == scn.x2.value
        assert obs.noisy_relay == relay

    def test_headers_never_corrupted(self):
        scn = make_scenario(p=0.5)
        relay = relay_output(scn, AdversaryStrategy("honest"), random.Random(1))
        rng = random.Random(3)
        for watcher in (1, 2):
            for _ in range(20):
                obs = observe(watcher, scn, relay, rng)
                peer = scn.x2 if watcher == 1 else scn.x1
                assert obs.peer_hash == evaluate(scn.hf, peer)
                assert obs.relay_hash == evaluate(scn.hf, FieldElement(relay, scn.spec))
                assert (obs.own_coeff, obs.peer_coeff) == ((scn.a1, scn.a2) if watcher == 1 else (scn.a2, scn.a1))

    def test_mean_overheard_distance(self):
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, h=3, p=0.1)
        relay = relay_output(scn, AdversaryStrategy("honest"), random.Random(1))
        rng = random.Random(4)
        total = sum(
            (observe(1, scn, relay, rng).noisy_relay ^ relay).bit_count()
            for _ in range(10_000)
        )
        sigma = (8 * 0.1 * 0.9) ** 0.5
        assert abs(total / 10_000 - 0.8) <= 3 * sigma / 100

    @pytest.mark.parametrize(
        "watcher, peer, peer_link, relay_link",
        [(1, 0x7C, "chan_21", "chan_31"), (2, 0x31, "chan_12", "chan_32")],
        ids=["1", "2"],
    )
    def test_peer_noise_drawn_before_relay_noise(self, watcher, peer, peer_link, relay_link):
        # every link has its own crossover probability, so a wrong link draws other masks
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, h=3, p=(0.1, 0.2, 0.3, 0.4))
        relay = relay_output(scn, AdversaryStrategy("honest"), random.Random(1))
        obs = observe(watcher, scn, relay, random.Random(6))
        rng = random.Random(6)
        assert obs.noisy_peer == peer ^ noise_mask(getattr(scn, peer_link), 8, rng)
        assert obs.noisy_relay == relay ^ noise_mask(getattr(scn, relay_link), 8, rng)

    @pytest.mark.parametrize("watcher", [1, 2])
    def test_reobserve_crosses_the_same_channel_realization(self, watcher):
        # `view_rows` observes the corrupted payload again across the honest
        # one's channel realization: each arm's view is what `observe` gives
        # for that payload from the rng the honest view was drawn from
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, h=3, p=0.3)
        honest = relay_output(scn, AdversaryStrategy("honest"), random.Random(1))
        tables, values, coeffs = batch_arrays([scn])
        links = scenario_links(scn)
        for seed in range(20):
            corrupted = relay_output(scn, AdversaryStrategy("random_nonzero_error"), random.Random(seed))
            noise = noise_masks(links, scn.spec.n, random.Random(seed))
            row = view_rows(values, coeffs, tables, [[honest, corrupted]], [noise])[0, watcher - 1]
            for a, relay in enumerate((honest, corrupted)):
                rng = random.Random(seed)
                obs = [observe(w, scn, relay, rng) for w in (1, 2)][watcher - 1]
                assert row[:5].tolist() + row[5 + 2 * a : 7 + 2 * a].tolist() == row_of(obs)
                assert (obs.peer_channel, obs.relay_channel) == links[watcher - 1]

    def test_noise_masks_and_view_rows_draw_what_observe_draws(self):
        # one channel realization per round, in observe's order: the harness's draw step relies on it
        scn = Scenario(
            spec=GF256, hf=sample(random.Random(7), 3, GF256, 3),
            x1=FieldElement(0x31, GF256), x2=FieldElement(0x7C, GF256),
            a1=FieldElement(3, GF256), a2=FieldElement(9, GF256),
            chan_12=BinarySymmetricChannel(0.3), chan_21=BinarySymmetricChannel(0.1),
            chan_31=BinarySymmetricChannel(0.0), chan_32=BinarySymmetricChannel(0.5), epsilon=0.01,
        )
        tables, values, coeffs = batch_arrays([scn])
        links = scenario_links(scn)
        for seed in range(20):
            relay = relay_output(scn, AdversaryStrategy("random_nonzero_error"), random.Random(seed))
            rng = random.Random(seed)
            want = [observe(w, scn, relay, rng) for w in (1, 2)]
            assert links == tuple((obs.peer_channel, obs.relay_channel) for obs in want)
            noise = noise_masks(links, scn.spec.n, random.Random(seed))
            rows = view_rows(values, coeffs, tables, [[relay]], [noise])
            assert rows[0].tolist() == [row_of(obs) for obs in want]

    def test_bad_watcher_id(self):
        scn = make_scenario()
        with pytest.raises(ValueError):
            observe(3, scn, relay_output(scn, AdversaryStrategy("honest"), random.Random(1)), random.Random(1))

    def test_relay_payload_outside_the_field_rejected(self):
        # the relay's hash is read through a range-checked FieldElement
        scn = make_scenario()
        with pytest.raises(FieldError, match="4-bit word"):
            observe(1, scn, GF16.order, random.Random(1))

    @pytest.mark.parametrize("which", [0, 3])
    def test_source_packet_of_a_non_source_rejected(self, which):
        scn = make_scenario()
        assert (scn.source_packet(1), scn.source_packet(2)) == (scn.x1.value, scn.x2.value)
        with pytest.raises(ValueError, match="source must be node 1 or 2"):
            scn.source_packet(which)


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
