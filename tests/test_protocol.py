"""Relay behavior and overhearing tests.

A packet is its payload word and its hash the `evaluate` read of that word;
the watchers read the coding coefficients from the Scenario, which stands
for the reliable headers.
"""

import dataclasses
import random

import pytest

from algwatchdog.channel import BinarySymmetricChannel, noise_mask
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
    watcher_radii,
)
from algwatchdog.watchdog import relay_word_survivors
from conftest import batch_arrays, make_obs, make_scenario, view_row
from oracles import survivors_by_scan

GF16 = canonical_spec(4)
GF32 = canonical_spec(5)
GF256 = canonical_spec(8)


def random_scenario(rng, spec, p, h):
    """make_scenario with sources, coefficients and hash drawn from rng."""
    return make_scenario(
        spec=spec, x1=rng.randrange(spec.order), x2=rng.randrange(spec.order),
        a1=rng.randrange(1, spec.order), a2=rng.randrange(1, spec.order), p=p, h=h, seed=rng.random(),
    )


def scenario_links(scn):
    """Both watchers' (peer link, relay link) in scn, watcher 1 first."""
    return watcher_links(scn.chan_12, scn.chan_21, scn.chan_31, scn.chan_32)


def best_error_key(scn):
    """exhaustive_best's order on errors, the best error the largest: (c1 * c2, c1 + c2, -e).

    cw is watcher w's survivor count (`survivors_by_scan`) on its noise-free
    view of the relay sending honest ^ e, each view built here in its
    watcher's roles: own value and coefficient, peer coefficient and peer,
    peer link and relay link.
    """
    roles = (
        (scn.x1.value, scn.a1.value, scn.a2.value, scn.x2.value, scn.chan_21, scn.chan_31),
        (scn.x2.value, scn.a2.value, scn.a1.value, scn.x1.value, scn.chan_12, scn.chan_32),
    )
    radii = watcher_radii([role[4:] for role in roles], scn.spec.n, scn.epsilon)

    def key(e):
        relay = scn.honest_payload ^ e
        c1, c2 = (
            survivors_by_scan(make_obs(scn.spec, scn.hf, *role[:4], relay), *r) for role, r in zip(roles, radii)
        )
        return (c1 * c2, c1 + c2, -e)

    return key


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
        radii = watcher_radii(scenario_links(scenarios[0]), GF32.n, scenarios[0].epsilon)
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
        radii = watcher_radii(links, spec.n, 0.01)
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
                assert row[:5].tolist() + row[5 + 2 * a : 7 + 2 * a].tolist() == view_row(obs)
                assert (obs.peer_channel, obs.relay_channel) == links[watcher - 1]

    def test_noise_masks_and_view_rows_draw_what_observe_draws(self):
        # one channel realization per round, in observe's order: the harness's draw step relies on it
        scn = make_scenario(spec=GF256, x1=0x31, x2=0x7C, a1=3, a2=9, p=(0.3, 0.1, 0.0, 0.5), h=3, seed=7)
        tables, values, coeffs = batch_arrays([scn])
        links = scenario_links(scn)
        for seed in range(20):
            relay = relay_output(scn, AdversaryStrategy("random_nonzero_error"), random.Random(seed))
            rng = random.Random(seed)
            want = [observe(w, scn, relay, rng) for w in (1, 2)]
            assert links == tuple((obs.peer_channel, obs.relay_channel) for obs in want)
            noise = noise_masks(links, scn.spec.n, random.Random(seed))
            rows = view_rows(values, coeffs, tables, [[relay]], [noise])
            assert rows[0].tolist() == [view_row(obs) for obs in want]

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
