"""Detection engine tests.

The algebraic kernels are validated against a survivor count that scans the
whole field (`oracles.survivors_by_scan`); the trellis kernel against a
path enumeration over the whole field coded from first principles
(`oracles.path_sum_by_scan`).
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algwatchdog.channel import ball_volume
from algwatchdog.gf2n import FieldElement, canonical_spec
from algwatchdog.hashing import HashFunction, evaluate, sample
from algwatchdog.protocol import (
    AdversaryStrategy,
    noise_masks,
    observe,
    relay_output,
    view_rows,
    watcher_links,
    watcher_radii,
)
from algwatchdog.watchdog import (
    TRELLIS_MAX_WIDTH,
    Hypothesis,
    algebraic_batch,
    algebraic_check,
    build_trellis,
    consistency_probability,
    relay_word_survivors,
    trellis_batch,
)
from conftest import batch_arrays, make_obs, make_scenario, view_row
from oracles import path_sum_by_scan, slow_hash, slow_mul, survivors_by_scan

GF16 = canonical_spec(4)
GF256 = canonical_spec(8)


def fe(v, spec=GF16):
    return FieldElement(v, spec)


def mul(a, x, spec=GF16):
    """a * x in spec, by the oracle's shift-XOR-reduce multiply."""
    return slow_mul(a, x, spec.reduction_poly)


class TestCandidateSet:
    """The candidate counts `algebraic_check` reports for each ball."""

    def test_truth_present_when_noiseless(self):
        hf = sample(random.Random(1), 3, GF16, 2)
        obs = make_obs(GF16, hf, x_own=3, a_own=1, a_peer=1, peer_true=0b0110, relay_sent=0b0101, p=0.0)
        diagnostics = algebraic_check(obs).diagnostics
        # radius 0: the ball is the overheard peer payload, the true word, which has the peer hash
        assert diagnostics["peer_radius"] == 0
        assert diagnostics["peer_candidates"] == 1

    def test_constant_hash_radius_n_is_whole_domain(self):
        hf = HashFunction((fe(0b0101), fe(0), fe(0)), width=2)
        obs = make_obs(GF16, hf, x_own=1, a_own=1, a_peer=1, peer_true=7, relay_sent=9, p=0.3)
        assert algebraic_check(obs, radius_override=4).diagnostics["peer_candidates"] == 16

    def test_counts_the_words_satisfying_both_predicates(self):
        hf = sample(random.Random(2), 3, GF256, 3)
        obs = make_obs(GF256, hf, x_own=3, a_own=5, a_peer=9, peer_true=0x21, relay_sent=0x5A, noisy_peer=0x23, noisy_relay=0x58, p=0.1)
        diagnostics = algebraic_check(obs).diagnostics
        coeffs = [c.value for c in hf.coeffs]
        for which in ("peer", "relay"):
            noisy, target = getattr(obs, f"noisy_{which}"), getattr(obs, f"{which}_hash")
            r = diagnostics[f"{which}_radius"]
            members = [w for w in range(256) if slow_hash(coeffs, w, GF256.reduction_poly, 3) == target]
            want = sum((w ^ noisy).bit_count() <= r for w in members)
            assert diagnostics[f"{which}_candidates"] == want > 0

    def test_thinning_statistics(self):
        # average candidate count near ball_volume / 2^h for random hashes
        rng = random.Random(3)
        sizes = []
        for _ in range(100):
            hf = sample(rng, 3, GF256, 4)
            obs = make_obs(GF256, hf, x_own=1, a_own=1, a_peer=1,
                           peer_true=rng.randrange(256), relay_sent=rng.randrange(256), p=0.1)
            sizes.append(algebraic_check(obs).diagnostics["relay_candidates"])
        expected = ball_volume(8, 3) / 16
        assert expected / 2 <= sum(sizes) / len(sizes) <= expected * 2


class TestAlgebraicCheck:
    def test_noiseless_honest_accepted(self):
        rng = random.Random(5)
        for _ in range(50):
            hf = sample(rng, 3, GF16, 2)
            x1, x2 = rng.randrange(16), rng.randrange(16)
            a1, a2 = rng.randrange(1, 16), rng.randrange(1, 16)
            x3 = mul(a1, x1) ^ mul(a2, x2)
            obs = make_obs(GF16, hf, x1, a1, a2, x2, x3, p=0.0)
            assert algebraic_check(obs).decision is Hypothesis.H0

    def test_noiseless_hash_inconsistent_error_detected(self):
        # scan for an error whose image hash no reachable image can produce
        hf = sample(random.Random(6), 3, GF16, 2)
        x1, x2, a1, a2 = 0b0011, 0b1100, 3, 7
        x3 = mul(a1, x1) ^ mul(a2, x2)
        found = None
        for e in range(1, 16):
            if not survivors_by_scan(make_obs(GF16, hf, x1, a1, a2, x2, x3 ^ e, p=0.0), 4, 4):
                found = e
                break
        assert found is not None
        obs = make_obs(GF16, hf, x1, a1, a2, x2, x3 ^ found, p=0.0)
        assert algebraic_check(obs, radius_override=4).decision is Hypothesis.H1

    def test_matches_brute_force_over_all_outcomes(self):
        hf = sample(random.Random(7), 3, GF16, 2)
        a1, a2 = 5, 11
        for x1 in range(16):
            for x2 in range(16):
                x3 = mul(a1, x1) ^ mul(a2, x2)
                for e in range(1, 16):
                    obs = make_obs(GF16, hf, x1, a1, a2, x2, x3 ^ e, p=0.0)
                    verdict = algebraic_check(obs, radius_override=4)
                    want = survivors_by_scan(obs, 4, 4)
                    assert verdict.diagnostics["surviving"] == want
                    assert (verdict.decision is Hypothesis.H0) == (want > 0)

    def test_zero_peer_coefficient_rejected(self):
        # every peer candidate would have one image, so a count of images
        # would no longer be the size of an intersection
        hf = sample(random.Random(8), 3, GF16, 2)
        obs = make_obs(GF16, hf, 3, 5, 0, 9, mul(5, 3), p=0.1)
        with pytest.raises(ValueError, match="zero peer coefficient"):
            algebraic_check(obs)


class TestTrellis:
    def test_layer2_equals_preimage_set(self):
        # at p = 0.5 every path weighs 2^-n / |layer 2|, so the score counts
        # the preimages of the peer hash whose image has the relay hash
        hf = sample(random.Random(9), 3, GF16, 2)
        obs = make_obs(GF16, hf, 3, 5, 7, 0b1001, mul(5, 3) ^ mul(7, 0b1001), p=0.5)
        coeffs = [c.value for c in hf.coeffs]
        h = lambda x: slow_hash(coeffs, x, GF16.reduction_poly, 2)
        layer2 = [x for x in range(16) if h(x) == obs.peer_hash]
        reached = sum(h(mul(5, 3) ^ mul(7, x)) == obs.relay_hash for x in layer2)
        assert 0 < reached < len(layer2)
        assert consistency_probability(build_trellis(obs)) == pytest.approx(reached / len(layer2) / 16)

    def test_permutation_layer_is_bijection(self):
        # a constant hash puts every word in layer 2 and every image on a
        # path; at peer p = 0.5 each weighs 1/16, so the score is 1/16 times
        # the relay likelihood summed over the images, which is 1 iff the
        # images are the whole field
        hf = HashFunction((fe(0b0101), fe(0), fe(0)), width=2)
        obs = make_obs(GF16, hf, 3, 5, 7, 0b1001, 0b0100, noisy_relay=0b0110, p=(0.5, 0.1))
        assert consistency_probability(build_trellis(obs)) == pytest.approx(1 / 16)

    def test_noiseless_weight_concentrates_on_truth(self):
        # another word with the peer hash also has a hash-consistent path
        # when the relay sends its image, but at p = 0 it weighs nothing
        hf = sample(random.Random(11), 3, GF16, 2)
        truth = 0b1001
        other = next(v for v in range(16) if v != truth and evaluate(hf, fe(v)) == evaluate(hf, fe(truth)))
        for v, want in ((truth, 1.0), (other, 0.0)):
            obs = make_obs(GF16, hf, 3, 5, 7, truth, mul(5, 3) ^ mul(7, v), p=0.0)
            assert consistency_probability(build_trellis(obs)) == want

    def test_width_bound(self):
        spec = canonical_spec(14)
        hf = sample(random.Random(12), 3, spec, 4)
        obs = make_obs(spec, hf, 3, 5, 7, 0x123, 0x456, p=0.1)
        with pytest.raises(ValueError):
            build_trellis(obs)


def random_trellis_trials(rng, n, d, links, count):
    """`count` trials: each watcher's views of an honest relay and of a corrupting one, on one hash function.

    links[w] is watcher w's (peer link, relay link) crossover probabilities.
    """
    spec = canonical_spec(n)
    noise = lambda q: sum(1 << b for b in range(n) if rng.random() < q)
    trials = []
    for _ in range(count):
        hf = sample(rng, d, spec, rng.randrange(1, n + 1))
        views = []
        for peer_p, relay_p in links:
            own, peer = rng.randrange(spec.order), rng.randrange(spec.order)
            a_own, a_peer = rng.randrange(1, spec.order), rng.randrange(1, spec.order)
            honest = mul(a_own, own, spec) ^ mul(a_peer, peer, spec)
            corrupted = honest ^ rng.randrange(1, spec.order)
            noisy_peer, noisy_relay = peer ^ noise(peer_p), honest ^ noise(relay_p)
            obs = make_obs(spec, hf, own, a_own, a_peer, peer, honest, noisy_peer, noisy_relay, p=(peer_p, relay_p))
            noisy_relay = obs.noisy_relay ^ honest ^ corrupted
            views.append((obs, dataclasses.replace(obs, relay_hash=evaluate(hf, fe(corrupted, spec)), noisy_relay=noisy_relay)))
        trials.append(tuple(views))
    return trials


def batch_of(trials, threshold):
    """`trellis_batch` on trials of observations, each watcher's views turned into one row of words."""
    words = [[view_row(*views) for views in trial] for trial in trials]
    links = [(views[0].peer_channel, views[0].relay_channel) for views in trials[0]]
    first = trials[0][0][0]
    tables = np.stack([trial[0][0].hf.table for trial in trials])
    return trellis_batch(first.hf.spec, tables, words, links, threshold)


class TestTrellisBatch:
    """The batched kernel against a path enumeration over the whole field, view by view."""

    PROBS = [0.0, 1e-3, 0.1, 0.25, 0.5]

    @staticmethod
    def assert_scores_enumerated(trials, scores):
        want = [[[path_sum_by_scan(obs) for obs in views] for views in trial] for trial in trials]
        # the float expressions differ, so the scores agree to rounding; a zero is exact
        np.testing.assert_allclose(scores, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", PROBS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_scores_equal_path_enumeration_and_verdicts_follow_threshold(self, n, p):
        rng = random.Random(1000 * n + int(1000 * p))
        for d in range(4):
            links = [(p, rng.choice(self.PROBS)), (rng.choice(self.PROBS), p)]
            trials = random_trellis_trials(rng, n, d, links, 3)
            _, scores = batch_of(trials, 0.0)
            assert scores.shape == (len(trials), 2, 2)
            self.assert_scores_enumerated(trials, scores)
            # thresholds below, at and between the scores
            cuts = sorted(set(scores.ravel().tolist()))
            for t in {1e-9, 0.01, 0.2, cuts[len(cuts) // 2], min(1.0, 2 * cuts[-1])}:
                accepted, again = batch_of(trials, t)
                assert (again == scores).all()
                assert (accepted == (scores >= t)).all()

    def test_threshold_equal_to_a_score_accepts_that_view(self):
        trials = random_trellis_trials(random.Random(5), 10, 3, [(0.1, 0.1), (0.2, 0.05)], 2)
        _, scores = batch_of(trials, 0.0)
        target = scores[1, 0, 0]
        assert target > 0
        accepted, again = batch_of(trials, target)
        assert accepted[1, 0, 0] and again[1, 0, 0] == target
        assert (accepted == (scores >= target)).all()

    def test_one_arm(self):
        trials = random_trellis_trials(random.Random(6), 8, 2, [(0.1, 0.1)] * 2, 3)
        trials = [tuple((obs,) for obs, _ in trial) for trial in trials]
        accepted, scores = batch_of(trials, 0.01)
        assert accepted.shape == (3, 2, 1)
        self.assert_scores_enumerated(trials, scores)
        assert (accepted == (scores >= 0.01)).all()

    def test_too_wide_rejected(self):
        spec = canonical_spec(TRELLIS_MAX_WIDTH + 1)
        hf = sample(random.Random(7), 1, spec, 3)
        obs = make_obs(spec, hf, 1, 1, 1, 2, 3)
        with pytest.raises(ValueError, match="n <="):
            batch_of([((obs,), (obs,))], 0.5)


def harness_trials(rng, n, h, d, probs, epsilon, count, arms=2):
    """`count` trials drawn as the harness draws them: (scenario, relay payloads, noise seed).

    probs are the crossover probabilities of links 12, 21, 31 and 32; the
    payloads are the honest relay's, then (arms=2) a corrupting relay's.
    The noise seed seeds the rng of the trial's one channel realization.
    """
    spec = canonical_spec(n)
    strategies = (AdversaryStrategy("honest"), AdversaryStrategy("random_nonzero_error"))[:arms]
    trials = []
    for _ in range(count):
        hf = sample(rng, d, spec, h)
        x1, x2 = rng.randrange(spec.order), rng.randrange(spec.order)
        a1, a2 = rng.randrange(1, spec.order), rng.randrange(1, spec.order)
        scn = make_scenario(spec, x1, x2, a1, a2, p=tuple(probs), hf=hf, epsilon=epsilon)
        relays = [relay_output(scn, s, rng) for s in strategies]
        trials.append((scn, relays, rng.randrange(2**32)))
    return trials


def trial_views(scn, relays, seed, peer_flip=0):
    """Each relay arm's observations by watchers 1 and 2, from `observe` on an rng seeded with the noise seed.

    peer_flip flips bits of watcher 1's overheard peer payload.
    """
    arms = []
    for payload in relays:
        rng = random.Random(seed)
        first, second = (observe(w, scn, payload, rng) for w in (1, 2))
        arms.append((dataclasses.replace(first, noisy_peer=first.noisy_peer ^ peer_flip), second))
    return arms


def kernel_inputs(trials, peer_flip=0):
    """The trials' (tables, words, links): the rows are `protocol.view_rows`', under `trial_views`' flip."""
    scenarios, relays, seeds = zip(*trials)
    first = scenarios[0]
    tables, sources, coeffs = batch_arrays(scenarios)
    links = watcher_links(first.chan_12, first.chan_21, first.chan_31, first.chan_32)
    noise = [noise_masks(links, first.spec.n, random.Random(seed)) for seed in seeds]
    noise = [((peer ^ peer_flip, relay), second) for (peer, relay), second in noise]
    return tables, view_rows(sources, coeffs, tables, relays, noise), links


def algebraic_batch_of(trials, peer_flip=0):
    """`algebraic_batch` on the trials' `kernel_inputs`, at the radii selected for their links."""
    scn = trials[0][0]
    tables, words, links = kernel_inputs(trials, peer_flip)
    return algebraic_batch(scn.spec, tables, words, watcher_radii(links, scn.spec.n, scn.epsilon))


class TestWatcherSlots:
    """The watcher count is a free parameter: each kernel sizes its watcher axis from its input."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 10),
        d=st.integers(0, 3),
        probs=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.3, 0.5]), min_size=4, max_size=4),
        arms=st.integers(1, 2),
        seed=st.integers(0, 2**32),
    )
    def test_one_slot_call_equals_that_slot_of_the_two_slot_call(self, data, n, d, probs, arms, seed):
        h = data.draw(st.integers(1, n), label="h")
        radius = st.integers(0, n)
        radii = data.draw(st.lists(st.tuples(radius, radius), min_size=2, max_size=2), label="radii")
        spec = canonical_spec(n)
        tables, words, links = kernel_inputs(harness_trials(random.Random(seed), n, h, d, probs, 0.01, 2, arms))

        def kernels(words, radii, links):
            return (
                *algebraic_batch(spec, tables, words, radii),
                relay_word_survivors(spec, tables, words, radii),
                *trellis_batch(spec, tables, words, links, 0.01),
            )

        both = kernels(words, radii, links)
        for w in range(2):
            for alone, slot in zip(kernels(words[:, w : w + 1], radii[w : w + 1], links[w : w + 1]), both):
                assert alone.shape == (2, 1, slot.shape[2])
                assert (alone[:, 0] == slot[:, w]).all()


class TestAlgebraicBatch:
    """The batched check against a whole-field survivor scan of `protocol.observe`'s observations, view by view."""

    @staticmethod
    def assert_matches_scan(trials, peer_flip=0):
        accepted, surviving = algebraic_batch_of(trials, peer_flip)
        arms = len(trials[0][1])
        assert accepted.shape == surviving.shape == (len(trials), 2, arms)
        for b, (scn, relays, seed) in enumerate(trials):
            for a, arm in enumerate(trial_views(scn, relays, seed, peer_flip)):
                for w, obs in enumerate(arm):
                    [radii] = watcher_radii([(obs.peer_channel, obs.relay_channel)], obs.n, obs.epsilon)
                    want = survivors_by_scan(obs, *radii)
                    assert surviving[b, w, a] == want
                    assert accepted[b, w, a] == (want > 0)
        return accepted, surviving

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 16),
        d=st.integers(0, 3),
        probs=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.3, 0.5]), min_size=4, max_size=4),
        epsilon=st.sampled_from([1e-12, 0.01, 0.2, 0.999]),
        arms=st.integers(1, 2),
        seed=st.integers(0, 2**32),
    )
    def test_verdicts_and_survivors_equal_field_scan(self, data, n, d, probs, epsilon, arms, seed):
        h = data.draw(st.integers(1, n), label="h")
        # the harness's sub-batch size rule, capped at 4 trials to keep the scan fast
        count = max(1, min(4, (1 << 16) >> n))
        self.assert_matches_scan(harness_trials(random.Random(seed), n, h, d, probs, epsilon, count, arms))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 6),
        d=st.integers(0, 3),
        watchers=st.integers(1, 2),
        arms=st.integers(1, 2),
        seed=st.integers(0, 2**32),
    )
    def test_unequal_radii_equal_field_scan(self, data, n, d, watchers, arms, seed):
        # free views, not one network's: each watcher has its own peer side
        # and radii, 0 and n among them, and d = 0 hashes every word alike;
        # both kernels against the scan, relay_word_survivors relay word by relay word
        h = data.draw(st.integers(1, n), label="h")
        radius = st.one_of(st.sampled_from([0, n]), st.integers(0, n))
        radii = data.draw(st.lists(st.tuples(radius, radius), min_size=watchers, max_size=watchers), label="radii")
        spec, rng = canonical_spec(n), random.Random(seed)

        def word():
            return rng.randrange(spec.order)

        def views(hf):
            own, peer = word(), word()
            own_coeff, peer_coeff = (1 + word() % (spec.order - 1) for _ in range(2))
            noisy_peer = peer ^ word() & word()
            # the arms share the peer side; each has its own relay word and overheard relay payload
            return [
                make_obs(spec, hf, own, own_coeff, peer_coeff, peer, word(), noisy_peer, word()) for _ in range(arms)
            ]

        trials = [(hf, [views(hf) for _ in range(watchers)]) for hf in (sample(rng, d, spec, h) for _ in range(2))]
        tables = np.stack([hf.table for hf, _ in trials])
        words = [[view_row(*arm_views) for arm_views in slots] for _, slots in trials]
        accepted, surviving = algebraic_batch(spec, tables, words, radii)
        counts = relay_word_survivors(spec, tables, words, radii)
        assert surviving.shape == (2, watchers, arms) and counts.shape == (2, watchers, spec.order)
        for b, (hf, slots) in enumerate(trials):
            for w, (arm_views, r) in enumerate(zip(slots, radii)):
                for a, obs in enumerate(arm_views):
                    want = survivors_by_scan(obs, *r)
                    assert surviving[b, w, a] == want and accepted[b, w, a] == (want > 0)
                for c in range(spec.order):
                    one = dataclasses.replace(arm_views[0], relay_hash=hf.table.item(c), noisy_relay=c)
                    assert counts[b, w, c] == survivors_by_scan(one, *r)

    def test_empty_peer_candidate_set(self):
        # noiseless links give radius 0, so a peer payload overheard with a
        # flipped bit that changes its hash leaves watcher 1 no candidate
        trial = harness_trials(random.Random(3), 8, 4, 3, [0.0] * 4, 0.01, 1)[0]
        scn = trial[0]
        peer = scn.x2.value
        flip = next(1 << i for i in range(8) if evaluate(scn.hf, fe(peer ^ 1 << i, scn.spec)) != evaluate(scn.hf, scn.x2))
        obs = trial_views(*trial, flip)[0][0]
        assert obs.noisy_peer == peer ^ flip
        assert algebraic_check(obs).diagnostics["peer_candidates"] == 0
        accepted, surviving = self.assert_matches_scan([trial], flip)
        # watcher 2's noiseless view of the honest relay still passes
        assert not accepted[0, 0].any() and accepted[0, 1, 0]
        assert surviving[0, 0].tolist() == [0, 0]


class TestConsistencyProbability:
    def test_noiseless_honest_is_one(self):
        hf = sample(random.Random(13), 3, GF16, 2)
        x1, x2, a1, a2 = 2, 9, 3, 5
        x3 = mul(a1, x1) ^ mul(a2, x2)
        obs = make_obs(GF16, hf, x1, a1, a2, x2, x3, p=0.0)
        assert consistency_probability(build_trellis(obs)) == pytest.approx(1.0)

    def test_no_consistent_path_is_zero(self):
        rng = random.Random(14)
        for _ in range(100):
            hf = sample(rng, 3, GF16, 2)
            x_own, a_own, a_peer = rng.randrange(16), rng.randrange(1, 16), rng.randrange(1, 16)
            obs = make_obs(GF16, hf, x_own, a_own, a_peer, rng.randrange(16), rng.randrange(16), p=0.1)
            candidates = [v for v in range(16) if evaluate(hf, fe(v)) == obs.peer_hash]
            image_hashes = {evaluate(hf, fe(mul(a_own, x_own) ^ mul(a_peer, v))) for v in candidates}
            for target in set(range(4)) - image_hashes:
                assert consistency_probability(build_trellis(dataclasses.replace(obs, relay_hash=target))) == 0.0
                return
        pytest.fail("never found an instance with no hash-consistent path")

    def test_matches_scalar_path_enumeration(self):
        hf = sample(random.Random(15), 3, GF16, 2)
        obs = make_obs(GF16, hf, 6, 3, 5, 0b1010, 0b0111, noisy_peer=0b1000, noisy_relay=0b0110, p=0.1)
        want = path_sum_by_scan(obs)
        assert want > 0
        assert consistency_probability(build_trellis(obs)) == pytest.approx(want)

    def test_bounded_by_unit_interval(self):
        rng = random.Random(16)
        for _ in range(50):
            hf = sample(rng, 3, GF16, 2)
            obs = make_obs(GF16, hf, rng.randrange(16), rng.randrange(1, 16), rng.randrange(1, 16),
                           rng.randrange(16), rng.randrange(16),
                           noisy_peer=rng.randrange(16), noisy_relay=rng.randrange(16), p=0.2)
            assert 0.0 <= consistency_probability(build_trellis(obs)) <= 1.0


class TestDecide:
    """The trellis threshold rule: `trellis_batch` accepts a view iff its score >= t."""

    def test_full_score_accepted(self):
        # noiseless honest views: all peer weight on the true word, whose image is the relay payload
        trials = random_trellis_trials(random.Random(19), 6, 3, [(0.0, 0.0)] * 2, 4)
        accepted, scores = batch_of(trials, 1e-12)
        assert (scores[:, :, 0] == 1.0).all() and accepted[:, :, 0].all()

    def test_zero_score_flagged(self):
        # noiseless corrupted views: the one weighted image is not the overheard relay payload
        trials = random_trellis_trials(random.Random(19), 6, 3, [(0.0, 0.0)] * 2, 4)
        accepted, scores = batch_of(trials, 1e-12)
        assert (scores[:, :, 1] == 0.0).all() and not accepted[:, :, 1].any()

    def test_threshold_sweep_is_monotone(self):
        # ROC over thresholds: flag rate on honest traffic nondecreasing in t,
        # pass rate on corrupted traffic nonincreasing in t
        rng = random.Random(17)
        spec = GF256
        honest_scores, bad_scores = [], []
        chan_p = 0.1
        for _ in range(300):
            hf = sample(rng, 3, spec, 3)
            x1, x2 = rng.randrange(256), rng.randrange(256)
            a1, a2 = rng.randrange(1, 256), rng.randrange(1, 256)
            x3 = mul(a1, x1, spec) ^ mul(a2, x2, spec)
            noise = lambda w: w ^ sum(1 << i for i in range(8) if rng.random() < chan_p)
            for sent, bucket in ((x3, honest_scores), (x3 ^ rng.randrange(1, 256), bad_scores)):
                obs = make_obs(spec, hf, x1, a1, a2, x2, sent,
                               noisy_peer=noise(x2), noisy_relay=noise(sent), p=chan_p)
                bucket.append(consistency_probability(build_trellis(obs)))
        thresholds = [0.0, 1e-6, 1e-3, 1e-2, 0.1, 0.5, 1.0]
        gamma = [sum(s < t for s in honest_scores) for t in thresholds]
        beta = [sum(s >= t for s in bad_scores) for t in thresholds]
        assert gamma == sorted(gamma)
        assert beta == sorted(beta, reverse=True)


def test_verdict_deterministic():
    hf = sample(random.Random(18), 3, GF256, 3)
    obs = make_obs(GF256, hf, 0x10, 3, 7, 0x55, 0xAA, noisy_peer=0x54, noisy_relay=0xAB, p=0.1)
    assert algebraic_check(obs) == algebraic_check(obs)
