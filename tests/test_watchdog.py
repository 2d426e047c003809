"""Detection engine tests.

The algebraic check is validated against a brute-force re-implementation
that scans the whole field with no ball pruning; the trellis path-sum is
validated against a scalar path enumeration coded from first principles.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algwatchdog.channel import BinarySymmetricChannel, ball_volume
from algwatchdog.gf2n import FieldElement, canonical_spec
from algwatchdog.hashing import HashFunction, HashValue, evaluate, preimage_set, sample
from algwatchdog.protocol import (
    AdversaryStrategy,
    Packet,
    Scenario,
    noise_masks,
    observe,
    relay_output,
    view_rows,
    watcher_links,
)
from algwatchdog.watchdog import (
    TRELLIS_MAX_WIDTH,
    Hypothesis,
    Observation,
    algebraic_batch,
    algebraic_check,
    build_trellis,
    candidate_set,
    consistency_probability,
    decide,
    trellis_batch,
)

GF16 = canonical_spec(4)
GF256 = canonical_spec(8)


def make_obs(spec, hf, x_own, a_own, a_peer, peer_true, relay_sent, noisy_peer=None, noisy_relay=None, p=0.0, epsilon=0.01):
    chan = BinarySymmetricChannel(p)
    return Observation(
        own_value=FieldElement(x_own, spec),
        own_coeff=FieldElement(a_own, spec),
        peer_coeff=FieldElement(a_peer, spec),
        peer_hash=evaluate(hf, FieldElement(peer_true, spec)),
        relay_hash=evaluate(hf, FieldElement(relay_sent, spec)),
        noisy_peer=peer_true if noisy_peer is None else noisy_peer,
        noisy_relay=relay_sent if noisy_relay is None else noisy_relay,
        peer_channel=chan,
        relay_channel=chan,
        epsilon=epsilon,
        hf=hf,
    )


def fe(v, spec=GF16):
    return FieldElement(v, spec)


def brute_force_accepts(spec, hf, x_own, a_own, a_peer, peer_hash, relay_hash):
    """Full-domain re-implementation of the empty-intersection rule (radius n)."""
    c = (fe(a_own, spec) * fe(x_own, spec)).value
    for x in range(spec.order):
        if evaluate(hf, fe(x, spec)).value != peer_hash:
            continue
        w = c ^ (fe(a_peer, spec) * fe(x, spec)).value
        if evaluate(hf, fe(w, spec)).value == relay_hash:
            return True
    return False


class TestCandidateSet:
    def test_truth_present_when_noiseless(self):
        hf = sample(random.Random(1), 3, GF16, 2)
        obs = make_obs(GF16, hf, x_own=3, a_own=1, a_peer=1, peer_true=0b0110, relay_sent=0b0101, p=0.0)
        words, r = candidate_set(obs, "peer")
        assert r == 0
        assert 0b0110 in words.tolist()

    def test_constant_hash_radius_n_is_whole_domain(self):
        hf = HashFunction((fe(0b0101), fe(0), fe(0)), width=2)
        obs = make_obs(GF16, hf, x_own=1, a_own=1, a_peer=1, peer_true=7, relay_sent=9, p=0.3)
        words, _ = candidate_set(obs, "peer", radius_override=4)
        assert len(set(words.tolist())) == 16

    def test_members_satisfy_both_predicates(self):
        hf = sample(random.Random(2), 3, GF256, 3)
        obs = make_obs(GF256, hf, x_own=3, a_own=5, a_peer=9, peer_true=0x21, relay_sent=0x5A, noisy_peer=0x23, noisy_relay=0x58, p=0.1)
        for which in ("peer", "relay"):
            words, r = candidate_set(obs, which)
            noisy = obs.noisy_peer if which == "peer" else obs.noisy_relay
            target = obs.peer_hash if which == "peer" else obs.relay_hash
            for w in words.tolist():
                assert (w ^ noisy).bit_count() <= r
                assert evaluate(hf, fe(w, GF256)).value == target.value

    def test_thinning_statistics(self):
        # average candidate count near ball_volume / 2^h for random hashes
        rng = random.Random(3)
        sizes = []
        for _ in range(100):
            hf = sample(rng, 3, GF256, 4)
            obs = make_obs(GF256, hf, x_own=1, a_own=1, a_peer=1,
                           peer_true=rng.randrange(256), relay_sent=rng.randrange(256), p=0.1)
            sizes.append(len(set(candidate_set(obs, "relay")[0].tolist())))
        expected = ball_volume(8, 3) / 16
        assert expected / 2 <= sum(sizes) / len(sizes) <= expected * 2


class TestAlgebraicCheck:
    def test_noiseless_honest_accepted(self):
        rng = random.Random(5)
        for _ in range(50):
            hf = sample(rng, 3, GF16, 2)
            x1, x2 = rng.randrange(16), rng.randrange(16)
            a1, a2 = rng.randrange(1, 16), rng.randrange(1, 16)
            x3 = (fe(a1) * fe(x1) + fe(a2) * fe(x2)).value
            obs = make_obs(GF16, hf, x1, a1, a2, x2, x3, p=0.0)
            assert algebraic_check(obs).decision is Hypothesis.H0

    def test_noiseless_hash_inconsistent_error_detected(self):
        # scan for an error whose image hash no reachable image can produce
        hf = sample(random.Random(6), 3, GF16, 2)
        x1, x2, a1, a2 = 0b0011, 0b1100, 3, 7
        x3 = (fe(a1) * fe(x1) + fe(a2) * fe(x2)).value
        found = None
        for e in range(1, 16):
            if not brute_force_accepts(GF16, hf, x1, a1, a2,
                                       evaluate(hf, fe(x2)).value,
                                       evaluate(hf, fe(x3 ^ e)).value):
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
                x3 = (fe(a1) * fe(x1) + fe(a2) * fe(x2)).value
                for e in range(1, 16):
                    obs = make_obs(GF16, hf, x1, a1, a2, x2, x3 ^ e, p=0.0)
                    got = algebraic_check(obs, radius_override=4).decision
                    want = brute_force_accepts(GF16, hf, x1, a1, a2, obs.peer_hash.value, obs.relay_hash.value)
                    assert (got is Hypothesis.H0) == want

    def test_score_is_surviving_fraction(self):
        hf = sample(random.Random(8), 3, GF256, 3)
        obs = make_obs(GF256, hf, 0x11, 3, 5, 0x42, 0x99, noisy_peer=0x40, noisy_relay=0x9B, p=0.1)
        v = algebraic_check(obs)
        if v.diagnostics["relay_candidates"]:
            assert v.consistency_score == v.diagnostics["surviving"] / v.diagnostics["relay_candidates"]
        assert 0.0 <= v.consistency_score <= 1.0


class TestTrellis:
    def test_layer2_equals_preimage_set(self):
        hf = sample(random.Random(9), 3, GF16, 2)
        obs = make_obs(GF16, hf, 3, 5, 7, 0b1001, 0b0100, p=0.1)
        tr = build_trellis(obs)
        want = {e.value for e in preimage_set(hf, obs.peer_hash)}
        assert set(tr.candidates.tolist()) == want

    def test_permutation_layer_is_bijection(self):
        hf = sample(random.Random(10), 3, GF16, 2)
        obs = make_obs(GF16, hf, 3, 5, 7, 0b1001, 0b0100, p=0.1)
        tr = build_trellis(obs)
        assert len(set(tr.images.tolist())) == len(tr.candidates)

    def test_noiseless_weight_concentrates_on_truth(self):
        hf = sample(random.Random(11), 3, GF16, 2)
        obs = make_obs(GF16, hf, 3, 5, 7, 0b1001, 0b0100, p=0.0)
        tr = build_trellis(obs)
        idx = tr.candidates.tolist().index(0b1001)
        assert tr.weights_in[idx] == pytest.approx(1.0)
        assert tr.weights_in.sum() == pytest.approx(1.0)

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
            honest = (fe(a_own, spec) * fe(own, spec) + fe(a_peer, spec) * fe(peer, spec)).value
            corrupted = honest ^ rng.randrange(1, spec.order)
            obs = Observation(
                own_value=fe(own, spec), own_coeff=fe(a_own, spec), peer_coeff=fe(a_peer, spec),
                peer_hash=hf.of_word(peer), relay_hash=hf.of_word(honest),
                noisy_peer=peer ^ noise(peer_p), noisy_relay=honest ^ noise(relay_p),
                peer_channel=BinarySymmetricChannel(peer_p), relay_channel=BinarySymmetricChannel(relay_p),
                epsilon=0.01, hf=hf,
            )
            noisy_relay = obs.noisy_relay ^ honest ^ corrupted
            views.append((obs, dataclasses.replace(obs, relay_hash=hf.of_word(corrupted), noisy_relay=noisy_relay)))
        trials.append(tuple(views))
    return trials


def batch_of(trials, threshold):
    """`trellis_batch` on trials of observations, each watcher's views turned into one row of words."""
    def row(views):
        obs = views[0]
        peer_side = [obs.own_value.value, obs.own_coeff.value, obs.peer_coeff.value, obs.peer_hash.value, obs.noisy_peer]
        return peer_side + [v for o in views for v in (o.relay_hash.value, o.noisy_relay)]

    words = [[row(views) for views in trial] for trial in trials]
    links = [(views[0].peer_channel, views[0].relay_channel) for views in trials[0]]
    first = trials[0][0][0]
    tables = np.stack([trial[0][0].hf.table for trial in trials])
    return trellis_batch(first.hf.spec, tables, words, links, threshold)


class TestTrellisBatch:
    """The batched kernel against the scalar path, which it must agree with verdict for verdict."""

    PROBS = [0.0, 1e-3, 0.1, 0.25, 0.5]

    @staticmethod
    def scalar(obs):
        tr = build_trellis(obs)
        return consistency_probability(tr), len(tr.candidates)

    @pytest.mark.parametrize("p", PROBS)
    @pytest.mark.parametrize("n", range(2, 13))
    def test_verdicts_equal_scalar_path_and_scores_within_slack(self, n, p):
        # the slack is zero: every batched score is the scalar score bit for bit
        rng = random.Random(1000 * n + int(1000 * p))
        for d in range(4):
            links = [(p, rng.choice(self.PROBS)), (rng.choice(self.PROBS), p)]
            trials = random_trellis_trials(rng, n, d, links, 3)
            want = [[[self.scalar(obs)[0] for obs in views] for views in trial] for trial in trials]
            # thresholds below, at and between the scalar scores
            cuts = sorted({score for trial in want for score in sum(trial, [])})
            for t in {1e-9, 0.01, 0.2, cuts[len(cuts) // 2], min(1.0, 2 * cuts[-1])}:
                accepted, scores = batch_of(trials, t)
                assert accepted.shape == scores.shape == (len(trials), 2, 2)
                for b, trial in enumerate(want):
                    for w, views in enumerate(trial):
                        for a, score in enumerate(views):
                            assert scores[b, w, a] == score
                            assert accepted[b, w, a] == (decide(score, t).decision is Hypothesis.H0)

    def test_threshold_equal_to_a_score_accepts_that_view(self):
        trials = random_trellis_trials(random.Random(5), 10, 3, [(0.1, 0.1), (0.2, 0.05)], 2)
        target, _ = self.scalar(trials[1][0][0])
        assert target > 0
        accepted, scores = batch_of(trials, target)
        assert accepted[1, 0, 0] and scores[1, 0, 0] == target
        want = [[[self.scalar(obs)[0] >= target for obs in views] for views in trial] for trial in trials]
        assert accepted.tolist() == want

    def test_one_arm(self):
        trials = random_trellis_trials(random.Random(6), 8, 2, [(0.1, 0.1)] * 2, 3)
        trials = [tuple((obs,) for obs, _ in trial) for trial in trials]
        accepted, scores = batch_of(trials, 0.01)
        assert accepted.shape == (3, 2, 1)
        assert accepted.tolist() == [[[self.scalar(obs)[0] >= 0.01] for (obs,) in trial] for trial in trials]

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
    chans = {f"chan_{link}": BinarySymmetricChannel(p) for link, p in zip(("12", "21", "31", "32"), probs)}
    strategies = (AdversaryStrategy("honest"), AdversaryStrategy("random_nonzero_error"))[:arms]
    trials = []
    for _ in range(count):
        scn = Scenario(
            spec=spec, hf=sample(rng, d, spec, h),
            x1=fe(rng.randrange(spec.order), spec), x2=fe(rng.randrange(spec.order), spec),
            a1=fe(rng.randrange(1, spec.order), spec), a2=fe(rng.randrange(1, spec.order), spec),
            epsilon=epsilon, **chans,
        )
        relays = [relay_output(scn, s, rng).payload for s in strategies]
        trials.append((scn, relays, rng.randrange(2**32)))
    return trials


def trial_views(scn, relays, seed, peer_flip=0):
    """Each relay arm's observations by watchers 1 and 2, from `observe` on an rng seeded with the noise seed.

    peer_flip flips bits of watcher 1's overheard peer payload.
    """
    arms = []
    for payload in relays:
        rng = random.Random(seed)
        first, second = (observe(w, scn, Packet(scn.hf.of_word(payload), payload), rng) for w in (1, 2))
        arms.append((dataclasses.replace(first, noisy_peer=first.noisy_peer ^ peer_flip), second))
    return arms


def algebraic_batch_of(trials, peer_flip=0):
    """`algebraic_batch` on the rows of words `protocol.view_rows` builds for the trials, under `trial_views`' flip."""
    scenarios, relays, seeds = zip(*trials)
    first = scenarios[0]
    tables = np.stack([scn.hf.table for scn in scenarios])
    sources = [[scn.x1.value, scn.x2.value] for scn in scenarios]
    coeffs = [[scn.a1.value, scn.a2.value] for scn in scenarios]
    links = watcher_links(first.chan_12, first.chan_21, first.chan_31, first.chan_32)
    noise = [noise_masks(links, first.spec.n, random.Random(seed)) for seed in seeds]
    noise = [((peer ^ peer_flip, relay), second) for (peer, relay), second in noise]
    words = view_rows(sources, coeffs, tables, relays, noise)
    return algebraic_batch(first.spec, tables, words, links, first.epsilon)


class TestAlgebraicBatch:
    """The batched check against `algebraic_check` on `protocol.observe`'s observations, view by view."""

    @staticmethod
    def assert_matches_scalar(trials, peer_flip=0):
        accepted, surviving = algebraic_batch_of(trials, peer_flip)
        arms = len(trials[0][1])
        assert accepted.shape == surviving.shape == (len(trials), 2, arms)
        for b, (scn, relays, seed) in enumerate(trials):
            for a, arm in enumerate(trial_views(scn, relays, seed, peer_flip)):
                for w, obs in enumerate(arm):
                    verdict = algebraic_check(obs)
                    assert accepted[b, w, a] == (verdict.decision is Hypothesis.H0)
                    assert surviving[b, w, a] == verdict.diagnostics["surviving"]
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
    def test_verdicts_and_survivors_equal_algebraic_check(self, data, n, d, probs, epsilon, arms, seed):
        h = data.draw(st.integers(1, n), label="h")
        # the harness's sub-batch size rule, capped at 4 trials to keep the scalar side fast
        count = max(1, min(4, (1 << 16) >> n))
        self.assert_matches_scalar(harness_trials(random.Random(seed), n, h, d, probs, epsilon, count, arms))

    def test_empty_peer_candidate_set(self):
        # noiseless links give radius 0, so a peer payload overheard with a
        # flipped bit that changes its hash leaves watcher 1 no candidate
        trial = harness_trials(random.Random(3), 8, 4, 3, [0.0] * 4, 0.01, 1)[0]
        scn = trial[0]
        peer = scn.x2.value
        flip = next(1 << i for i in range(8) if scn.hf.of_word(peer ^ 1 << i) != scn.hf.of_word(peer))
        obs = trial_views(*trial, flip)[0][0]
        assert obs.noisy_peer == peer ^ flip
        assert algebraic_check(obs).diagnostics["peer_candidates"] == 0
        accepted, surviving = self.assert_matches_scalar([trial], flip)
        # watcher 2's noiseless view of the honest relay still passes
        assert not accepted[0, 0].any() and accepted[0, 1, 0]
        assert surviving[0, 0].tolist() == [0, 0]


class TestConsistencyProbability:
    def test_noiseless_honest_is_one(self):
        hf = sample(random.Random(13), 3, GF16, 2)
        x1, x2, a1, a2 = 2, 9, 3, 5
        x3 = (fe(a1) * fe(x1) + fe(a2) * fe(x2)).value
        obs = make_obs(GF16, hf, x1, a1, a2, x2, x3, p=0.0)
        assert consistency_probability(build_trellis(obs)) == pytest.approx(1.0)

    def test_no_consistent_path_is_zero(self):
        import dataclasses

        rng = random.Random(14)
        for _ in range(100):
            hf = sample(rng, 3, GF16, 2)
            obs = make_obs(GF16, hf, rng.randrange(16), rng.randrange(1, 16), rng.randrange(1, 16),
                           rng.randrange(16), rng.randrange(16), p=0.1)
            for target in range(4):
                tr = build_trellis(dataclasses.replace(obs, relay_hash=HashValue(target, 2)))
                if not tr.edge_out.any():
                    assert consistency_probability(tr) == 0.0
                    return
        pytest.fail("never found an instance with no hash-consistent path")

    def test_matches_scalar_path_enumeration(self):
        p = 0.1
        hf = sample(random.Random(15), 3, GF16, 2)
        obs = make_obs(GF16, hf, 6, 3, 5, 0b1010, 0b0111, noisy_peer=0b1000, noisy_relay=0b0110, p=p)
        # independent scalar enumeration of all start->destination paths
        c = (fe(3) * fe(6)).value
        raw = {}
        for v in range(16):
            if evaluate(hf, fe(v)).value == obs.peer_hash.value:
                k = (v ^ obs.noisy_peer).bit_count()
                raw[v] = (p**k) * ((1 - p) ** (4 - k))
        norm = sum(raw.values())
        total = 0.0
        for v, w_in in raw.items():
            w = c ^ (fe(5) * fe(v)).value
            if evaluate(hf, fe(w)).value == obs.relay_hash.value:
                k = (w ^ obs.noisy_relay).bit_count()
                total += (w_in / norm) * (p**k) * ((1 - p) ** (4 - k))
        assert consistency_probability(build_trellis(obs)) == pytest.approx(total)

    def test_bounded_by_unit_interval(self):
        rng = random.Random(16)
        for _ in range(50):
            hf = sample(rng, 3, GF16, 2)
            obs = make_obs(GF16, hf, rng.randrange(16), rng.randrange(1, 16), rng.randrange(1, 16),
                           rng.randrange(16), rng.randrange(16),
                           noisy_peer=rng.randrange(16), noisy_relay=rng.randrange(16), p=0.2)
            assert 0.0 <= consistency_probability(build_trellis(obs)) <= 1.0


class TestDecide:
    def test_full_score_accepted(self):
        assert decide(1.0, 1e-12).decision is Hypothesis.H0

    def test_zero_score_flagged(self):
        assert decide(0.0, 1e-12).decision is Hypothesis.H1

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
            x3 = (fe(a1, spec) * fe(x1, spec) + fe(a2, spec) * fe(x2, spec)).value
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
