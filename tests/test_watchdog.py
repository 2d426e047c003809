"""Detection engine tests.

The algebraic check is validated against a brute-force re-implementation
that scans the whole field with no ball pruning; the trellis path-sum is
validated against a scalar path enumeration coded from first principles.
"""

import math
import random

import numpy as np
import pytest

from algwatchdog.channel import BinarySymmetricChannel, ball_volume, radius_for_epsilon
from algwatchdog.gf2n import FieldElement, canonical_spec
from algwatchdog.hashing import HashFunction, HashValue, evaluate, preimage_set, sample
from algwatchdog.watchdog import (
    Hypothesis,
    Observation,
    algebraic_check,
    build_trellis,
    candidate_set,
    consistency_probability,
    decide,
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
