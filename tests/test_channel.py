"""BSC, radius selection, and Hamming-ball tests.

The radius oracle (`oracles.radius_pascal`) is an independent exact binomial
CDF built by repeated distribution convolution over the rationals.
"""

import math
import random

import numpy as np
import pytest

from algwatchdog import channel
from algwatchdog.channel import (
    BinarySymmetricChannel,
    ball_offsets,
    ball_volume,
    likelihood_by_distance,
    masks_from_words,
    noise_mask,
    radius_for_epsilon,
    transmit,
)
from oracles import binomial_cdf_pascal, radius_oracle_suite, radius_pascal, stream_bytes


class TestTransmit:
    def test_noiseless_identity(self):
        chan = BinarySymmetricChannel(0.0)
        rng = random.Random(1)
        for payload in (0, 0b1010, 0xFF):
            assert transmit(chan, payload, 8, rng) == payload

    def test_half_flip_mean(self):
        chan = BinarySymmetricChannel(0.5)
        rng = random.Random(2)
        flips = sum((transmit(chan, 0, 8, rng)).bit_count() for _ in range(10_000))
        mean, sigma = 4.0, math.sqrt(8 * 0.25)
        assert abs(flips / 10_000 - mean) <= 3 * sigma / math.sqrt(10_000)

    def test_low_p_mean(self):
        chan = BinarySymmetricChannel(0.1)
        rng = random.Random(3)
        flips = sum((transmit(chan, 0b1111, 8, rng)).bit_count() - 0 for _ in range(10_000))
        # mean flip count vs sent word: distance to original
        rng = random.Random(3)
        dist = sum((transmit(chan, 0b1111, 8, rng) ^ 0b1111).bit_count() for _ in range(10_000))
        mean, sigma = 0.8, math.sqrt(8 * 0.1 * 0.9)
        assert abs(dist / 10_000 - mean) <= 3 * sigma / math.sqrt(10_000)

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            BinarySymmetricChannel(0.6)


NOISE_PROBS = [0.0, 2.0**-53, 0.1, 0.3, 0.5]


class TestNoiseMask:
    """Masks read from raw MT19937 words against the per-bit scalar draw `noise_mask`: bit i set when random() < p."""

    @pytest.mark.parametrize("p", NOISE_PROBS)
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_equals_per_bit_reference(self, n, p):
        for seed in range(200):
            read, drawn = random.Random(seed), random.Random(seed)
            want = noise_mask(BinarySymmetricChannel(p), n, drawn)
            got = 0
            # as in the harness's draw step, a link with p = 0 reads no words
            if p > 0.0:
                got = int(masks_from_words(np.frombuffer(stream_bytes(read, 2 * n), dtype="<u4").reshape(n, 2), p))
            assert got == want
            # the same number of outputs read (none at p = 0), so the stream goes on where it would have
            assert read.getstate() == drawn.getstate()

    def test_threshold_is_exact_at_the_smallest_probability(self):
        # random() is 0 for words whose kept bits are all zero and 2^-53 when
        # only the lowest kept bit is set: only the first is below 2^-53
        words = np.array([[0, 0], [31, 63], [0, 64], [32, 0]], dtype=np.uint32)
        assert masks_from_words(words, 2.0**-53) == 0b0011
        assert masks_from_words(words, 2.0**-52) == 0b0111
        assert masks_from_words(words, 2.0**-53 * 2**26 + 2.0**-53) == 0b1111
        top = np.full((3, 2), 0xFFFFFFFF, dtype=np.uint32)
        # the largest random() is 1 - 2^-53, below 0.5 nowhere and below 1 everywhere
        assert masks_from_words(top, 0.5) == 0 and masks_from_words(top, 1.0) == 0b111

    def test_batch_of_links_with_their_own_probabilities(self):
        # (B, L, n, 2) words and one probability per link, as the harness's draw step reads them
        n, probs = 8, [0.1, 0.5, 2.0**-53]
        streams = [random.Random(seed) for seed in range(20)]
        words = np.array(
            [[[[s.getrandbits(32), s.getrandbits(32)] for _ in range(n)] for _ in probs] for s in streams],
            dtype=np.uint32,
        )
        streams = [random.Random(seed) for seed in range(20)]
        want = [[noise_mask(BinarySymmetricChannel(p), n, s) for p in probs] for s in streams]
        assert masks_from_words(words, probs).tolist() == want


class TestRadiusForEpsilon:
    def test_noiseless_radius_zero(self):
        assert radius_for_epsilon(8, 0.0, 0.01).r == 0

    def test_full_coverage_when_eps_tiny(self):
        assert radius_for_epsilon(8, 0.5, 2**-9).r == 8

    def test_known_value(self):
        assert radius_for_epsilon(8, 0.1, 0.01).r == 3

    def test_matches_independent_oracle_on_grid(self):
        for n in (4, 8, 12, 16):
            for p in (0.01, 0.05, 0.1, 0.2):
                for eps in (0.001, 0.01, 0.05):
                    assert radius_for_epsilon(n, p, eps).r == radius_pascal(n, p, eps)

    def test_monotone_in_eps_and_p(self):
        for n in (6, 10):
            for p in (0.05, 0.1, 0.2):
                rs = [radius_for_epsilon(n, p, eps).r for eps in (0.001, 0.01, 0.1, 0.3)]
                assert rs == sorted(rs, reverse=True)
            for eps in (0.01, 0.05):
                rs = [radius_for_epsilon(n, p, eps).r for p in (0.0, 0.05, 0.1, 0.2, 0.4)]
                assert rs == sorted(rs)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            radius_for_epsilon(8, 0.1, 0.0)


class TestRadiusCache:
    """radius_for_epsilon is memoized; each test starts from an empty cache."""

    def test_second_call_skips_cdf(self, monkeypatch):
        radius_for_epsilon.cache_clear()
        calls = []
        exact = channel.binomial_cdf_exact

        def counting(n, r, p):
            calls.append((n, r, p))
            return exact(n, r, p)

        monkeypatch.setattr(channel, "binomial_cdf_exact", counting)
        first = radius_for_epsilon(8, 0.1, 0.01)
        assert first.r == 3 and len(calls) == 4
        assert radius_for_epsilon(8, 0.1, 0.01) == first
        assert len(calls) == 4

    @pytest.mark.parametrize("p, eps", [(0.1, 0.0), (0.1, 1.0), (0.1, -0.5), (0.6, 0.01), (-0.1, 0.01)])
    def test_invalid_input_raises_on_every_call(self, p, eps):
        radius_for_epsilon.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError):
                radius_for_epsilon(8, p, eps)

    def test_cached_radii_match_pascal_oracle(self):
        radius_for_epsilon.cache_clear()
        radius_oracle_suite()
        misses = radius_for_epsilon.cache_info().misses
        radius_oracle_suite()  # every answer now comes from the cache
        info = radius_for_epsilon.cache_info()
        assert info.misses == misses and info.hits >= misses


class TestBalls:
    def test_volume_extremes(self):
        assert ball_volume(9, 0) == 1
        assert ball_volume(9, 9) == 512

    def test_volume_example(self):
        assert ball_volume(8, 2) == 37

    def test_volume_range_error(self):
        with pytest.raises(ValueError):
            ball_volume(4, 5)

    def test_offsets_radius_zero(self):
        assert ball_offsets(4, 0).tolist() == [0]

    def test_offsets_weight_one(self):
        assert ball_offsets(4, 1).tolist() == [0b0000, 0b0001, 0b0010, 0b0100, 0b1000]

    def test_offsets_full_space(self):
        assert sorted((0b0110 ^ ball_offsets(4, 4)).tolist()) == list(range(16))

    def test_offsets_properties(self):
        offsets = ball_offsets(5, 2).tolist()
        weights = [o.bit_count() for o in offsets]
        assert weights == sorted(weights)
        # (weight, value) order: numeric order within each weight shell
        assert offsets == sorted(offsets, key=lambda o: (o.bit_count(), o))
        for center in (0, 0b10101, 0b11111):
            words = (center ^ ball_offsets(5, 2)).tolist()
            assert len(words) == len(set(words)) == ball_volume(5, 2)
            assert all((w ^ center).bit_count() <= 2 for w in words)

    def test_offsets_range_error(self):
        with pytest.raises(ValueError):
            ball_offsets(4, 5)


def bsc_log_likelihood(p: float, k, n: int):
    """ln P(received | sent) for n-bit words k bits apart, as the float expression k ln p + (n - k) ln(1 - p)."""
    return k * math.log(p) + (n - k) * math.log(1.0 - p)


def likelihood(chan, sent, received, n):
    """P(received | sent) for n-bit words: `likelihood_by_distance` read at their Hamming distance."""
    return likelihood_by_distance(chan.p, n).take(np.bitwise_count(np.asarray(sent) ^ received))


def log_likelihood(chan, sent, received, n):
    """ln of `likelihood`: -inf, not a warning, where a flip is impossible."""
    with np.errstate(divide="ignore"):
        return np.log(likelihood(chan, sent, received, n))


class TestLogLikelihood:
    """The BSC likelihood read in the log domain, k ln p + (n - k) ln(1 - p)."""

    def test_uninformative_channel(self):
        chan = BinarySymmetricChannel(0.5)
        for received in (0, 0b0110, 0b1111):
            assert log_likelihood(chan, 0b1010, received, 4) == pytest.approx(4 * math.log(0.5))

    def test_known_value(self):
        chan = BinarySymmetricChannel(0.1)
        got = log_likelihood(chan, 0b11000000, 0b00000000, 8)
        assert got == pytest.approx(2 * math.log(0.1) + 6 * math.log(0.9))

    def test_noiseless_sentinels(self):
        # at p = 0 a flipped bit is impossible: likelihood 0, not a tiny float
        chan = BinarySymmetricChannel(0.0)
        assert log_likelihood(chan, 0b101, 0b101, 3) == 0.0
        assert log_likelihood(chan, 0b101, 0b100, 3) == -math.inf

    def test_ball_mass_equals_binomial_cdf(self):
        chan = BinarySymmetricChannel(0.1)
        n, r, center = 8, 3, 0b1100_1010
        mass = np.exp(log_likelihood(chan, center ^ ball_offsets(n, r), center, n)).sum()
        assert mass == pytest.approx(float(binomial_cdf_pascal(n, r, 0.1)))

    def test_array_matches_scalar(self):
        chan = BinarySymmetricChannel(0.1)
        words = np.arange(256, dtype=np.int64)
        got = log_likelihood(chan, words, 0b0110_1001, 8)
        assert got.shape == words.shape
        assert got.tolist() == [log_likelihood(chan, int(w), 0b0110_1001, 8) for w in words]

    def test_array_noiseless_sentinels(self):
        chan = BinarySymmetricChannel(0.0)
        got = log_likelihood(chan, np.array([0b101, 0b100, 0b001, 0b101]), 0b101, 3)
        assert got.tolist() == [0.0, -math.inf, -math.inf, 0.0]


class TestLikelihood:
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.1, 0.25, 0.5])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_reads_the_same_floats_as_log_likelihood(self, n, p):
        chan = BinarySymmetricChannel(p)
        words = np.arange(1 << n, dtype=np.int64)
        received = random.Random(n).randrange(1 << n)
        k = np.bitwise_count(words ^ received).astype(np.int64)
        want = np.where(k == 0, 1.0, 0.0) if p == 0.0 else np.exp(bsc_log_likelihood(p, k, n))
        got = likelihood(chan, words, received, n)
        assert got.dtype == want.dtype and (got == want).all()

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.5])
    def test_mass_sums_to_one_over_the_domain(self, p):
        n = 10
        received = random.Random(3).randrange(1 << n)
        mass = likelihood(BinarySymmetricChannel(p), np.arange(1 << n), received, n).sum()
        assert mass == pytest.approx(1.0)

    def test_table_is_read_only(self):
        likelihood(BinarySymmetricChannel(0.1), np.arange(4), 0, 2)
        table = likelihood_by_distance(0.1, 2)
        with pytest.raises(ValueError):
            table[0] = 0.0


class TestLikelihoodByDistance:
    """The n + 1 floats every trellis score is built from, pinned to the bit."""

    @pytest.mark.parametrize("p", [1e-9, 1e-3, 0.01, 0.1, 0.15, 0.25, 1 / 3, 0.45, 0.5])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_bytes_of_the_float_expression(self, n, p):
        want = np.exp(bsc_log_likelihood(p, np.arange(n + 1), n))
        assert channel.likelihood_by_distance(p, n).tobytes() == want.tobytes()

    def test_recorded_floats(self):
        want = ["0x1.4fec56d5cfaadp-1", "0x1.2a9930be0ded3p-4", "0x1.096bb98c7e284p-7",
                "0x1.d7dbf487fcb98p-11", "0x1.a36e2eb1c4333p-14"]
        assert [float(v).hex() for v in channel.likelihood_by_distance(0.1, 4)] == want

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_noiseless_channel(self, n):
        assert channel.likelihood_by_distance(0.0, n).tolist() == [1.0] + [0.0] * n
