"""BSC, radius selection, and Hamming-ball tests.

The radius oracle is an independent exact binomial CDF built by repeated
distribution convolution over the rationals.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from algwatchdog import channel
from algwatchdog.channel import (
    BinarySymmetricChannel,
    ball_offsets,
    ball_volume,
    log_likelihood,
    radius_for_epsilon,
    transmit,
)
from algwatchdog.fastcheck import radius_oracle_suite


def oracle_binomial_cdf(n: int, r: int, p: float) -> Fraction:
    pf = Fraction(p)
    dist = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (len(dist) + 1)
        for k, mass in enumerate(dist):
            nxt[k] += mass * (1 - pf)
            nxt[k + 1] += mass * pf
        dist = nxt
    return sum(dist[: r + 1], Fraction(0))


def oracle_radius(n: int, p: float, eps: float) -> int:
    target = 1 - Fraction(eps)
    return next(r for r in range(n + 1) if oracle_binomial_cdf(n, r, p) >= target)


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
                    assert radius_for_epsilon(n, p, eps).r == oracle_radius(n, p, eps)

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


class TestLogLikelihood:
    def test_uninformative_channel(self):
        chan = BinarySymmetricChannel(0.5)
        for received in (0, 0b0110, 0b1111):
            assert log_likelihood(chan, 0b1010, received, 4) == pytest.approx(4 * math.log(0.5))

    def test_known_value(self):
        chan = BinarySymmetricChannel(0.1)
        got = log_likelihood(chan, 0b11000000, 0b00000000, 8)
        assert got == pytest.approx(2 * math.log(0.1) + 6 * math.log(0.9))

    def test_noiseless_sentinels(self):
        chan = BinarySymmetricChannel(0.0)
        assert log_likelihood(chan, 0b101, 0b101, 3) == 0.0
        assert log_likelihood(chan, 0b101, 0b100, 3) == -math.inf

    def test_ball_mass_equals_binomial_cdf(self):
        chan = BinarySymmetricChannel(0.1)
        n, r, center = 8, 3, 0b1100_1010
        words = (center ^ ball_offsets(n, r)).tolist()
        mass = sum(math.exp(log_likelihood(chan, x, center, n)) for x in words)
        assert mass == pytest.approx(float(oracle_binomial_cdf(n, r, 0.1)))

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
