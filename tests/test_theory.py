"""Closed-form predictor tests; expected values computed independently below."""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from algwatchdog.theory import (
    TheoryParams,
    gamma_bound,
    gamma_bound_conservative,
    misdetection_v1,
    misdetection_v2,
    predict,
    predicted_beta,
    predicted_beta_no_overhear,
)


def bsum(n, r):
    return sum(comb(n, k) for k in range(r + 1))


def watcher_bound(n, h, v_peer, v_relay):
    # [V_p V_r + 2^h (V_p + V_r)] / (2^2h (2^n - 1)), clamped to 1
    return min(Fraction(1), Fraction(v_peer * v_relay + 2**h * (v_peer + v_relay), 4**h * (2**n - 1)))


class TestGammaBound:
    def test_passes_epsilon_through(self):
        assert gamma_bound(0.01) == Fraction(0.01)

    def test_zero_limit(self):
        assert gamma_bound(0.0) == 0

    def test_conservative_union_over_two_coverage_events(self):
        assert gamma_bound_conservative(0.01) == 2 * Fraction(0.01)
        assert gamma_bound_conservative(0.9) == 1


class TestMisdetectionPerWatcher:
    def test_no_pruning_no_hash_clamps_to_one(self):
        tp = TheoryParams(n=8, h=0, r12=8, r21=8, r31=8, r32=8)
        assert misdetection_v1(tp) == 1
        assert predicted_beta(tp) == 1

    def test_known_product(self):
        tp = TheoryParams(n=8, h=4, r12=2, r21=2, r31=2, r32=2)
        v = bsum(8, 2)
        assert v == 37
        want = Fraction(v * v + 16 * (v + v), 256 * 255)
        assert misdetection_v1(tp) == want
        assert float(want) == pytest.approx(3.9108e-2, rel=1e-3)

    def test_singleton_balls_vanishingly_small(self):
        # single-word balls leave only the two single-collision paths and the
        # one two-collision path, each needing a 1-in-(2^n - 1) offset
        tp = TheoryParams(n=12, h=10, r12=0, r21=0, r31=0, r32=0)
        assert misdetection_v1(tp) == Fraction(1 + 2**10 * 2, 2**20 * (2**12 - 1))
        assert float(misdetection_v1(tp)) < 1e-6

    def test_v2_substitutes_other_relay_radius(self):
        tp = TheoryParams(n=8, h=4, r12=2, r21=2, r31=2, r32=3)
        vp, vr = bsum(8, 2), bsum(8, 3)
        assert misdetection_v2(tp) == Fraction(vp * vr + 16 * (vp + vr), 256 * 255)
        assert float(misdetection_v2(tp)) == pytest.approx(8.4574e-2, rel=1e-3)
        assert misdetection_v1(tp) == watcher_bound(8, 4, vp, vp)

    def test_symmetric_radii_agree(self):
        # swapping the watcher roles, (r21, r31) <-> (r12, r32), swaps v1 and v2
        tp = TheoryParams(n=10, h=3, r12=2, r21=1, r31=2, r32=4)
        swapped = TheoryParams(n=10, h=3, r12=tp.r21, r21=tp.r12, r31=tp.r32, r32=tp.r31)
        assert misdetection_v1(tp) != misdetection_v2(tp)
        assert misdetection_v1(tp) == misdetection_v2(swapped)
        assert misdetection_v2(tp) == misdetection_v1(swapped)
        assert misdetection_v1(tp) == watcher_bound(10, 3, bsum(10, 1), bsum(10, 2))
        assert misdetection_v2(tp) == watcher_bound(10, 3, bsum(10, 2), bsum(10, 4))
        # watcher 1 overhears 2->1 and 3->1 only; watcher 2 overhears 1->2 and 3->2
        for r in range(11):
            assert misdetection_v1(replace(tp, r12=r)) == misdetection_v1(tp)
            assert misdetection_v2(replace(tp, r21=r)) == misdetection_v2(tp)


class TestPredictedBeta:
    def test_equals_min_of_watcher_values_on_grid(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randrange(4, 17)
            tp = TheoryParams(
                n=n, h=rng.randrange(1, n + 1),
                r12=rng.randrange(n + 1), r21=rng.randrange(n + 1),
                r31=rng.randrange(n + 1), r32=rng.randrange(n + 1),
            )
            assert predicted_beta(tp) == min(misdetection_v1(tp), misdetection_v2(tp))

    def test_known_value(self):
        tp = TheoryParams(n=8, h=3, r12=3, r21=3, r31=3, r32=3)
        v = bsum(8, 3)
        assert v == 93
        assert predicted_beta(tp) == Fraction(v * v + 8 * (v + v), 64 * 255)
        assert predicted_beta(tp) == Fraction(3379, 5440)
        assert float(predicted_beta(tp)) == pytest.approx(0.6211, rel=1e-3)

    def test_nonincreasing_in_hash_width(self):
        vals = [predicted_beta(TheoryParams(12, h, 3, 3, 3, 3)) for h in range(1, 9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_each_radius(self):
        base = dict(n=12, h=4, r12=3, r21=3, r31=3, r32=3)
        for name in ("r12", "r21", "r31", "r32"):
            vals = [predicted_beta(TheoryParams(**{**base, name: r})) for r in range(13)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_decreases_with_field_width_at_fixed_radii(self):
        # binomial sums grow polynomially in n at fixed r while the field
        # grows exponentially, so the product must fall as n grows
        vals = [predicted_beta(TheoryParams(n, 4, 2, 2, 2, 2)) for n in (8, 10, 12, 14, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exact_rational_output(self):
        tp = TheoryParams(n=16, h=8, r12=4, r21=4, r31=4, r32=4)
        v = predicted_beta(tp)
        assert isinstance(v, Fraction)
        b = bsum(16, 4)
        assert v == Fraction(b * b + 2**8 * (b + b), 2**16 * (2**16 - 1))


class TestPredict:
    """`predict` computes each watcher's bound once; each field must be what its per-field function gives."""

    GRID = [
        TheoryParams(n, h, *radii)
        for n in (3, 8)
        for h in (0, 2, n)
        for radii in ((0, 0, 0, 0), (n, 1, 2, n), (1, n, n, 0), (n, n, n, n))
    ]

    @pytest.mark.parametrize("tp", GRID, ids=str)
    def test_fields_equal_the_per_field_functions(self, tp):
        for eps in (0.01, 0.3):
            got = predict(tp, eps)
            assert got.gamma_bound_conservative == gamma_bound_conservative(eps)
            assert (got.beta_v1, got.beta_v2) == (misdetection_v1(tp), misdetection_v2(tp))
            assert got.beta == predicted_beta(tp)

    def test_equal_keys_give_equal_results(self):
        tp = TheoryParams(8, 3, 3, 2, 4, 1)
        first = predict(tp, 0.01)
        assert predict(replace(tp), 0.01) == first
        assert predict(tp, 0.01) == first

    def test_other_eps_moves_only_the_gamma_bound(self):
        tp = TheoryParams(8, 3, 3, 2, 4, 1)
        low, high = predict(tp, 0.01), predict(tp, 0.3)
        assert (low.gamma_bound_conservative, high.gamma_bound_conservative) == (Fraction(0.01) * 2, Fraction(0.3) * 2)
        assert replace(high, gamma_bound_conservative=low.gamma_bound_conservative) == low


class TestNoOverhearCorollary:
    def test_known_value(self):
        # the peer ball is the whole field: V_p = 2^n
        want = Fraction(256 * bsum(8, 2) + 16 * (256 + bsum(8, 2)), 256 * 255)
        assert predicted_beta_no_overhear(8, 4, 2, 2) == want
        assert float(want) == pytest.approx(0.21691, rel=1e-4)
        # ~ 2^-h + V_r / 4^h
        assert float(want) == pytest.approx(2**-4 + bsum(8, 2) / 4**4, rel=0.1)

    def test_clamp_at_full_radius_small_hash(self):
        assert predicted_beta_no_overhear(8, 1, 8, 8) == 1

    def test_equals_general_formula_with_maxed_source_radii(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(4, 17)
            h, r31, r32 = rng.randrange(1, n + 1), rng.randrange(n + 1), rng.randrange(n + 1)
            tp = TheoryParams(n=n, h=h, r12=n, r21=n, r31=r31, r32=r32)
            assert predicted_beta(tp) == predicted_beta_no_overhear(n, h, r31, r32)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        TheoryParams(n=0, h=0, r12=0, r21=0, r31=0, r32=0)
    with pytest.raises(ValueError):
        TheoryParams(n=8, h=9, r12=2, r21=2, r31=2, r32=2)
    with pytest.raises(ValueError):
        TheoryParams(n=8, h=3, r12=9, r21=2, r31=2, r32=2)
