"""Polynomial hash family tests."""

import random

import numpy as np
import pytest
from scipy import stats

from algwatchdog.gf2n import FieldElement, FieldSpec, SpecMismatchError, canonical_spec
from algwatchdog.hashing import (
    HashFunction,
    HashValue,
    HashWidthError,
    evaluate,
    horner_tables,
    preimage_set,
    sample,
)

GF16 = canonical_spec(4)


def fe(v, spec=GF16):
    return FieldElement(v, spec)


class TestEvaluate:
    def test_constant_polynomial(self):
        hf = HashFunction((fe(0b1011), fe(0), fe(0)), width=3)
        for x in range(16):
            assert evaluate(hf, fe(x)).value == 0b011

    def test_identity_polynomial_full_width(self):
        hf = HashFunction((fe(0), fe(1)), width=4)
        for x in range(16):
            assert evaluate(hf, fe(x)).value == x

    def test_affine_truncation_example(self):
        # h(x) = 1 + x at x = 0b0110 -> 0b0111, low 2 bits 0b11
        hf = HashFunction((fe(1), fe(1)), width=2)
        assert evaluate(hf, fe(0b0110)).value == 0b11

    def test_matches_horner_free_evaluation(self):
        rng = random.Random(3)
        hf = sample(rng, 3, GF16, 3)
        for x in range(16):
            xe = fe(x)
            acc = fe(0)
            for i, c in enumerate(hf.coeffs):
                acc = acc + c * xe**i
            assert evaluate(hf, xe).value == acc.value & 0b111

    def test_values_on_agrees_with_scalar(self):
        rng = random.Random(9)
        hf = sample(rng, 4, GF16, 2)
        vec = hf.values_on(np.arange(16, dtype=np.int64))
        assert vec.tolist() == [evaluate(hf, fe(x)).value for x in range(16)]

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_values_on_agrees_with_scalar_every_word(self, d):
        # d = 0 leaves the vector Horner loop empty: the leading coefficient alone
        spec = canonical_spec(8)
        rng = random.Random(40 + d)
        for _ in range(3):
            hf = sample(rng, d, spec, 5)
            vec = hf.values_on(np.arange(spec.order, dtype=np.int64))
            assert vec.tolist() == [evaluate(hf, fe(x, spec)).value for x in range(spec.order)]

    def test_spec_mismatch(self):
        hf = HashFunction((fe(1), fe(1)), width=2)
        with pytest.raises(SpecMismatchError):
            evaluate(hf, FieldElement(1, canonical_spec(5)))

    def test_spec_mismatch_same_width_after_table_built(self):
        # x^4 + x^3 + 1 is irreducible but not the canonical x^4 + x + 1: its
        # words index the table without error, so only the spec check stops them
        hf = HashFunction((fe(3), fe(7)), width=3)
        evaluate(hf, fe(5))
        with pytest.raises(SpecMismatchError):
            evaluate(hf, FieldElement(5, FieldSpec(4, 0b11001)))


def sum_of_powers(hf: HashFunction, x: int) -> int:
    """Reference hash: the sum of a_i * x^i with FieldElement arithmetic, truncated."""
    xe = FieldElement(x, hf.spec)
    acc = FieldElement(0, hf.spec)
    for i, c in enumerate(hf.coeffs):
        acc = acc + c * xe**i
    return acc.value & ((1 << hf.width) - 1)


class TestTable:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_every_word_matches_sum_of_powers(self, n, d):
        spec = canonical_spec(n)
        hf = sample(random.Random(100 * n + d), d, spec, max(1, n - 1))
        assert hf.table.tolist() == [sum_of_powers(hf, x) for x in range(spec.order)]

    def test_random_words_match_sum_of_powers_n16(self):
        spec = canonical_spec(16)
        rng = random.Random(16)
        hf = sample(rng, 3, spec, 9)
        assert len(hf.table) == spec.order
        for x in [rng.randrange(spec.order) for _ in range(2000)]:
            assert hf.table[x] == sum_of_powers(hf, x)

    @pytest.mark.parametrize("n, rows", [(2, 3), (8, 40), (10, 9), (12, 3)])
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_stacked_rows_match_each_hash_function(self, n, rows, d):
        # 40 rows at n = 8 and 9 at n = 10 span several Horner passes
        spec = canonical_spec(n)
        rng = random.Random(10 * n + d)
        hfs = [sample(rng, d, spec, max(1, n - 2)) for _ in range(rows)]
        tables = horner_tables([[c.value for c in hf.coeffs] for hf in hfs], spec, max(1, n - 2))
        assert tables.shape == (rows, spec.order) and tables.dtype == np.uint16
        for hf, row in zip(hfs, tables):
            assert row.tolist() == hf.table.tolist()
            for x in [rng.randrange(spec.order) for _ in range(20)]:
                assert row[x] == sum_of_powers(hf, x)

    def test_built_once_per_hash_function(self, monkeypatch):
        spec = canonical_spec(8)
        calls = []
        mul_domain = FieldSpec.mul_domain

        def counted(self, a):
            calls.append(np.size(a))
            return mul_domain(self, a)

        monkeypatch.setattr(FieldSpec, "mul_domain", counted)
        hf = sample(random.Random(2), 3, spec, 4)
        for x in range(0, 256, 17):
            evaluate(hf, fe(x, spec))
        hf.values_on(np.arange(40, dtype=np.int64))
        preimage_set(hf, HashValue(3, 4))
        table = hf.table
        assert hf.table is table
        # Horner over the whole field: one multiply per coefficient below a_d,
        # the first one by the leading coefficient alone
        assert calls == [1, spec.order, spec.order]
        other = sample(random.Random(2), 3, spec, 4)
        other.values_on(np.arange(5, dtype=np.int64))
        assert len(calls) == 6


class TestSample:
    def test_deterministic_given_seed(self):
        assert sample(random.Random(42), 3, GF16, 2) == sample(random.Random(42), 3, GF16, 2)

    def test_degree_zero(self):
        hf = sample(random.Random(0), 0, GF16, 2)
        assert hf.degree == 0 and len(hf.coeffs) == 1

    def test_width_exceeding_field_rejected(self):
        with pytest.raises(HashWidthError):
            sample(random.Random(0), 2, GF16, 5)

    def test_leading_coefficient_uniform(self):
        spec = canonical_spec(8)
        rng = random.Random(123)
        counts = np.zeros(256, dtype=int)
        for _ in range(10_000):
            counts[sample(rng, 1, spec, 4).coeffs[0].value] += 1
        assert stats.chisquare(counts).pvalue > 0.01


class TestPreimageSet:
    def test_identity_hash_singleton(self):
        hf = HashFunction((fe(0), fe(1)), width=4)
        assert {e.value for e in preimage_set(hf, HashValue(0b1010, 4))} == {0b1010}

    def test_constant_hash_whole_domain(self):
        hf = HashFunction((fe(0b0101), fe(0)), width=2)
        assert len(preimage_set(hf, HashValue(0b01, 2))) == 16
        assert len(preimage_set(hf, HashValue(0b10, 2))) == 0

    def test_partition_of_domain(self):
        spec = canonical_spec(8)
        rng = random.Random(5)
        for _ in range(5):
            hf = sample(rng, 3, spec, 3)
            sets = [preimage_set(hf, HashValue(t, 3)) for t in range(8)]
            assert sum(len(s) for s in sets) == 256
            union = set().union(*({e.value for e in s} for s in sets))
            assert len(union) == 256


def test_preimage_sizes_near_uniform():
    # max preimage size within 3x the mean 2^(n-h) over 100 random degree-3 hashes
    spec = canonical_spec(10)
    rng = random.Random(77)
    domain = np.arange(spec.order, dtype=np.int64)
    worst = 0
    for _ in range(100):
        hf = sample(rng, 3, spec, 4)
        counts = np.bincount(hf.values_on(domain), minlength=16)
        worst = max(worst, counts.max())
    assert worst <= 3 * (1 << 6)
