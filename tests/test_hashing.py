"""Polynomial hash family tests."""

import random
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from algwatchdog import hashing
from algwatchdog.gf2n import FieldElement, FieldSpec, SpecMismatchError, canonical_spec
from algwatchdog.hashing import (
    HashFunction,
    HashWidthError,
    evaluate,
    hash_tables,
    sample,
)
from oracles import slow_hash

GF16 = canonical_spec(4)


def fe(v, spec=GF16):
    return FieldElement(v, spec)


class TestEvaluate:
    def test_constant_polynomial(self):
        hf = HashFunction((fe(0b1011), fe(0), fe(0)), width=3)
        for x in range(16):
            assert evaluate(hf, fe(x)) == 0b011

    def test_identity_polynomial_full_width(self):
        hf = HashFunction((fe(0), fe(1)), width=4)
        for x in range(16):
            assert evaluate(hf, fe(x)) == x and type(evaluate(hf, fe(x))) is int

    def test_affine_truncation_example(self):
        # h(x) = 1 + x at x = 0b0110 -> 0b0111, low 2 bits 0b11
        hf = HashFunction((fe(1), fe(1)), width=2)
        assert evaluate(hf, fe(0b0110)) == 0b11

    def test_matches_horner_free_evaluation(self):
        rng = random.Random(3)
        hf = sample(rng, 3, GF16, 3)
        coeffs = [c.value for c in hf.coeffs]
        for x in range(16):
            assert evaluate(hf, fe(x)) == slow_hash(coeffs, x, GF16.reduction_poly, 3)

    def test_values_on_agrees_with_scalar(self):
        rng = random.Random(9)
        hf = sample(rng, 4, GF16, 2)
        vec = hf.values_on(np.arange(16, dtype=np.int64))
        assert vec.tolist() == [evaluate(hf, fe(x)) for x in range(16)]

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_values_on_agrees_with_scalar_every_word(self, d):
        # d = 0 reads no term: the constant a_0 alone
        spec = canonical_spec(8)
        rng = random.Random(40 + d)
        for _ in range(3):
            hf = sample(rng, d, spec, 5)
            vec = hf.values_on(np.arange(spec.order, dtype=np.int64))
            assert vec.tolist() == [evaluate(hf, fe(x, spec)) for x in range(spec.order)]

    def test_malformed_coefficients_rejected(self):
        with pytest.raises(ValueError, match="need at least one coefficient"):
            HashFunction((), 2)
        with pytest.raises(SpecMismatchError, match="span multiple fields"):
            HashFunction((fe(1), FieldElement(1, canonical_spec(5))), 2)

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
    """Reference hash of one word: `oracles.slow_hash` on the hash function's coefficients."""
    return slow_hash([c.value for c in hf.coeffs], x, hf.spec.reduction_poly, hf.width)


def coeff_rows(hfs):
    return [[c.value for c in hf.coeffs] for hf in hfs]


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

    @pytest.mark.parametrize("n, rows", [(2, 3), (8, 40), (10, 9), (12, 3), (16, 3)])
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_stacked_rows_match_each_hash_function(self, n, rows, d):
        # one call per stack, each row read from the same cycle windows
        spec = canonical_spec(n)
        rng = random.Random(10 * n + d)
        hfs = [sample(rng, d, spec, max(1, n - 2)) for _ in range(rows)]
        tables = hash_tables(coeff_rows(hfs), spec, max(1, n - 2))
        assert tables.shape == (rows, spec.order) and tables.dtype == np.uint16
        for hf, row in zip(hfs, tables):
            assert row.tolist() == hf.table.tolist()
            for x in [rng.randrange(spec.order) for _ in range(20)]:
                assert row[x] == sum_of_powers(hf, x)

    @pytest.mark.parametrize("n", [2, 8, 12])
    def test_width_per_row_equals_row_by_row_builds(self, n):
        # a sub-batch shared by the points of an h sweep cuts each row to its own width;
        # each coefficient vector appears at every width 1..n
        spec = canonical_spec(n)
        rng = random.Random(500 + n)
        vectors = [[rng.randrange(spec.order) for _ in range(4)] for _ in range(3)]
        rows = [v for v in vectors for _ in range(n)]
        widths = np.tile(np.arange(1, n + 1), len(vectors))
        tables = hash_tables(rows, spec, widths)
        assert tables.shape == (len(rows), spec.order) and tables.dtype == np.uint16
        for row, width, table in zip(rows, widths, tables):
            assert table.tolist() == hash_tables([row], spec, int(width))[0].tolist()
        # the widest row keeps every bit, and each narrower one its low bits
        for v in range(len(vectors)):
            full = tables[(v + 1) * n - 1]
            for width in range(1, n + 1):
                assert (tables[v * n + width - 1] == full & ((1 << width) - 1)).all()

    def test_built_once_per_hash_function(self, monkeypatch):
        spec = canonical_spec(8)
        calls = []

        def counted(coeffs, spec, width):
            calls.append(len(coeffs))
            return hash_tables(coeffs, spec, width)

        monkeypatch.setattr(hashing, "hash_tables", counted)
        hf = sample(random.Random(2), 3, spec, 4)
        for x in range(0, 256, 17):
            evaluate(hf, fe(x, spec))
        hf.values_on(np.arange(40, dtype=np.int64))
        table = hf.table
        assert hf.table is table
        # one single-row build on first use, none after
        assert calls == [1]
        other = sample(random.Random(2), 3, spec, 4)
        other.values_on(np.arange(5, dtype=np.int64))
        assert calls == [1, 1]

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_zero_coefficients_above_a0(self, n):
        # log 0 is the sentinel 2 * 2^n: a zero a_i must contribute nothing,
        # whatever window row its start lands on
        spec = canonical_spec(n)
        rng = random.Random(200 + n)
        width = max(1, n - 1)
        rows = [[rng.randrange(spec.order) for _ in range(5)] for _ in range(6)]
        rows[0][1] = rows[1][4] = rows[2][2] = rows[2][3] = 0
        rows[3][1:] = [0, 0, 0, 0]
        rows[4] = [0, 0, 0, 0, 0]
        tables = hash_tables(rows, spec, width)
        xs = range(spec.order) if n <= 8 else [rng.randrange(spec.order) for _ in range(300)]
        for row, table in zip(rows, tables):
            hf = HashFunction(tuple(fe(c, spec) for c in row), width)
            assert [int(table[x]) for x in xs] == [sum_of_powers(hf, x) for x in xs]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_every_degree_to_20_matches_the_oracle(self, n):
        # a term of stride j >= 5 is read in ceil(j / 4) chunks; zero
        # coefficients sit at every position
        spec = canonical_spec(n)
        rng = random.Random(400 + n)
        xs = range(spec.order) if n <= 5 else [0, 1] + [rng.randrange(2, spec.order) for _ in range(30)]
        for d in range(21):
            rows = [[rng.randrange(spec.order) if rng.random() < 0.8 else 0 for _ in range(d + 1)] for _ in range(3)]
            for row, table in zip(rows, hash_tables(rows, spec, n)):
                assert [int(table[x]) for x in xs] == [slow_hash(row, x, spec.reduction_poly, n) for x in xs]

    @pytest.mark.parametrize("n, d", [(2, 3), (2, 7), (3, 7), (3, 9), (4, 31), (6, 70)])
    def test_degree_at_least_the_group_order(self, n, d):
        # x^(2^n - 1) = 1 for every nonzero x, so term i reads the stride of
        # ((i - 1) mod (2^n - 1)) + 1, up to 2^n - 1 itself
        spec = canonical_spec(n)
        rng = random.Random(300 + 10 * n + d)
        hfs = [sample(rng, d, spec, n) for _ in range(8)]
        for hf, table in zip(hfs, hash_tables(coeff_rows(hfs), spec, n)):
            assert table.tolist() == [sum_of_powers(hf, x) for x in range(spec.order)]

    def test_peak_memory_does_not_grow_with_the_degree(self):
        # one copy of exp's cycle per term would hold (d + 1)(2^n - 1) uint16
        # words, 4.1 MB at d = 2000; the build needs the same few chunks at any d
        spec = canonical_spec(10)
        rng = np.random.default_rng(7)
        small, large = (rng.integers(0, spec.order, size=(4, d + 1)) for d in (3, 2000))
        hash_tables(small, spec, 5)  # the field's log/exp tables, built once per process

        def peak(coeffs):
            tracemalloc.start()
            try:
                table = hash_tables(coeffs, spec, 5)
                return tracemalloc.get_traced_memory()[1], table
            finally:
                tracemalloc.stop()

        (small_peak, _), (large_peak, table) = peak(small), peak(large)
        assert large_peak < 2 * small_peak
        for x in (0, 1, 2, 700, 1023):
            assert table[0, x] == slow_hash(large[0].tolist(), x, spec.reduction_poly, 5)


class TestSample:
    def test_deterministic_given_seed(self):
        assert sample(random.Random(42), 3, GF16, 2) == sample(random.Random(42), 3, GF16, 2)

    def test_degree_zero(self):
        hf = sample(random.Random(0), 0, GF16, 2)
        assert len(hf.coeffs) == 1 and hf.table.tolist() == [hf.coeffs[0].value & 0b11] * 16

    def test_width_exceeding_field_rejected(self):
        with pytest.raises(HashWidthError):
            sample(random.Random(0), 2, GF16, 5)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            sample(random.Random(0), -1, GF16, 2)

    def test_leading_coefficient_uniform(self):
        spec = canonical_spec(8)
        rng = random.Random(123)
        counts = np.zeros(256, dtype=int)
        for _ in range(10_000):
            counts[sample(rng, 1, spec, 4).coeffs[0].value] += 1
        assert stats.chisquare(counts).pvalue > 0.01


def preimage(hf: HashFunction, target: int) -> list[int]:
    """The words hashing to target, by one scan of the table, as the trellis reads its layer 2."""
    return np.flatnonzero(hf.table == target).tolist()


class TestPreimageSet:
    def test_identity_hash_singleton(self):
        hf = HashFunction((fe(0), fe(1)), width=4)
        assert preimage(hf, 0b1010) == [0b1010]

    def test_constant_hash_whole_domain(self):
        hf = HashFunction((fe(0b0101), fe(0)), width=2)
        assert preimage(hf, 0b01) == list(range(16))
        assert preimage(hf, 0b10) == []

    def test_partition_of_domain(self):
        spec = canonical_spec(8)
        rng = random.Random(5)
        for _ in range(5):
            hf = sample(rng, 3, spec, 3)
            sets = [preimage(hf, t) for t in range(8)]
            assert sorted(sum(sets, [])) == list(range(256))
            for t, words in enumerate(sets):
                assert all(sum_of_powers(hf, x) == t for x in words)


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
