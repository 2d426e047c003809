"""Field arithmetic tests.

The multiplication oracle, `oracles.slow_mul`, is deliberately independent
of the package: schoolbook shift-XOR carry-less multiply followed by
long-division reduction, coded from scratch.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algwatchdog import gf2n
from algwatchdog.gf2n import (
    FieldElement,
    FieldSpec,
    UnsupportedWidthError,
    canonical_spec,
)
from algwatchdog.hashing import hash_tables
from oracles import slow_mul, tables_by_steps


def oracle_reduce(a: int, poly: int) -> int:
    deg = poly.bit_length() - 1
    for shift in range(a.bit_length() - 1 - deg, -1, -1):
        if (a >> (shift + deg)) & 1:
            a ^= poly << shift
    return a


def oracle_is_irreducible(poly: int) -> bool:
    deg = poly.bit_length() - 1
    for q in range(2, 1 << deg):
        if q.bit_length() - 1 > deg // 2:
            break
        if oracle_reduce(poly, q) == 0 and q.bit_length() > 1:
            return False
    return deg >= 1


GF16 = canonical_spec(4)


class TestCanonicalSpec:
    def test_degree_4_is_x4_x_1(self):
        assert canonical_spec(4).reduction_poly == 0b10011

    def test_degree_8_matches_exhaustive_scan(self):
        want = next(p for p in range(1 << 8, 1 << 9) if oracle_is_irreducible(p))
        assert canonical_spec(8).reduction_poly == want

    @pytest.mark.parametrize("n", [0, 1, 17, 32])
    def test_out_of_range_width_rejected(self, n):
        with pytest.raises(UnsupportedWidthError):
            canonical_spec(n)
        with pytest.raises(UnsupportedWidthError):
            FieldSpec(n)

    def test_deterministic_per_width(self):
        assert canonical_spec(6) == canonical_spec(6) == FieldSpec(6)

    def test_reducible_poly_rejected(self):
        # one field per width: the polynomial is derived, never passed
        with pytest.raises(TypeError):
            FieldSpec(4, 0b11001)
        assert not gf2n.is_irreducible(0b10101)  # (x^2+x+1)^2
        # a constant has no degree to reduce by
        assert not gf2n.is_irreducible(1)


class TestMul:
    def test_identity(self):
        assert int(GF16.mul_words(0b1001, 1)) == 0b1001

    def test_annihilator(self):
        assert int(GF16.mul_words(0b1110, 0)) == 0

    def test_reduction_example(self):
        assert int(GF16.mul_words(0b0010, 0b1000)) == 0b0011


def monomial_table(spec, k):
    """x^k for every word x, read from the one place the package raises words to powers: the hash tables."""
    return hash_tables([[0] * k + [1]], spec, spec.n)[0]


class TestPow:
    """Powers of a word are the hash tables of the monomial hashes x^k."""

    def test_zero_exponent(self):
        assert monomial_table(GF16, 0).tolist() == [1] * 16

    def test_one_exponent(self):
        assert monomial_table(GF16, 1).tolist() == list(range(16))

    def test_x_to_4(self):
        assert monomial_table(GF16, 4)[0b0010] == 0b0011

    def test_matches_repeated_mul(self):
        words = np.arange(16, dtype=np.int64)
        acc = np.ones(16, dtype=np.int64)
        for k in range(40):
            assert monomial_table(GF16, k).tolist() == acc.tolist()
            acc = GF16.mul_words(acc, words)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_field_axioms(a, b, c):
    mul = canonical_spec(5).mul_words
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, 1) == a and mul(a, 0) == 0


@pytest.mark.parametrize("n", range(2, 17))
def test_tables_equal_power_by_power_walk(n):
    # the canonical field at every width: at n = 8 g = 2 has order 51 and g = 3
    # is taken, at n = 14 g = 7, and from n = 8 on the grid has several rows
    polys = [canonical_spec(n).reduction_poly]
    if n in (4, 8):
        # every irreducible polynomial of the width, each with its own primitive element
        polys = [p for p in range(1 << n, 1 << (n + 1)) if gf2n.is_irreducible(p)]
    for poly in polys:
        exp, log = gf2n._tables.__wrapped__(n, poly)
        want_exp, want_log = tables_by_steps(n, poly)
        assert exp.dtype == want_exp.dtype and log.dtype == want_log.dtype
        assert exp.tolist() == want_exp.tolist() and log.tolist() == want_log.tolist(), hex(poly)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_every_nonzero_element_invertible(n):
    spec = canonical_spec(n)
    domain = np.arange(1, spec.order, dtype=np.int64)
    for a in range(1, spec.order):
        assert 1 in spec.mul_words(a, domain)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mul_matches_oracle_exhaustively(n):
    spec = canonical_spec(n)
    for a in range(spec.order):
        got = spec.mul_words(a, np.arange(spec.order, dtype=np.int64))
        want = [slow_mul(a, b, spec.reduction_poly) for b in range(spec.order)]
        assert got.tolist() == want


@pytest.mark.parametrize("n", [10, 13, 16])
def test_mul_matches_oracle_random_pairs(n):
    spec = canonical_spec(n)
    rng = random.Random(n)
    for _ in range(2000):
        a, b = rng.randrange(spec.order), rng.randrange(spec.order)
        assert int(spec.mul_words(a, b)) == slow_mul(a, b, spec.reduction_poly)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_scalar_mul_matches_slow_mul_exhaustively(n):
    spec = canonical_spec(n)
    for a in range(spec.order):
        assert [int(spec.mul_words(a, b)) for b in range(spec.order)] == [
            slow_mul(a, b, spec.reduction_poly) for b in range(spec.order)
        ]


@pytest.mark.parametrize("n", [12, 16])
def test_scalar_mul_matches_slow_mul_random_pairs(n):
    spec = canonical_spec(n)
    rng = random.Random(n)
    pairs = [(rng.randrange(spec.order), rng.randrange(spec.order)) for _ in range(2000)]
    pairs[:3] = [(0, 0), (0, pairs[3][1]), (pairs[4][0], 0)]
    for a, b in pairs:
        got = spec.mul_words(a, b)
        assert np.ndim(got) == 0 and int(got) == slow_mul(a, b, spec.reduction_poly)


class TestMulWordsZero:
    """A zero operand must land in the zero padding of the exp table."""

    def test_scalar_calls(self):
        spec = canonical_spec(8)
        for a in (0, 1, 0x53, 0xFF):
            assert int(spec.mul_words(0, a)) == 0
            assert int(spec.mul_words(a, 0)) == 0

    def test_mixed_arrays(self):
        spec = canonical_spec(8)
        a = np.array([0, 0x53, 0, 0xFF, 1, 0xCA], dtype=np.int64)
        b = np.array([0x11, 0, 0, 0xFF, 0, 0x35], dtype=np.int64)
        want = [slow_mul(int(x), int(y), spec.reduction_poly) for x, y in zip(a, b)]
        assert want[:3] == [0, 0, 0]
        assert spec.mul_words(a, b).tolist() == want
        assert spec.mul_words(0, b).tolist() == [0] * len(b)

    def test_largest_index_at_n16(self):
        # log[0] + log[0] = 4 * 2^16, the last entry of the padded exp table
        assert int(canonical_spec(16).mul_words(0, 0)) == 0


def test_element_range_checked():
    with pytest.raises(Exception):
        FieldElement(16, GF16)
    with pytest.raises(Exception):
        FieldElement(-1, GF16)
