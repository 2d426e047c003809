"""Polynomial hash family over GF(2^n).

A hash is a coefficient vector a_0..a_d; hashing a word x evaluates
sum(a_i * x^i) in the field and keeps the low h output bits.  One hash
function is shared by every node in a scenario, adversary included, and is
read on many words per round, so each `HashFunction` hashes the whole field
once, on first use, into `table`; `evaluate` and `values_on` read it.
`horner_tables` builds those tables, one row per coefficient vector, for a
single hash function and for a whole sub-batch of trials alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2n import FieldElement, FieldSpec, SpecMismatchError


class HashWidthError(ValueError):
    """Requested output width exceeds the field bit-width."""


@dataclass(frozen=True)
class HashValue:
    value: int
    width: int

    def __post_init__(self):
        if not (0 <= self.value < (1 << self.width)):
            raise ValueError(f"{self.value} is not a {self.width}-bit word")


@dataclass(frozen=True)
class HashFunction:
    """h(x) = a_0 + a_1 x + ... + a_d x^d in GF(2^n), truncated to `width` bits."""

    coeffs: tuple[FieldElement, ...]
    width: int

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        spec = self.coeffs[0].spec
        if any(c.spec is not spec and c.spec != spec for c in self.coeffs):
            raise SpecMismatchError("hash coefficients span multiple fields")
        if not (1 <= self.width <= spec.n):
            raise HashWidthError(f"output width {self.width} not in [1, {spec.n}]")

    @property
    def spec(self) -> FieldSpec:
        return self.coeffs[0].spec

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def table(self) -> np.ndarray:
        """h(x) for every word x of the field, indexed by x (Horner from a_d).

        Built on first use and kept for the life of the hash function, which
        is frozen, so the table never goes stale.  Held as uint16 (h <= n <=
        16): a quarter of the int64 table's memory, which the trellis engine
        holds for a whole sub-batch of trials.
        """
        return horner_tables([[c.value for c in self.coeffs]], self.spec, self.width)[0]

    def values_on(self, words: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of n-bit words."""
        return self.table.take(words)

    def of_word(self, x: int) -> HashValue:
        """Scalar evaluation of one n-bit word given as an int."""
        return HashValue(self.table.item(x), self.width)


# one Horner pass covers at most this many words: building a sub-batch's
# tables took 34 us a trial in 4,096-word passes at n = 12 against 67 us
# in one (16, 4096) pass, and 2.7 against 4.1 us at n = 8 (256 rows, d = 3)
_PASS_WORDS = 1 << 12


def horner_tables(coeffs, spec: FieldSpec, width: int) -> np.ndarray:
    """h(x) for every word x of the field, one row per coefficient vector (Horner from a_d).

    coeffs is (B, d+1) words, a_0 first, as `HashFunction.coeffs` holds
    them; the result is (B, 2^n) uint16, row b indexed by x.  Rows are
    built in groups of at most 2^12 words.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.empty((len(coeffs), spec.order), dtype=np.uint16)
    step = max(1, _PASS_WORDS >> spec.n)
    for lo in range(0, len(coeffs), step):
        group = coeffs[lo : lo + step]
        # acc stays one column until the first multiply by the domain; d = 0
        # leaves it one, the same hash for every word of a row
        acc = group[:, -1:]
        for i in range(group.shape[1] - 2, -1, -1):
            acc = spec.mul_domain(acc) ^ group[:, i : i + 1]
        out[lo : lo + step] = acc & ((1 << width) - 1)
    return out


def evaluate(hf: HashFunction, x: FieldElement) -> HashValue:
    """Scalar evaluation of one field element."""
    if x.spec != hf.spec:
        raise SpecMismatchError("hash input from a different field")
    return hf.of_word(x.value)


def sample(rng, d: int, spec: FieldSpec, h: int) -> HashFunction:
    """Draw d+1 coefficients independently uniform over the field."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if not (1 <= h <= spec.n):
        raise HashWidthError(f"output width {h} not in [1, {spec.n}]")
    order = spec.order
    coeffs = tuple(FieldElement(rng.randrange(order), spec) for _ in range(d + 1))
    return HashFunction(coeffs, h)


def preimage_set(hf: HashFunction, target: HashValue) -> set[FieldElement]:
    """All field elements hashing to `target`, by exhaustive domain scan."""
    if target.width != hf.width:
        raise ValueError("target width does not match hash output width")
    return {FieldElement(v, hf.spec) for v in np.flatnonzero(hf.table == target.value).tolist()}
