"""Polynomial hash family over GF(2^n).

A hash is a coefficient vector a_0..a_d; hashing a word x evaluates
sum(a_i * x^i) in the field and keeps the low h output bits.  One hash
function is shared by every node in a scenario, adversary included.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if any(c.spec != spec for c in self.coeffs):
            raise SpecMismatchError("hash coefficients span multiple fields")
        if not (1 <= self.width <= spec.n):
            raise HashWidthError(f"output width {self.width} not in [1, {spec.n}]")

    @property
    def spec(self) -> FieldSpec:
        return self.coeffs[0].spec

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def values_on(self, words: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of n-bit words (Horner from a_d)."""
        spec = self.spec
        acc = np.full_like(np.asarray(words, dtype=np.int64), self.coeffs[-1].value)
        for c in reversed(self.coeffs[:-1]):
            acc = spec.mul_words(acc, words) ^ c.value
        return acc & ((1 << self.width) - 1)


def evaluate(hf: HashFunction, x: FieldElement) -> HashValue:
    """Scalar evaluation of one field element (Horner on Python ints)."""
    if x.spec != hf.spec:
        raise SpecMismatchError("hash input from a different field")
    mul = hf.spec.mul
    acc = hf.coeffs[-1].value
    for c in reversed(hf.coeffs[:-1]):
        acc = mul(acc, x.value) ^ c.value
    return HashValue(acc & ((1 << hf.width) - 1), hf.width)


def sample(rng, d: int, spec: FieldSpec, h: int) -> HashFunction:
    """Draw d+1 coefficients independently uniform over the field."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if not (1 <= h <= spec.n):
        raise HashWidthError(f"output width {h} not in [1, {spec.n}]")
    coeffs = tuple(FieldElement(rng.randrange(spec.order), spec) for _ in range(d + 1))
    return HashFunction(coeffs, h)


def preimage_set(hf: HashFunction, target: HashValue) -> set[FieldElement]:
    """All field elements hashing to `target`, by exhaustive domain scan."""
    if target.width != hf.width:
        raise ValueError("target width does not match hash output width")
    domain = np.arange(hf.spec.order, dtype=np.int64)
    hits = domain[hf.values_on(domain) == target.value]
    return {FieldElement(int(v), hf.spec) for v in hits}
