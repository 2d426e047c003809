"""Polynomial hash family over GF(2^n).

A hash is a coefficient vector a_0..a_d; hashing a word x evaluates
sum(a_i * x^i) in the field and keeps the low h output bits.  One hash
function is shared by every node in a scenario, adversary included, and is
read on many words per round, so each `HashFunction` hashes the whole field
once, on first use, into `table`; `evaluate` and `values_on` read it.
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

    @cached_property
    def table(self) -> np.ndarray:
        """h(x) for every word x of the field, indexed by x (Horner from a_d).

        Built on first use and kept for the life of the hash function, which
        is frozen, so the table never goes stale.
        """
        spec = self.spec
        # acc stays one int until the first multiply by the domain; d = 0
        # leaves it one, which broadcasting spreads over the whole field
        acc = self.coeffs[-1].value
        for c in reversed(self.coeffs[:-1]):
            acc = spec.mul_domain(acc) ^ c.value
        return np.broadcast_to(acc, spec.order) & ((1 << self.width) - 1)

    def values_on(self, words: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of n-bit words."""
        return self.table.take(words)


def evaluate(hf: HashFunction, x: FieldElement) -> HashValue:
    """Scalar evaluation of one field element."""
    if x.spec != hf.spec:
        raise SpecMismatchError("hash input from a different field")
    return HashValue(hf.table.item(x.value), hf.width)


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
    return {FieldElement(v, hf.spec) for v in np.flatnonzero(hf.table == target.value).tolist()}
