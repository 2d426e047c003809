"""Polynomial hash family over GF(2^n).

A hash is a coefficient vector a_0..a_d; hashing a word x evaluates
sum(a_i * x^i) in the field and keeps the low h output bits.  One hash
function is shared by every node in a scenario, adversary included, and is
read on many words per round, so each `HashFunction` hashes the whole field
once, on first use, into `table`; `evaluate` and `values_on` read it.
`hash_tables` builds those tables, one row per coefficient vector, for a
single hash function and for a whole sub-batch of trials alike, in the log
domain, where a term over every nonzero x is one strided read of exp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gf2n import FieldElement, FieldSpec, SpecMismatchError, _tables


class HashWidthError(ValueError):
    """Requested output width exceeds the field bit-width."""


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

    @cached_property
    def table(self) -> np.ndarray:
        """h(x) for every word x of the field, indexed by x (`hash_tables`).

        Built on first use and kept for the life of the hash function, which
        is frozen, so the table never goes stale.  Held as uint16 (h <= n <=
        16): a quarter of the int64 table's memory, which the trellis engine
        holds for a whole sub-batch of trials.
        """
        return hash_tables([[c.value for c in self.coeffs]], self.spec, self.width)[0]

    def values_on(self, words: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of n-bit words."""
        return self.table.take(words)


def hash_tables(coeffs, spec: FieldSpec, width: int) -> np.ndarray:
    """h(x) for every word x of the field, one row per coefficient vector.

    coeffs is (B, d+1) words, a_0 first, as `HashFunction.coeffs` holds
    them; the result is (B, 2^n) uint16, row b indexed by x.  A nonzero x
    is exp[k], k = log x, and x^i = x^j for j = ((i - 1) mod (2^n - 1)) + 1,
    so the term a_i x^i is exp[log a_i + j k]: over every k, ceil(j / 4)
    chunks of stride-j reads from `_cycle_windows` (zeroed where a_i = 0),
    one chunk per span of at most four cycles, so the memory a term needs
    does not grow with d.  The terms are XORed into columns k, and one
    gather by log x puts them in word order; it clips log 0, the sentinel,
    to column 2^n - 1, which no term reaches, so h(0) = a_0.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    _, log = _tables(spec.n, spec.reduction_poly)
    period = spec.order - 1
    windows = _cycle_windows(spec)
    acc = np.zeros((len(coeffs), spec.order), dtype=np.uint16)
    for i in range(1, coeffs.shape[1]):
        j = (i - 1) % period + 1
        chunk = -(-period // -(-j // 4))
        rows = log.take(coeffs[:, i]) % period
        if chunk < period:
            # chunk c of row b starts at column c * chunk, at exp[log a_i + j c chunk]
            rows = (rows[:, None] + np.arange(0, j * period, j * chunk)).ravel() % period
        term = windows[:, : (chunk - 1) * j + 1 : j][rows].reshape(len(coeffs), -1)[:, :period]
        term[coeffs[:, i] == 0] = 0
        acc[:, :period] ^= term
    acc ^= coeffs[:, :1].astype(np.uint16)
    acc &= (1 << width) - 1
    return acc.take(log, axis=1, mode="clip")


@lru_cache(maxsize=None)
def _cycle_windows(spec: FieldSpec) -> np.ndarray:
    """Row s holds exp[s + t] for t <= 4 (2^n - 1): windows over one uint16 copy
    of exp's cycle repeated five times, the field's only copy whatever d is."""
    exp, _ = _tables(spec.n, spec.reduction_poly)
    period = spec.order - 1
    return sliding_window_view(np.tile(exp[:period].astype(np.uint16), 5), 4 * period + 1)[:period]


def evaluate(hf: HashFunction, x: FieldElement) -> int:
    """Scalar evaluation of one field element: its h-bit hash word."""
    if x.spec != hf.spec:
        raise SpecMismatchError("hash input from a different field")
    return hf.table.item(x.value)


def sample(rng, d: int, spec: FieldSpec, h: int) -> HashFunction:
    """Draw d+1 coefficients independently uniform over the field."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    order = spec.order
    coeffs = tuple(FieldElement(rng.randrange(order), spec) for _ in range(d + 1))
    return HashFunction(coeffs, h)
