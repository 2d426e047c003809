"""Binary symmetric channels and Hamming-ball combinatorics.

The overhearing links are BSCs with per-edge crossover probability.  A
watcher turns a crossover probability and a coverage budget epsilon into a
Hamming radius r: the smallest r whose binomial CDF reaches 1 - epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class BinarySymmetricChannel:
    """Crossover probability p, restricted to [0, 0.5]."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 0.5):
            raise ValueError(f"crossover probability {self.p} outside [0, 0.5]")


@dataclass(frozen=True)
class Radius:
    r: int
    epsilon: float


# 2^i for each bit i of a word of the widest field, n = 16
_BIT_VALUES = np.array([1 << i for i in range(16)], dtype=np.int64)


def masks_from_words(words: np.ndarray, p) -> np.ndarray:
    """n-bit error patterns from MT19937 outputs: bit i is set when the i-th `random()` they hold is < p.

    words is (..., n, 2) uint32, the two outputs each `random()` reads, and
    p broadcasts against (...).  `random()` is ((w0 >> 5) 2^26 + (w1 >> 6))
    2^-53, and both that product and p 2^53 are exact in float64, so the
    numerator is compared with p 2^53.  Returns the (...) int64 masks.
    """
    numerator = (words[..., 0] >> 5) * 67108864.0
    numerator += words[..., 1] >> 6
    bits = numerator < np.multiply(p, 2.0**53)[..., None]
    return bits.dot(_BIT_VALUES[: words.shape[-2]])


def noise_mask(chan: BinarySymmetricChannel, n: int, rng) -> int:
    """Draw an n-bit error pattern, each bit set independently with prob p.

    Bit i is set when the i-th `random()` of rng is < p, the rule
    `masks_from_words` applies to raw outputs; at p = 0 nothing is drawn.
    """
    p = chan.p
    if p == 0.0:
        return 0
    return sum(1 << i for i in range(n) if rng.random() < p)


def transmit(chan: BinarySymmetricChannel, payload: int, n: int, rng) -> int:
    """Pass an n-bit word through the channel."""
    return payload ^ noise_mask(chan, n, rng)


def binomial_cdf_exact(n: int, r: int, p: float) -> Fraction:
    """P(X <= r) for X ~ Binomial(n, p), exact over the rationals.

    The float p is converted to the exact rational it represents, so the
    comparison against 1 - eps has no rounding ambiguity.
    """
    pf = Fraction(p)
    qf = 1 - pf
    return sum(
        (math.comb(n, k) * pf**k * qf ** (n - k) for k in range(r + 1)),
        start=Fraction(0),
    )


@lru_cache(maxsize=None)
def radius_for_epsilon(n: int, p: float, eps: float) -> Radius:
    """Smallest r with binomial CDF(n, p) at r >= 1 - eps.

    Memoized: a run asks for the same few (n, p, eps) for every group of
    chunks and every report, and each answer costs up to n + 1 exact
    rational CDFs.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"epsilon {eps} outside (0, 1)")
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"crossover probability {p} outside [0, 0.5]")
    target = 1 - Fraction(eps)
    for r in range(n + 1):
        if binomial_cdf_exact(n, r, p) >= target:
            return Radius(r, eps)


def ball_volume(n: int, r: int) -> int:
    """Number of n-bit words within Hamming distance r of any center."""
    if not (0 <= r <= n):
        raise ValueError(f"radius {r} outside [0, {n}]")
    return sum(math.comb(n, k) for k in range(r + 1))


@lru_cache(maxsize=None)
def ball_offsets(n: int, r: int) -> np.ndarray:
    """All n-bit error patterns of weight <= r, ordered by (weight, value)."""
    if not (0 <= r <= n):
        raise ValueError(f"radius {r} outside [0, {n}]")
    out = []
    for w in range(r + 1):
        layer = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), w))
        out.extend(layer)
    return np.array(out, dtype=np.int64)


@lru_cache(maxsize=None)
def likelihood_by_distance(p: float, n: int) -> np.ndarray:
    """Entry k: P(received | sent) for n-bit words k bits apart, exp(k ln p + (n - k) ln(1 - p)); read-only.

    At p = 0 the table is [1, 0, ..., 0]: a flipped bit is impossible.
    """
    k = np.arange(n + 1)
    if p == 0.0:
        table = (k == 0).astype(float)
    else:
        table = np.exp(k * math.log(p) + (n - k) * math.log(1.0 - p))
    table.setflags(write=False)
    return table

