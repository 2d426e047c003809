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


def noise_mask(chan: BinarySymmetricChannel, n: int, rng) -> int:
    """Draw an n-bit error pattern, each bit set independently with prob p."""
    mask = 0
    p = chan.p
    if p == 0.0:
        return 0
    for i in range(n):
        if rng.random() < p:
            mask |= 1 << i
    return mask


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

    Memoized: a run asks for the same few (n, p, eps) once per candidate
    set, and each answer costs up to n + 1 exact rational CDFs.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"epsilon {eps} outside (0, 1)")
    if not (0.0 <= p <= 0.5):
        raise ValueError(f"crossover probability {p} outside [0, 0.5]")
    target = 1 - Fraction(eps)
    for r in range(n + 1):
        if binomial_cdf_exact(n, r, p) >= target:
            return Radius(r, eps)
    return Radius(n, eps)


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


def log_likelihood(chan: BinarySymmetricChannel, sent, received: int, n: int):
    """ln P(received | sent) for an n-bit BSC transmission.

    `sent` is one word or an array of words; the result has its shape.  At
    p = 0 consistent bits contribute 0 and any flipped bit makes the
    observation impossible (-inf), keeping trellis weights well-defined.
    """
    k = np.bitwise_count(np.asarray(sent, dtype=np.int64) ^ received)
    p = chan.p
    if p == 0.0:
        return np.where(k == 0, 0.0, -math.inf)[()]
    return k * math.log(p) + (n - k) * math.log(1.0 - p)
