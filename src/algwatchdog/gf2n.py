"""Arithmetic in the binary extension field GF(2^n).

Elements are n-bit words; addition is XOR, multiplication is carry-less
polynomial multiplication reduced modulo a fixed irreducible polynomial.
Multiplication goes through log/exp tables built once per field.  The log
of zero is a sentinel, 2 * 2^n, and the exp table is padded with zeros up to
index 4 * 2^n, so exp[log[a] + log[b]] is the product for every pair, zero
operands included, with no branch.  `FieldSpec.mul_words` gathers from the
numpy tables for single words or arrays of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_WIDTH = 2
MAX_WIDTH = 16


class FieldError(Exception):
    """Base class for field construction/arithmetic errors."""


class UnsupportedWidthError(FieldError):
    """Bit-width outside the supported [2, 16] range."""


class SpecMismatchError(FieldError):
    """Arithmetic attempted between elements of different fields."""


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two polynomials given as bit masks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return r


def poly_mod(a: int, m: int) -> int:
    """Remainder of the binary polynomial a modulo m (m != 0)."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(poly: int) -> bool:
    """Brute-force irreducibility test for a binary polynomial.

    Trial division by every polynomial of degree 1..deg/2; fine for deg <= 16.
    """
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, q) == 0:
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(2^n): bit-width plus the degree-n reduction polynomial."""

    n: int
    reduction_poly: int

    def __post_init__(self):
        if not (MIN_WIDTH <= self.n <= MAX_WIDTH):
            raise UnsupportedWidthError(f"n={self.n} outside [{MIN_WIDTH}, {MAX_WIDTH}]")
        if self.reduction_poly.bit_length() - 1 != self.n:
            raise FieldError(
                f"reduction polynomial 0b{self.reduction_poly:b} does not have degree {self.n}"
            )
        if not is_irreducible(self.reduction_poly):
            raise FieldError(f"reduction polynomial 0b{self.reduction_poly:b} is reducible")

    @property
    def order(self) -> int:
        return 1 << self.n

    def mul_words(self, a, b):
        """Vectorized field multiplication of numpy arrays (or scalars) of words."""
        exp, log = _tables(self.n, self.reduction_poly)
        # take() gathers like exp[log[a] + log[b]] without first copying
        # its inputs into int64 arrays, and reads a bool array as 0/1 words
        # where indexing would read it as a mask
        return exp.take(log.take(a) + log.take(b))


@lru_cache(maxsize=None)
def _tables(n: int, poly: int):
    """exp/log tables for the cyclic group of GF(2^n)*, with a zero sentinel.

    x (the word 0b10) is not always a generator for an arbitrary irreducible
    polynomial, so we search the small field for a primitive element.
    exp[i] for i < 2 * (2^n - 1) cycles through the nonzero words; log[0] is
    2 * 2^n, so a sum of two logs with a zero operand lands in the zero
    padding exp[2 * (2^n - 1) : 4 * 2^n + 1].
    """
    size = 1 << n
    for g in range(2, size):
        exp = np.zeros(4 * size + 1, dtype=np.int64)
        log = np.zeros(size, dtype=np.int64)
        acc = 1
        for i in range(size - 1):
            exp[i] = acc
            log[acc] = i
            acc = poly_mod(clmul(acc, g), poly)
        if acc == 1 and len(set(exp[: size - 1].tolist())) == size - 1:
            exp[size - 1 : 2 * (size - 1)] = exp[: size - 1]
            log[0] = 2 * size
            return exp, log
    raise FieldError(f"no primitive element found for 0b{poly:b}")  # pragma: no cover


@lru_cache(maxsize=None)
def canonical_spec(n: int) -> FieldSpec:
    """The canonical GF(2^n): lexicographically smallest irreducible of degree n."""
    if not (MIN_WIDTH <= n <= MAX_WIDTH):
        raise UnsupportedWidthError(f"n={n} outside [{MIN_WIDTH}, {MAX_WIDTH}]")
    for poly in range(1 << n, 1 << (n + 1)):
        if is_irreducible(poly):
            return FieldSpec(n, poly)
    raise FieldError(f"no irreducible polynomial of degree {n}")  # pragma: no cover


@dataclass(frozen=True)
class FieldElement:
    """An element of GF(2^n), carrying its field so mixing fields is an error."""

    value: int
    spec: FieldSpec

    def __post_init__(self):
        if not (0 <= self.value < self.spec.order):
            raise FieldError(f"value {self.value} not an {self.spec.n}-bit word")

    def _check(self, other: "FieldElement"):
        if self.spec != other.spec:
            raise SpecMismatchError(f"mixing {self.spec} with {other.spec}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.value ^ other.value, self.spec)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(int(self.spec.mul_words(self.value, other.value)), self.spec)

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            raise FieldError("negative exponent")
        result = FieldElement(1, self.spec)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

