"""Arithmetic in the binary extension field GF(2^n).

Elements are n-bit words; addition is XOR, multiplication is carry-less
polynomial multiplication reduced modulo the smallest irreducible polynomial
of degree n, so there is one field per width (`FieldSpec(n)`).
Multiplication goes through log/exp tables built once per field.  The log
of zero is a sentinel, 2 * 2^n, and the exp table is padded with zeros up to
index 4 * 2^n, so exp[log[a] + log[b]] is the product for every pair, zero
operands included, with no branch.  `FieldSpec.mul_words` gathers from the
numpy tables for single words or arrays of words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MIN_WIDTH = 2
MAX_WIDTH = 16


class FieldError(Exception):
    """Base class for field construction/arithmetic errors."""


class UnsupportedWidthError(FieldError):
    """Bit-width outside the supported [2, 16] range."""


class SpecMismatchError(FieldError):
    """Elements of different fields used together."""


def mul_mod(a: int, b: int, poly: int) -> int:
    """The product of two words of the field reduced by poly, a below 2^deg(poly): shift, add and reduce bit by bit."""
    top = 1 << (poly.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
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
    """The GF(2^n) of width n: its reduction polynomial is the smallest irreducible of degree n."""

    n: int
    reduction_poly: int = field(init=False)

    def __post_init__(self):
        if not (MIN_WIDTH <= self.n <= MAX_WIDTH):
            raise UnsupportedWidthError(f"n={self.n} outside [{MIN_WIDTH}, {MAX_WIDTH}]")
        smallest = next(poly for poly in range(self.order, 2 * self.order) if is_irreducible(poly))
        object.__setattr__(self, "reduction_poly", smallest)

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


def _powers(g: int, count: int, poly: int) -> list[int]:
    """g^0 .. g^count by scalar steps."""
    out = [1]
    for _ in range(count):
        out.append(mul_mod(out[-1], g, poly))
    return out


@lru_cache(maxsize=None)
def _tables(n: int, poly: int):
    """exp/log tables for the cyclic group of GF(2^n)*, with the zero sentinel and padding the module describes.

    exp[i] is g^i for i < 2 * (2^n - 1), g the smallest word >= 2 with no power 1 below 2^n - 1 (x is not always
    one), built as a grid of C columns: row 0 by scalar steps, row j as row 0 times g^(jC) by n array steps, one per
    bit of the row multipliers.  Below n = 8 the grid is one row.
    """
    size = 1 << n
    # up to 128 words, scalar steps cost less than the array steps
    cols = min(size - 1, max(128, 1 << (n + 1) // 2))
    rows = -(-(size - 1) // cols)
    for g in range(2, size):
        *row, step = _powers(g, cols, poly)
        if 1 in row[1:]:
            continue
        cycle = np.array(row)
        heads = np.array(_powers(step, rows - 1, poly))[:, None]
        grid = (heads & 1) * cycle
        for bit in range(1, n):
            cycle <<= 1
            cycle ^= (cycle >> n) * poly
            grid ^= (heads >> bit & 1) * cycle
        cycle = grid.ravel()[: size - 1]
        if np.count_nonzero(cycle == 1) > 1:
            continue
        exp = np.zeros(4 * size + 1, dtype=np.int64)
        exp[: size - 1] = exp[size - 1 : 2 * (size - 1)] = cycle
        log = np.zeros(size, dtype=np.int64)
        log[cycle] = np.arange(size - 1)
        log[0] = 2 * size
        return exp, log
    raise FieldError(f"no primitive element found for 0b{poly:b}")  # pragma: no cover


@lru_cache(maxsize=None)
def canonical_spec(n: int) -> FieldSpec:
    """`FieldSpec(n)`, the one field of width n, built once per process."""
    return FieldSpec(n)


@dataclass(frozen=True)
class FieldElement:
    """A range-checked word of GF(2^n), carrying its field so a hash can reject another field's words."""

    value: int
    spec: FieldSpec

    def __post_init__(self):
        if not (0 <= self.value < self.spec.order):
            raise FieldError(f"value {self.value} not an {self.spec.n}-bit word")
