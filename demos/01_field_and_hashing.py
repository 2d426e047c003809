"""Tour of the finite-field layer and the polynomial hash family.

Every value a node transmits is an n-bit word treated as an element of
GF(2^n).  This script shows the canonical field construction, a worked
multiplication, and how a hash function thins the space of candidate
messages by a factor of 2^h.
"""

import random
from collections import Counter

import numpy as np

from algwatchdog import FieldElement, canonical_spec, evaluate, sample

spec = canonical_spec(4)
print(f"GF(2^4): reduction polynomial 0b{spec.reduction_poly:b}")
print("  (lexicographically smallest irreducible of degree 4: x^4 + x + 1)\n")

# words multiply through the field's log/exp tables, one word or an array at a time
print(f"x * x^3 = x^4 ≡ x + 1 (mod x^4+x+1): {int(spec.mul_words(0b0010, 0b1000)):#06b}")
x4 = 1
for _ in range(4):
    x4 = int(spec.mul_words(x4, 0b0010))
print(f"x * x * x * x the same way:          {x4:#06b}\n")

# A degree-3 hash over GF(2^4), truncated to h=2 bits.  Same coefficients,
# same hash, every time, for every node that knows the seed.
hf = sample(random.Random(7), d=3, spec=spec, h=2)
print(f"hash coefficients: {[c.value for c in hf.coeffs]}, output width h=2")

counts = Counter(evaluate(hf, FieldElement(x, spec)) for x in range(16))
print(f"bucket sizes over the whole domain: {dict(sorted(counts.items()))}")

target = evaluate(hf, FieldElement(0b1011, spec))
# the hash is read from a table of every word's hash, so a preimage is one scan of it
pre = np.flatnonzero(hf.table == target).tolist()
print(f"preimage of hash({0b1011:#06b}) = {target}: {[f'{v:#06b}' for v in pre]}")
print("\nA watcher that knows hash(x) can discard every candidate outside")
print("that preimage — roughly a 2^h = 4x reduction here.")
