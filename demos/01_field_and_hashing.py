"""Tour of the finite-field layer and the polynomial hash family.

Every value a node transmits is an n-bit word treated as an element of
GF(2^n).  This script shows the canonical field construction, a worked
multiplication, and how a hash function thins the space of candidate
messages by a factor of 2^h.
"""

import random
from collections import Counter

from algwatchdog import FieldElement, HashFunction, canonical_spec, evaluate, preimage_set, sample

spec = canonical_spec(4)
print(f"GF(2^4): reduction polynomial 0b{spec.reduction_poly:b}")
print("  (lexicographically smallest irreducible of degree 4: x^4 + x + 1)\n")

a = FieldElement(0b0010, spec)  # the element x
b = FieldElement(0b1000, spec)  # x^3
print(f"x * x^3 = x^4 ≡ x + 1 (mod x^4+x+1): {(a * b).value:#06b}")
print(f"x ** 4 the same way:                 {(a ** 4).value:#06b}\n")

# A degree-3 hash over GF(2^4), truncated to h=2 bits.  Same coefficients,
# same hash, every time, for every node that knows the seed.
hf = sample(random.Random(7), d=3, spec=spec, h=2)
print(f"hash coefficients: {[c.value for c in hf.coeffs]}, output width h=2")

counts = Counter(evaluate(hf, FieldElement(x, spec)).value for x in range(16))
print(f"bucket sizes over the whole domain: {dict(sorted(counts.items()))}")

target = evaluate(hf, FieldElement(0b1011, spec))
pre = sorted(e.value for e in preimage_set(hf, target))
print(f"preimage of hash({0b1011:#06b}) = {target.value}: {[f'{v:#06b}' for v in pre]}")
print("\nA watcher that knows hash(x) can discard every candidate outside")
print("that preimage — roughly a 2^h = 4x reduction here.")
