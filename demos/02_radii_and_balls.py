"""Choosing decoding radii from the channel crossover probability.

A watcher hears its neighbours through binary symmetric channels.  It
keeps every word within Hamming distance r of what it heard, where r is
the smallest radius whose ball captures the true word with probability
at least 1 - epsilon.  The radius computation is exact (rational
binomial CDF), so these tables are reproducible bit-for-bit.
"""

from algwatchdog import ball_offsets, ball_volume, binomial_cdf_exact, radius_for_epsilon

print("radius r(n, p, eps) and ball volume S(r):\n")
print(f"{'n':>3} {'p':>5} {'eps':>6} {'r':>3} {'S(r)':>6} {'P(dist<=r)':>12}")
for n in (4, 8, 12, 16):
    for p in (0.05, 0.1, 0.2):
        for eps in (0.01, 0.001):
            r = radius_for_epsilon(n, p, eps).r
            cdf = float(binomial_cdf_exact(n, r, p))
            print(f"{n:>3} {p:>5} {eps:>6} {r:>3} {ball_volume(n, r):>6} {cdf:>12.6f}")

print("\nThe working example throughout the package: n=8, p=0.1, eps=0.01")
r = radius_for_epsilon(8, 0.1, 0.01).r
print(f"  -> r = {r}, ball volume S({r}) = {ball_volume(8, r)} of 256 words")

print("\nBall around 0b10110001 with r=1: the center XOR each error pattern of")
print("weight <= 1, patterns ordered by (weight, value):")
center = 0b10110001
print([f"{w:#010b}" for w in (center ^ ball_offsets(8, 1)).tolist()])
