"""Closed-form misdetection predictions across hash width and radii.

All predictor functions return exact rationals; floats appear only when
printing.  The misdetection figures are upper estimates of the chance a
watcher passes a randomly corrupted relay (an expected count of surviving
candidates, clamped to 1), stated for hashes of degree d >= 2.  Each watcher
uses only its own two links: its peer link and its relay link.  Two things
to take away: widening the hash improves policing exponentially (the bound
falls like 2^-h once the balls are small next to 2^h), and removing
overhearing entirely still leaves a useful (if weaker) check, about
2^-h + V_r / 4^h, driven by the relay links alone.
"""

from algwatchdog import (
    TheoryParams,
    gamma_bound,
    gamma_bound_conservative,
    predicted_beta,
    predicted_beta_no_overhear,
)

print("False-detection side (honest relay): per-ball miss budget eps,")
print("one watcher's two balls min(1, 2*eps); the joint gamma spans four balls:")
for eps in (0.05, 0.01, 0.001):
    print(f"  eps={eps}: per ball {float(gamma_bound(eps))}, "
          f"per watcher {float(gamma_bound_conservative(eps))}")

print("\nMisdetection upper estimate vs hash width (n=12, all radii 3):")
for h in range(1, 9):
    beta = predicted_beta(TheoryParams(n=12, h=h, r12=3, r21=3, r31=3, r32=3))
    print(f"  h={h}: beta = {float(beta):.3e}")

print("\nMisdetection upper estimate vs relay-link radius (n=12, h=4, source radii 3):")
for r in range(0, 13, 2):
    beta = predicted_beta(TheoryParams(n=12, h=4, r12=3, r21=3, r31=r, r32=r))
    print(f"  r3x={r:>2}: beta = {float(beta):.3e}")

print("\nNo-overhearing corollary (source links useless, peer balls are the whole field):")
for h in (4, 6, 8, 10):
    beta = predicted_beta_no_overhear(12, h, 3, 3)
    general = predicted_beta(TheoryParams(n=12, h=h, r12=12, r21=12, r31=3, r32=3))
    assert beta == general
    print(f"  h={h}: beta = {float(beta):.3e}  (matches the general formula exactly)")
