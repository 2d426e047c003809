"""One complete watchdog trial, narrated step by step.

Two sources send x1 and x2 to a relay, which should forward
a1*x1 + a2*x2 over GF(2^n).  Each source overhears the other source and
the relay through noisy channels, keeps the packet headers (coding
coefficients and hashes arrive intact), and checks whether ANY
explanation consistent with everything it knows exists.  If not, it
raises a flag.
"""

import random

from algwatchdog import (
    AdversaryStrategy,
    BinarySymmetricChannel,
    FieldElement,
    Scenario,
    algebraic_check,
    build_trellis,
    canonical_spec,
    consistency_probability,
    observe,
    relay_output,
    sample,
)

rng = random.Random(1234)
spec = canonical_spec(8)
chan = BinarySymmetricChannel(0.1)

scn = Scenario(
    spec=spec,
    hf=sample(rng, d=3, spec=spec, h=3),
    x1=FieldElement(0x5A, spec), x2=FieldElement(0xC3, spec),
    a1=FieldElement(0x02, spec), a2=FieldElement(0x07, spec),
    chan_12=chan, chan_21=chan, chan_31=chan, chan_32=chan,
    epsilon=0.01,
)
honest = scn.honest_payload
print(f"x1=0x{scn.x1.value:02X}, x2=0x{scn.x2.value:02X}; honest relay value "
      f"a1*x1 + a2*x2 = 0x{honest:02X}\n")

for label, strategy in (("honest relay", AdversaryStrategy("honest")),
                        ("corrupting relay", AdversaryStrategy("random_nonzero_error"))):
    relay = relay_output(scn, strategy, rng)
    print(f"--- {label}: transmitted payload 0x{relay.payload:02X} "
          f"(error 0x{relay.payload ^ honest:02X})")
    for watcher in (1, 2):
        obs = observe(watcher, scn, relay, rng)
        verdict = algebraic_check(obs)
        score = consistency_probability(build_trellis(obs))
        print(f"  watcher {watcher}: heard peer 0x{obs.noisy_peer:02X}, "
              f"relay 0x{obs.noisy_relay:02X} -> {verdict.decision.name} "
              f"(algebraic), path-sum {score:.3e} (trellis)")
    print()

print("H0 means 'some explanation survives'; H1 means 'no candidate in the")
print("decoding balls matches both hashes and the coding equation'.")
