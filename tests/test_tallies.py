"""Golden tallies: fixed (gamma, beta, beta_v1, beta_v2) counts per config.

For a fixed config and seed the four counts must not move when the code is
restructured.  The configs cover both engines, noiseless and asymmetric
channels, the exhaustive_best adversary on both engines, a degree-1 hash
under weight_bounded_error, a fixed_error relay, and fixed source values.
Every field not named takes its SimConfig default.
"""

import pytest

from algwatchdog.harness import SimConfig, run_trials

GOLDEN = [
    (dict(n=8, h=3, d=3, trials=400, seed=5), (5, 85, 170, 183)),
    (dict(engine="trellis", n=6, h=2, d=3, trials=400, seed=3), (0, 382, 388, 393)),
    (dict(engine="trellis", n=8, h=4, d=2, p12=0.0, p21=0.0, p31=0.0, p32=0.0, trials=200, seed=9), (0, 0, 0, 0)),
    (
        dict(engine="trellis", n=8, h=3, d=3, p12=0.05, p21=0.2, p31=0.0, p32=0.3, trials=200, seed=11),
        (0, 27, 27, 193),
    ),
    (dict(adversary="exhaustive_best", n=6, h=3, d=3, trials=60, seed=2), (1, 51, 58, 53)),
    (
        dict(adversary="exhaustive_best", engine="trellis", n=5, h=2, d=2, p12=0.0, p31=0.2, trials=60, seed=4),
        (0, 60, 60, 60),
    ),
    (
        dict(adversary={"kind": "weight_bounded_error", "max_weight": 2}, n=6, h=2, d=1, trials=300, seed=6),
        (0, 220, 253, 260),
    ),
    (dict(adversary={"kind": "fixed_error", "error": 5}, n=8, h=4, d=4, trials=300, seed=12), (2, 19, 56, 41)),
    (dict(sources={"fixed": [0x3A, 0xC5]}, n=8, h=3, d=3, trials=300, seed=13), (3, 73, 141, 138)),
]


IDS = [
    "algebraic",
    "trellis",
    "trellis-noiseless",
    "trellis-asymmetric",
    "exhaustive-algebraic",
    "exhaustive-trellis",
    "weight-bounded-d1",
    "fixed-error",
    "fixed-sources",
]


@pytest.mark.parametrize("fields, want", GOLDEN, ids=IDS)
def test_golden_tallies(fields, want):
    rep = run_trials(SimConfig(**fields))
    got = (
        rep.gamma["count"],
        rep.beta["count"],
        rep.per_watcher["beta_v1"]["count"],
        rep.per_watcher["beta_v2"]["count"],
    )
    assert got == want
