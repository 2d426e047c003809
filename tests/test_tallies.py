"""Golden tallies: fixed (gamma, beta, beta_v1, beta_v2) counts per config.

For a fixed config and seed the four counts must not move when the code is
restructured.  The configs cover both engines, noiseless and asymmetric
channels, the exhaustive_best adversary on both engines and at n=12, a
degree-1 hash under weight_bounded_error, a fixed_error relay, fixed source
values, n=2 with a constant hash over p=0 and p=0.5 links, the algebraic
engine at n=12 and n=16, and an honest relay (gamma only).  The trellis
engine has its own fixed_error, weight_bounded_error (d=1), fixed-source,
n=2 (p=0, and p=0.5 at a threshold every score ties with) and n=8
exhaustive_best goldens.  The algebraic engine has its own asymmetric-link
golden (every watcher's peer and relay radii differ), h=n and p=0.5 goldens.
Two goldens at n=8, 600 algebraic and 300 trellis trials, run longer than
one sub-batch.  Every field not named takes its SimConfig default.
"""

from dataclasses import replace

import pytest

from algwatchdog.harness import SimConfig, report_json, run_trials

SUB_BATCH_EDGE_CONFIGS = [
    dict(n=8, h=3, d=3, trials=600, seed=33),
    dict(engine="trellis", n=8, h=3, d=3, threshold=0.01, trials=300, seed=34),
]

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
    (dict(n=2, h=1, d=0, p12=0.0, p21=0.0, p31=0.0, p32=0.0, trials=200, seed=14), (0, 0, 0, 0)),
    (dict(n=2, h=1, d=0, p12=0.5, p21=0.5, p31=0.5, p32=0.5, trials=200, seed=14), (0, 200, 200, 200)),
    (dict(n=12, h=5, d=3, trials=200, seed=16), (1, 4, 34, 27)),
    (dict(n=16, h=6, d=3, trials=60, seed=17), (2, 1, 9, 7)),
    (
        dict(adversary="honest", n=10, h=8, d=3, p12=0.15, p21=0.15, p31=0.15, p32=0.15, trials=400, seed=18),
        (10, None, None, None),
    ),
    (dict(adversary="exhaustive_best", n=12, h=5, d=3, trials=3, seed=2), (0, 1, 2, 2)),
    (dict(engine="trellis", n=12, h=5, d=3, trials=300, seed=19), (0, 75, 162, 145)),
    (dict(engine="trellis", n=8, h=3, d=3, threshold=0.05, trials=400, seed=20), (357, 0, 0, 2)),
    (
        dict(engine="trellis", n=8, h=4, d=3, p12=0.5, p21=0.5, p31=0.5, p32=0.5, trials=200, seed=21),
        (0, 94, 142, 130),
    ),
    (
        dict(engine="trellis", adversary="honest", n=10, h=8, d=3, p12=0.15, p21=0.15, p31=0.15, p32=0.15,
             trials=400, seed=22),
        (0, None, None, None),
    ),
    (
        dict(engine="trellis", adversary={"kind": "fixed_error", "error": 5}, n=8, h=4, d=4, threshold=0.01,
             trials=300, seed=23),
        (135, 0, 1, 6),
    ),
    (
        dict(engine="trellis", adversary={"kind": "weight_bounded_error", "max_weight": 1}, n=6, h=2, d=1,
             threshold=0.01, trials=300, seed=24),
        (120, 20, 43, 36),
    ),
    (
        dict(engine="trellis", sources={"fixed": [0x3A, 0xC5]}, n=8, h=3, d=3, threshold=0.01, trials=300, seed=25),
        (145, 0, 3, 4),
    ),
    (dict(engine="trellis", n=2, h=1, d=0, p12=0.0, p21=0.0, p31=0.0, p32=0.0, trials=200, seed=26), (0, 0, 0, 0)),
    # every likelihood is 1/4 and a constant hash keeps all four candidates, so each score is exactly 0.25
    (
        dict(engine="trellis", n=2, h=1, d=0, p12=0.5, p21=0.5, p31=0.5, p32=0.5, threshold=0.25, trials=200, seed=26),
        (0, 200, 200, 200),
    ),
    (
        dict(engine="trellis", adversary="exhaustive_best", n=8, h=3, d=3, threshold=0.01, trials=60, seed=27),
        (26, 2, 5, 4),
    ),
    # radii at epsilon=0.01: 5 (p21) and 0 (p31) for watcher 1, 2 (p12) and 6 (p32) for watcher 2
    (dict(n=8, h=3, d=3, p12=0.05, p21=0.2, p31=0.0, p32=0.3, trials=300, seed=29), (1, 17, 33, 162)),
    (dict(n=8, h=8, d=3, trials=300, seed=30), (8, 0, 4, 2)),
    (dict(n=8, h=4, d=3, p12=0.5, p21=0.5, p31=0.5, p32=0.5, trials=200, seed=31), (0, 101, 146, 137)),
    # longer than one sub-batch at n=8, so the tallies cross sub-batch edges
    (SUB_BATCH_EDGE_CONFIGS[0], (4, 117, 251, 277)),
    (SUB_BATCH_EDGE_CONFIGS[1], (160, 0, 2, 5)),
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
    "n2-d0-noiseless",
    "n2-d0-p-half",
    "algebraic-n12",
    "algebraic-n16",
    "honest-n10",
    "exhaustive-n12",
    "trellis-n12",
    "trellis-threshold",
    "trellis-p-half",
    "trellis-honest-n10",
    "trellis-fixed-error",
    "trellis-weight-bounded-d1",
    "trellis-fixed-sources",
    "trellis-n2-d0-noiseless",
    "trellis-n2-d0-p-half-tie",
    "trellis-exhaustive-n8",
    "algebraic-asymmetric",
    "algebraic-h-eq-n",
    "algebraic-p-half",
    "algebraic-n8-600",
    "trellis-n8-300",
]


@pytest.mark.parametrize("fields, want", GOLDEN, ids=IDS)
def test_golden_tallies(fields, want):
    rep = run_trials(SimConfig(**fields))
    got = (rep.gamma["count"],)
    if rep.beta is None:  # an honest relay has no beta counts
        got += (None, None, None)
    else:
        got += (rep.beta["count"], rep.per_watcher["beta_v1"]["count"], rep.per_watcher["beta_v2"]["count"])
    assert got == want


def test_trellis_n12_report_identical_across_worker_counts():
    # 37 trials split into 12 + 13 + 12 at 3 workers, 18 + 19 at 2: chunk
    # edges fall inside the trellis engine's 16-trial sub-batches
    cfg = SimConfig(engine="trellis", n=12, h=5, d=3, trials=37, seed=28)
    docs = {report_json(replace(run_trials(cfg, workers=w), wall_time_s=0.0)) for w in (1, 2, 3)}
    assert len(docs) == 1


def test_algebraic_n8_report_identical_across_worker_counts():
    # 37 trials split into 12 + 13 + 12 at 3 workers, 18 + 19 at 2
    cfg = SimConfig(n=8, h=3, d=3, trials=37, seed=32)
    docs = {report_json(replace(run_trials(cfg, workers=w), wall_time_s=0.0)) for w in (1, 2, 3)}
    assert len(docs) == 1


@pytest.mark.parametrize("fields", SUB_BATCH_EDGE_CONFIGS, ids=["algebraic-n8-600", "trellis-n8-300"])
def test_sub_batch_edges_report_identical_across_worker_counts(fields):
    # the chunks of 2 and 3 workers start sub-batches where 1 worker's do not
    cfg = SimConfig(**fields)
    docs = {report_json(replace(run_trials(cfg, workers=w), wall_time_s=0.0)) for w in (1, 2, 3)}
    assert len(docs) == 1
