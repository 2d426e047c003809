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
Three goldens at n=8, 600 algebraic, 300 trellis and 300 algebraic
exhaustive_best trials (the last over asymmetric links), run longer than
one 256-trial block.  Every field not named takes its SimConfig default.  Each
golden run's JSON report is pinned by its sha256, and one CSV of two reports
by its own.
"""

import hashlib
from dataclasses import replace

import pytest

from algwatchdog.harness import SimConfig, run_trials, write_report
from conftest import tally_json

SUB_BATCH_EDGE_CONFIGS = [
    dict(n=8, h=3, d=3, trials=600, seed=33),
    dict(engine="trellis", n=8, h=3, d=3, threshold=0.01, trials=300, seed=34),
    dict(adversary="exhaustive_best", n=8, h=3, d=3, p12=0.05, p21=0.2, p31=0.0, p32=0.3, trials=300, seed=35),
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
    # longer than one 256-trial block, so the tallies cross block edges
    (SUB_BATCH_EDGE_CONFIGS[0], (4, 117, 251, 277)),
    (SUB_BATCH_EDGE_CONFIGS[1], (160, 0, 2, 5)),
    (SUB_BATCH_EDGE_CONFIGS[2], (3, 260, 273, 284)),
]

# sha256 of each GOLDEN config's `tally_json`, its report_json with wall_time_s zeroed, in GOLDEN
# order: the report's bytes, which a change to how reports are built or
# serialized must not move
REPORT_DIGESTS = [
    "ca3f317335b9c69c65c274c071fe851209fd0e1fa0342feb09152c7c2cf79388",
    "48ce49c85eceee4a5e4a39ba0a94566d892407348f92488dcb25182d06d5e48c",
    "89eac58538b53526867510bd06e95f151df1e839eff4d7d36d5e7821ae177d17",
    "6ad6a8c920c7445af2d2667a8ddc54b62b7843db62237cd754e663fe5a607ec7",
    "31eca2d33e2e7bc8aef16a02d626cee4f4377261fdbdad2951c25d7a32d2257a",
    "0d3a75748238a120190e191896ecdf4e72401fdaba345fca67a70559aa681f20",
    "6820760b1a92d46bf76f04ab648ba0df173a7212e4fc1518d049c481f8cfa9ed",
    "003a90b4844c25185cc39d1943fa30dbd42656979a9b853bd779b4eba84586d1",
    "112261f6db72cdb666246f4ab16e6f2add08054ac636ac460fded8bf1a6355db",
    "3aa426fd3b8dc617d1e3f1da4f8b7df118fcb4bec83906f231c27dd2eb3b2385",
    "7eccaa29a57846537df54de3bc2ceb782126b881494c72dac6b957a44bffced2",
    "13c487774fd5f6ad2eda1818bb465060b1994cb61131372b891a9feca48d8e26",
    "c9957ec3e3d8a049572ae83f4b1c111e9120c87974cb0bad0981e2aff30e5db4",
    "2954289a5864bae8e5550738575be9e963bd23b98373de8af5e81acfdde373ac",
    "94012400acf6226e1180d30ebb0e791da7f565518333b121689aa5dedbb5b865",
    "1cdb3d1accc60410bc16dca9a8fc06aa9d83933c99936707039a644b7e6544d5",
    "03f0dd75343d44bcb41c77ba75715aa2d160a71682d56a53753c7210b824d306",
    "465ed2f20a6fb1a7e819bb5fcd476a8ecd637a28a10f33ce86de32b769eb8826",
    "f22c3ee43bd35e7b19ffdbd5794597284035576b3b3db78daa967600e3712ac0",
    "06a600766732833be7814fa82d4011e1af75bb9fe90aef101c3b145a35d94ea5",
    "a0a332641ebc1ce6ec0c514207e14f2544ca0d92e635b819d7719ac7951071db",
    "0c15f590c2560d5bcca563c62f7186406d4fe74119c4a7b41ac47b8a3084e8a5",
    "8a3ed28a12c996babd9f42f3c928f0af678b2412f0ddb04506d24838a5a3619d",
    "eb04e057e836127510401238fe92ae82c481f0eb91e98ae429969d568a7af24a",
    "254903246f770d3b225c1e1dd7778185b8128b1245503aecc0b11b7720a60a27",
    "ab09b940d9000d267e0575779f82ace71168e2aa5821a405aa15bc1654a38c0f",
    "b53a24cc16f3c38b07f82192c4f264e4b0bab68aaf1d7f0ba0a4326ae00e49f0",
    "4466c9b55b1f1cc469a54e281443c79a9c9dd277940186ca8652903aac912886",
    "6cb251d925213cf13a61d82db4965cb6b51cfb76da894311f7f2ef5f008d2e8b",
    "36c16bad1b38ba2911f943895ff2324c5a12459c95e9287f915214fd47bbfa14",
    "e701b8101a028c90ded6beaf40da21a262bb9146e1d2875f80b719e613ff8f51",
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
    "exhaustive-asymmetric-n8-300",
]


@pytest.mark.parametrize(
    "fields, want, digest", [(*golden, digest) for golden, digest in zip(GOLDEN, REPORT_DIGESTS, strict=True)], ids=IDS
)
def test_golden_tallies(fields, want, digest):
    rep = run_trials(SimConfig(**fields))
    got = (rep.gamma["count"],)
    if rep.beta is None:  # an honest relay has no beta counts
        got += (None, None, None)
    else:
        got += (rep.beta["count"], rep.per_watcher["beta_v1"]["count"], rep.per_watcher["beta_v2"]["count"])
    assert got == want
    assert hashlib.sha256(tally_json(rep).encode()).hexdigest() == digest


def test_csv_report_bytes(tmp_path):
    # an honest run and a fixed-error run over fixed sources spell adversary
    # and sources differently, so the header is the union of both layouts
    cfgs = [
        SimConfig(adversary="honest", n=8, h=3, trials=50, seed=40),
        SimConfig(adversary={"kind": "fixed_error", "error": 5}, sources={"fixed": [0x3A, 0xC5]}, n=8, h=4, d=4,
                  trials=50, seed=41),
    ]
    out = tmp_path / "reports.csv"
    write_report([replace(run_trials(cfg), wall_time_s=0.0) for cfg in cfgs], str(out), format="csv")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d3c8b2f6d4c72cf4de92b9d0294ca5dc8b534a5eea0f5b9f13a8c7bc0745fc1a"
    )


def test_trellis_n12_report_identical_across_worker_counts():
    # 37 trials split into 12 + 13 + 12 at 3 workers, 18 + 19 at 2: chunk
    # edges fall inside the trellis engine's 16-trial sub-batches
    cfg = SimConfig(engine="trellis", n=12, h=5, d=3, trials=37, seed=28)
    docs = {tally_json(run_trials(cfg, workers=w)) for w in (1, 2, 3)}
    assert len(docs) == 1


def test_algebraic_n8_report_identical_across_worker_counts():
    # 37 trials split into 12 + 13 + 12 at 3 workers, 18 + 19 at 2
    cfg = SimConfig(n=8, h=3, d=3, trials=37, seed=32)
    docs = {tally_json(run_trials(cfg, workers=w)) for w in (1, 2, 3)}
    assert len(docs) == 1


@pytest.mark.parametrize(
    "fields", SUB_BATCH_EDGE_CONFIGS, ids=["algebraic-n8-600", "trellis-n8-300", "exhaustive-asymmetric-n8-300"]
)
def test_sub_batch_edges_report_identical_across_worker_counts(fields):
    # the chunks of 2 and 3 workers start blocks where 1 worker's do not
    cfg = SimConfig(**fields)
    docs = {tally_json(run_trials(cfg, workers=w)) for w in (1, 2, 3)}
    assert len(docs) == 1
