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
by its own; each report's config section, read back, reruns to the same report.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from algwatchdog import harness
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
# order: the report's bytes.  A change that leaves the report layout alone keeps them all.  A change
# to the layout (a leaf added, removed or nulled) declares which leaves move and why, checks that the
# old reports with exactly those edits give the new bytes, and re-records the digests it moves here
REPORT_DIGESTS = [
    "f029e4d267636fa3f0a16c47f510c90e99e4ee289c0755e4f2b0f4274308e1e9",
    "ed8471dd5eebfea2530c59dcbe7584621da36745aa0f38ca2f3f2f7653a466fb",
    "e5fe3ed6b850c6e2ea70195fd087109228ea52fcdefc34d262caf2fccd7abc63",
    "5da7d34b716165def751904bb1561ecd4d52e4df5715e8f21bb5dada437fad54",
    "944efa403233e0078ba7e63a41c7aceeba76f74e00ffa2f9e4cb3c385f43a61c",
    "468ce73f75083ca51fe8c405164ee3297d5e86636bd2f183240a510dc0398029",
    "b593108ae32588bf4813bcf23850fd1bb47fdefb48d28533f4dd9db1b22a6f44",
    "4a7e7f3f6e4b96e71a04fe141095a91f02d37b2d8d4997ba95ba1befcd4fc285",
    "5a18f2c2257fe3889cff142e951ebcb5b740a6eef158813b8962cb5045df80c3",
    "414ffaabd697ddb7c465af586b31fb6789340eccb4021fd865ca1a2509cba9b5",
    "973a621f2e0b007f82358e004fdc739d48849cf878e36defafd8852c28f1f3de",
    "89315512f8b093560ccc0fc399af869bdb8c38158d36af1c871e7cc82b73ea14",
    "7f623586e06b415df76d58fa8d7cdf5f6b3b4c9be8a13dd573568ac0c70ac778",
    "9bcf1eaeb98e02387e0c8d0ad3c689bc36e8bed2969c35c5f2295b9e6e8b211e",
    "1158871a641f14d8c545005be707817958431a140f84a3236fe958d2027b0797",
    "94e2e66417325657a6ef85ee3a2fd94a1c45dfafc18bbd1598d2397ea1462b06",
    "39046586866b0b795592470522c9579675bb8dae1693cccb5668d245194cbe82",
    "092a7edb94a697724007185d736875c6a705fbc37370e4023fe87798defbb37c",
    "5e6eb7951764070f5161a0043e5089beee82860028a3607efaeebb6bbb17bf1c",
    "3188343c270671b2f71062114d7eb01c11a0de4ec55f3757483ab3fefeba28f2",
    "d0ed25745b4ab87c09f0ad1a5f22ac8d5df1503ee73d9649ad0ff2f043e8f822",
    "c233d323049e3af254361457d635c0172f075bfa492d984309c169205470245b",
    "141672740d66ae149b6bc2b63400a7c68f08b24b93833bab3bfde3e0c775500e",
    "9e1d2d24dc35cb03134f5391b041db67660c17c31597382b7f1d21fc351dbf7c",
    "7d08dde0091ccb98a3d11b2bc74de6c287eb3e9974deb50d9e78ecc02093e5e8",
    "663c21f3c596bdd76aeca9e882abbdb7249c570a3518b3fc951206e964bc9271",
    "7279409863afa55f5eca2d6f138dad7d597ddc27d0067353b37aeb2605451fe4",
    "78fba18905fb0b9a5ff4b2d622b2e8174d2546aca5319a029c74ea83ef9d5a6f",
    "335135b97ffbb1f24ed45c54fc61efb54052303d6d0a8d8cb917027e6dede299",
    "c14d8657f9e3b0fa1d214df67d580d2576192159218064a948a3bd0757420f62",
    "9404d74c1af85cc73132d40b421d6a83617292aa087fb103eaf6479267abf467",
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
    doc = tally_json(rep)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    # the report's config section is valid input, and it reproduces the report
    assert tally_json(run_trials(SimConfig.from_dict(json.loads(doc)["config"]))) == doc


def test_csv_report_bytes(tmp_path):
    # an honest run and a fixed-error run over fixed sources: the adversary is
    # one object column, while "uniform" and the fixed form give two sources columns
    cfgs = [
        SimConfig(adversary="honest", n=8, h=3, trials=50, seed=40),
        SimConfig(adversary={"kind": "fixed_error", "error": 5}, sources={"fixed": [0x3A, 0xC5]}, n=8, h=4, d=4,
                  trials=50, seed=41),
    ]
    out = tmp_path / "reports.csv"
    write_report([replace(run_trials(cfg), wall_time_s=0.0) for cfg in cfgs], str(out), format="csv")
    header = out.read_text().splitlines()[0].split(",")
    assert header.count("config.adversary.kind") == 1 and "config.adversary" not in header
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b4fa762204c16056d856a11bc934d8811788a47af6aa406ef46621831bfa0273"
    )


def test_trellis_n12_report_identical_across_worker_counts(monkeypatch):
    # 37 trials split into 12 + 13 + 12 at 3 workers, 18 + 19 at 2: chunk
    # edges fall inside the trellis engine's 16-trial sub-batches; a pool
    # runs one job per process, so 3 workers need 3 usable cores
    monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
    cfg = SimConfig(engine="trellis", n=12, h=5, d=3, trials=37, seed=28)
    docs = {tally_json(run_trials(cfg, workers=w)) for w in (1, 2, 3)}
    assert len(docs) == 1


def test_algebraic_n8_report_identical_across_worker_counts(monkeypatch):
    # 37 trials split into 12 + 13 + 12 at 3 workers (on 3 usable cores), 18 + 19 at 2
    monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
    cfg = SimConfig(n=8, h=3, d=3, trials=37, seed=32)
    docs = {tally_json(run_trials(cfg, workers=w)) for w in (1, 2, 3)}
    assert len(docs) == 1


@pytest.mark.parametrize(
    "fields", SUB_BATCH_EDGE_CONFIGS, ids=["algebraic-n8-600", "trellis-n8-300", "exhaustive-asymmetric-n8-300"]
)
def test_sub_batch_edges_report_identical_across_worker_counts(monkeypatch, fields):
    # the chunks of 2 and 3 workers (on 3 usable cores) start blocks where 1 worker's do not
    monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
    cfg = SimConfig(**fields)
    docs = {tally_json(run_trials(cfg, workers=w)) for w in (1, 2, 3)}
    assert len(docs) == 1
