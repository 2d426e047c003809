"""Set-up probe, run in a fresh interpreter so no earlier cache hides set-up cost.

    python3 bench/probe.py setup <src dir> <SimConfig JSON>
        imports algwatchdog, runs one run_trials call of the config and prints
        "ok"; the parent times process start to that line (setup_s).
    python3 bench/probe.py gf2n <src dir> <SimConfig JSON>
        imports algwatchdog, then prints the seconds taken by canonical_spec(n)
        plus the first mul_words, which builds the log/exp tables (gf2n.setup_s).
"""

import json
import sys
from time import perf_counter

mode, src, cfg_json = sys.argv[1:4]
sys.path.insert(0, src)
cfg = json.loads(cfg_json)

if mode == "setup":
    from algwatchdog import SimConfig, run_trials

    run_trials(SimConfig(**cfg))
    print("ok", flush=True)
elif mode == "gf2n":
    from algwatchdog.gf2n import canonical_spec

    t0 = perf_counter()
    canonical_spec(cfg["n"]).mul_words(1, 1)
    print(perf_counter() - t0, flush=True)
else:
    sys.exit(f"unknown probe mode {mode!r}")
