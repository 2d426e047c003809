#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize it against its bounds.

    python3 bench/baseline.py --seeds 10 [--workload alg8 ...] [--out bench/baseline.json]

For each workload: `--seeds` end-to-end runs (seeds 1..N) and one traced run
(seed 1), each a fresh `bench/run.py` process with BENCHMARK.json's
run_seconds.  Prints each end-to-end metric's median and its quartile spread
(Q3 - Q1, as a share of the median) beside the metric's bound, and writes
every median, quartile and per-layer value to `--out` when given.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect result\n{out.stdout}{out.stderr}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    doc = {"python": platform.python_version(), "machine": platform.machine(), "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(name, seed, 0) for seed in range(1, args.seeds + 1)]
        summary = {}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                  "unit": m["unit"], "values": values}
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"{name:10s} {m['name']:13s} median {median:12.6g} {m['unit']:4s} "
                  f"spread {spread:.4f} bound {m['bound']} {'ok' if ok else 'WIDE'}", flush=True)
        traced = run_once(name, 1, 1)["metrics"]
        doc["workloads"][name] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
