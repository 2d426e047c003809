"""Command-line front end: closed-form predictions, simulations, sweeps.

Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness, theory


def _cmd_predict(args) -> int:
    tp = theory.TheoryParams(args.n, getattr(args, "h"), args.r12, args.r21, args.r31, args.r32)
    print(f"misdetection_v1 = {float(theory.misdetection_v1(tp)):.6g}")
    print(f"misdetection_v2 = {float(theory.misdetection_v2(tp)):.6g}")
    print(f"beta_bound      = {float(theory.predicted_beta(tp)):.6g}")
    if args.no_overhear:
        b = theory.predicted_beta_no_overhear(args.n, args.h, args.r31, args.r32)
        print(f"beta_no_overhear = {float(b):.6g}")
    return 0


def _load_config(path: str) -> harness.SimConfig:
    with open(path) as f:
        data = json.load(f)
    return harness.SimConfig.from_dict(data)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    harness.write_report(harness.run_trials(cfg, workers=args.workers), args.out, args.format)
    return 0


def _sweep_value(tok: str) -> int | float:
    """An int literal as an int, any other number (nan and inf too) as a float, for validation to judge."""
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"--values: {tok!r} is not a number") from None


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    values = [_sweep_value(tok) for tok in map(str.strip, args.values.split(",")) if tok]
    if not values:
        raise ValueError(f"--values: {args.values!r} holds no number")
    harness.write_report(harness.sweep(cfg, args.axis, values, workers=args.workers), args.out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="algwatchdog", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("predict", help="closed-form misdetection figures")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--h", type=int, required=True, dest="h")
    pr.add_argument("--r12", type=int, required=True)
    pr.add_argument("--r21", type=int, required=True)
    pr.add_argument("--r31", type=int, required=True)
    pr.add_argument("--r32", type=int, required=True)
    pr.add_argument("--no-overhear", action="store_true")
    pr.set_defaults(fn=_cmd_predict)

    si = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    si.add_argument("--config", required=True)
    si.add_argument("--seed", type=int)
    si.add_argument("--trials", type=int)
    si.set_defaults(fn=_cmd_simulate)

    sw = sub.add_parser("sweep", help="run a series of experiments along one config axis")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", required=True)
    sw.add_argument("--values", required=True)
    sw.set_defaults(fn=_cmd_sweep)
    for run in (si, sw):
        run.add_argument("--out")
        run.add_argument("--format", choices=("json", "csv"), default="json")
        run.add_argument("--workers", type=int, default=1, metavar="N",
                         help="run on min(N, usable cores) processes counting the caller, one job each")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
