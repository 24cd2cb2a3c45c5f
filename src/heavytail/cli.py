"""Command-line surface: simulate paths, sample spectral windows, evaluate
summary functionals, and run the verification suites.

Exit codes: 0 success, 1 verification/sampling failure, 2 usage or config
error.  The environment variable HEAVYTAIL_SEED overrides the config seed;
an explicit --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

import numpy as np

from .config import ConfigError, list_presets, load_config
from .estimate import EstimationError
from .simulate import write_csv_rows, write_path_csv
from .spaces import DimensionError, DomainError
from .spectral import SamplingError
from .summaries import (
    Event,
    LinearFunctional,
    extremal_index,
    extremogram_limit,
    joint_survival_limit,
    tail_dependence,
)
from .verify import SUITES, build_report, report_json, run_suite

STATS = ("joint-survival", "tail-dep", "extremogram", "extremal-index", "ma-specials")


def _resolve_seed(args, cfg_data_seed):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("HEAVYTAIL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"HEAVYTAIL_SEED is not an integer: {env!r}") from exc
    return cfg_data_seed


def _load(args, extra_overrides=None):
    overrides = dict(extra_overrides or {})
    cfg = load_config(args.config, overrides)
    seed = _resolve_seed(args, cfg.seed)
    if seed != cfg.seed:
        cfg = load_config(cfg.data, {"seed": seed})
    return cfg


def _fmt(value):
    return float(value) if isinstance(value, (np.floating, np.integer)) else value


def cmd_simulate(args):
    overrides = {}
    if args.length is not None:
        overrides["path"] = {"length": int(args.length)}
    cfg = _load(args, overrides)
    path = cfg.simulate()
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_path_csv(path, fh)
    meta = dict(path.meta)
    meta["config"] = cfg.data
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, default=_fmt)
        fh.write("\n")
    print(f"wrote {len(path)} rows to {args.out}")
    return 0


def cmd_spectral(args):
    cfg = _load(args)
    back, fwd = (int(x) for x in args.window)
    sampler = cfg.window_sampler()
    rng = np.random.default_rng([cfg.seed, 0x5B])
    n = int(args.n)
    d = sampler.space.dim
    header = "sample,offset," + ",".join(f"x{j}" for j in range(d)) + ",origin"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        if n > 0:
            wb = sampler.sample(n, back, fwd, rng)
            width = back + fwd + 1
            write_csv_rows(
                fh,
                "%d,%d" + ",%.17g" * d + ",%d\n",
                np.repeat(np.arange(n), width),
                np.tile(np.arange(-back, fwd + 1), n),
                wb.values.reshape(n * width, d),
                np.repeat(wb.origin, width),
            )
    if n > 0:
        counts = dict(zip(*(a.tolist() for a in np.unique(wb.origin, return_counts=True))))
        print("origin-lag frequencies (observed vs mixture probability):")
        for i, lag in enumerate(sampler.consts.indices):
            p = sampler.consts.p[i]
            se = np.sqrt(max(p * (1 - p), 0.0) / n)
            print(f"  lag {lag}: {counts.get(lag, 0) / n:.5f} vs p={p:.5f} (se {se:.5f})")
        print(f"component acceptance rates: min {min(sampler.acceptance_rates().values()):.4f}")
    print(f"wrote {n} windows to {args.out}")
    return 0


def cmd_summarize(args):
    cfg = _load(args)
    rng = np.random.default_rng([cfg.seed, 0x50])
    n = int(args.n) if args.n is not None else cfg.n_samples
    result: dict
    if args.stat == "ma-specials":
        rec = cfg.ma_specials()
        if rec is None:
            raise ConfigError("ma-specials needs a scalar moving-average model "
                              "with sign innovations")
        result = {
            "stat": "ma-specials",
            "value": {
                "prob_theta0_plus": rec.prob_theta0_plus,
                "theta_plus": rec.theta_plus,
                f"tail_dep_{args.lag}": rec.tail_dep(args.lag),
            },
            "stderr": 0.0,
            "method": "closed_form",
        }
    else:
        sampler = cfg.window_sampler()
        first = None  # dual mode pairs with the first coordinate
        if args.mode == "dual":
            first = LinearFunctional(tuple([1.0] + [0.0] * (sampler.space.dim - 1)))
        if args.stat == "tail-dep":
            res = tail_dependence(sampler, args.lag, b=first, mode=args.mode, n=n, rng=rng)
        elif args.stat == "joint-survival":
            idx = [int(x) for x in args.indices.split(",")]
            if first is not None:
                res = joint_survival_limit(sampler, idx, functionals=[first] * len(idx),
                                           n=n, rng=rng)
            else:
                res = joint_survival_limit(sampler, idx, norm_weights=[1.0] * len(idx),
                                           n=n, rng=rng)
        elif args.stat == "extremal-index":
            horizon = args.horizon
            if horizon is None and sampler.forward_extent is None:
                horizon = cfg.ar1_horizon
            res = extremal_index(sampler, mode=args.mode, b=first, m_horizon=horizon,
                                 n=n, rng=rng)
        elif args.stat == "extremogram":
            a = Event("norm_gt", float(args.threshold_a))
            b = Event("norm_gt", float(args.threshold_b))
            res = extremogram_limit(sampler, a, b, args.lag, n=n, rng=rng)
        else:
            raise ConfigError(f"unknown stat {args.stat!r}")
        result = {
            "stat": args.stat,
            "value": res.value,
            "stderr": res.stderr,
            "method": res.method,
            "inputs": res.inputs,
        }
    result["seed"] = cfg.seed
    text = json.dumps(result, indent=2, default=_fmt) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_verify(args):
    cfg = _load(args)
    workers = int(args.workers) if args.workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    checks = run_suite(cfg, args.suite, workers=workers)
    report = build_report(checks, cfg, args.suite)
    text = report_json(report)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(text)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: estimate={c.estimate:.6g} target={c.target:.6g} "
              f"({c.tolerance_rule})")
    return 0 if report["all_passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Heavy-tailed time series simulation and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help=f"config JSON path or preset name {list_presets()}")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("simulate", help="simulate a sample path to CSV")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectral", help="sample spectral windows to CSV")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", nargs=2, metavar=("S", "T"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("summarize", help="evaluate a limit functional")
    add_common(p)
    p.add_argument("--stat", required=True, choices=STATS)
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--mode", choices=("dual", "norm"), default="norm")
    p.add_argument("--indices", default="0,1")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--threshold-a", type=float, default=1.0)
    p.add_argument("--threshold-b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p)
    p.add_argument("--suite", required=True, choices=tuple(SUITES) + ("all",))
    p.add_argument("--report", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="threads for Monte Carlo (default: machine parallelism); "
                        "sets speed only: every suite draws from streams fixed by "
                        "(config, seed), so reports do not depend on it")
    p.set_defaults(func=cmd_verify)
    return parser


def _retain_freed_memory():
    """Keep freed blocks in glibc's heap (fixed 64 MB mmap threshold, no trimming)
    so Monte Carlo steps reuse their pages instead of faulting fresh ones in, a
    count that varies with the order in which threads free.  No-op without glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim


def main(argv=None):
    _retain_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"sampling error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
