"""Per-layer metrics from the spans that bench/tracer.py writes.

Self time is reported as a share of wall time.  Each span's exclusive
intervals (its duration minus the intervals of its child spans) are swept
together across threads: while k worker-thread spans are open, each of them
is charged 1/k of the elapsed time and the main thread, which is then
waiting for them in a thread pool, is charged nothing; otherwise the main
thread's innermost span is charged.  A span's charge is split between its
own name and the hot boundaries (norms, operator applications, draws) it
called, in proportion to their self times.  The charges of one process sum
to the wall time its spans cover.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

# (name, unit, better); bench/smoke.py checks BENCHMARK.json against this.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_mb", "MB", "lower"),
    ("config.load_s", "s", "lower"),
    ("config.build_s", "s", "lower"),
    ("spaces.bound_s", "s", "lower"),
    ("spaces.bound_calls", "count", "lower"),
    ("spaces.bound_inexact", "count", "lower"),
    ("spaces.apply_s", "s", "lower"),
    ("spaces.apply_calls", "count", "lower"),
    ("spaces.apply_mb", "MB", "lower"),
    ("spaces.norm_s", "s", "lower"),
    ("spaces.norm_calls", "count", "lower"),
    ("spaces.norm_mb", "MB", "lower"),
    ("rv.sample_s", "s", "lower"),
    ("rv.draws", "count", "lower"),
    ("rv.draws_per_s", "1/s", "higher"),
    ("spectral.constants_s", "s", "lower"),
    ("spectral.sample_s", "s", "lower"),
    ("spectral.sample_incl_s", "s", "lower"),
    ("spectral.windows", "count", "higher"),
    ("spectral.windows_per_s", "1/s", "higher"),
    ("spectral.accept_ratio", "ratio", "higher"),
    ("spectral.accept_pred", "ratio", "higher"),
    ("spectral.tc_rhs_s", "s", "lower"),
    ("spectral.limit_s", "s", "lower"),
    ("summaries.self_s", "s", "lower"),
    ("estimate.bigjump_s", "s", "lower"),
    ("estimate.bigjump_incl_s", "s", "lower"),
    ("estimate.bigjump_draws", "count", "lower"),
    ("estimate.bigjump_draws_per_s", "1/s", "higher"),
    ("estimate.bootstrap_s", "s", "lower"),
    ("estimate.boot_reps", "count", "lower"),
    ("estimate.exceed_s", "s", "lower"),
    ("estimate.stat_s", "s", "lower"),
    ("simulate.path_s", "s", "lower"),
    ("simulate.path_incl_s", "s", "lower"),
    ("simulate.rows_per_s", "1/s", "higher"),
    ("simulate.csv_s", "s", "lower"),
    ("simulate.csv_mb", "MB", "lower"),
    ("simulate.csv_mb_per_s", "MB/s", "higher"),
    ("verify.suite_s.time-change", "s", "lower"),
    ("verify.suite_s.mixture", "s", "lower"),
    ("verify.suite_s.big-jump", "s", "lower"),
    ("verify.suite_s.empirical-vs-closed", "s", "lower"),
    ("verify.suite_s.limit-measure", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.cpu_per_wall", "ratio", "higher"),
    ("verify.speedup_w2", "ratio", "higher"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("verify.mc_var_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spanned_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
]

SUITES = ("time-change", "mixture", "big-jump", "empirical-vs-closed", "limit-measure")


def wall_shares(doc):
    """{span or hot name: seconds of wall time charged to it} for one process."""
    spans = doc["spans"]
    main = doc["main_tid"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    segments = []  # (start, end, span, on_main_thread)
    for s in spans:
        t = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            if c["start"] > t:
                segments.append((t, c["start"], s, s["tid"] == main))
            t = max(t, c["end"])
        if s["end"] > t:
            segments.append((t, s["end"], s, s["tid"] == main))
    events = []
    for i, (a, b, _, _) in enumerate(segments):
        events.append((a, 1, i))
        events.append((b, 0, i))
    events.sort()  # at equal times, ends (0) before starts (1)

    charged = defaultdict(float)  # span id -> charged seconds
    on_main, on_workers = set(), set()
    prev = None
    for t, is_start, i in events:
        if prev is not None and t > prev:
            dt = t - prev
            if on_workers:
                for j in on_workers:
                    charged[segments[j][2]["id"]] += dt / len(on_workers)
            else:
                for j in on_main:
                    charged[segments[j][2]["id"]] += dt
        prev = t
        group = on_main if segments[i][3] else on_workers
        if is_start:
            group.add(i)
        else:
            group.discard(i)

    shares = defaultdict(float)
    for s in spans:
        w = charged.get(s["id"], 0.0)
        parts = {s["name"]: max(s["self"], 0.0)}
        for name, t in s["hot"].items():
            parts[name] = parts.get(name, 0.0) + t
        total = sum(parts.values())
        if w > 0 and total > 0:
            for name, t in parts.items():
                shares[name] += w * t / total
    return shares


def outermost_durations(doc, match):
    """Summed durations of spans matching ``match`` with no matching ancestor."""
    by_id = {s["id"]: s for s in doc["spans"]}
    total = 0.0
    for s in doc["spans"]:
        if not match(s["name"]):
            continue
        p = s["parent"]
        while p is not None and not match(by_id[p]["name"]):
            p = by_id[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
    return total


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def _output_bytes(runs):
    return sum(p.stat().st_size for r in runs for p in r.command.outputs if p.exists())


def layer_metrics(plain, traced, span_files, w1_file, mc_var):
    """Per-layer metrics: ``plain`` and ``traced`` are the untraced and
    traced runs of the same commands, ``span_files`` the traced spans (one
    per command), ``w1_file`` the spans of the window suites rerun at one
    worker (or None), ``mc_var`` the untraced variance-time product."""
    shares = defaultdict(float)
    busy = defaultdict(float)
    calls = defaultdict(int)
    hot = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0})
    counts = defaultdict(float)
    mins = {}
    incl = defaultdict(float)
    for f in span_files:
        if not f.exists():  # the traced command died; its exit code is already tallied
            continue
        doc = json.loads(f.read_text(encoding="utf-8"))
        for k, v in wall_shares(doc).items():
            shares[k] += v
        for s in doc["spans"]:
            busy[s["name"]] += s["self"]
            calls[s["name"]] += 1
        for k, v in doc["hot"].items():
            for field in ("calls", "self", "total"):
                hot[k][field] += v[field]
        for k, v in doc["counts"].items():
            counts[k] += v
        for k, v in doc["mins"].items():
            mins[k] = min(mins.get(k, v), v)
        for name in ("spectral.sample", "estimate.bigjump", "simulate.path"):
            incl[name] += outermost_durations(doc, lambda n, name=name: n == name)
        for suite in SUITES:
            incl[f"verify.suite.{suite}"] += outermost_durations(
                doc, lambda n, suite=suite: n == f"verify.suite.{suite}")

    speedup = 0.0
    if w1_file is not None and w1_file.exists():
        w1 = json.loads(w1_file.read_text(encoding="utf-8"))
        names = {s["name"] for s in w1["spans"] if s["name"].startswith("verify.suite.")}
        t1 = sum(outermost_durations(w1, lambda n, m=m: n == m) for m in names)
        t2 = sum(incl[m] for m in names)
        speedup = _ratio(t1, t2)

    verify_runs = [r for r in plain if r.command.argv[0] == "verify"]
    checks = failed = 0
    for r in verify_runs:
        report = r.command.argv[r.command.argv.index("--report") + 1]
        try:
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)["checks"]
        except (OSError, ValueError, KeyError):
            continue
        checks += len(data)
        failed += sum(1 for c in data if not c["pass"])

    plain_wall = sum(r.wall for r in plain)
    traced_wall = sum(r.wall for r in traced)
    spanned = sum(shares.values())
    m = {
        "cli.import_s": shares["cli.import"],
        "cli.self_s": shares["cli.main"],
        "cli.out_mb": _output_bytes(traced) / 1e6,
        "config.load_s": shares["config.load"],
        "config.build_s": shares["config.build"],
        "spaces.bound_s": shares["spaces.bound"],
        "spaces.bound_calls": calls["spaces.bound"],
        "spaces.bound_inexact": counts["spaces.bound_inexact"],
        "spaces.apply_s": shares["spaces.apply"],
        "spaces.apply_calls": hot["spaces.apply"]["calls"],
        "spaces.apply_mb": counts["spaces.apply_bytes"] / 1e6,
        "spaces.norm_s": shares["spaces.norm"],
        "spaces.norm_calls": hot["spaces.norm"]["calls"],
        "spaces.norm_mb": counts["spaces.norm_bytes"] / 1e6,
        "rv.sample_s": shares["rv.sample"],
        "rv.draws": counts["rv.draws"],
        "rv.draws_per_s": _ratio(counts["rv.draws"], hot["rv.sample"]["total"]),
        "spectral.constants_s": shares["spectral.constants"],
        "spectral.sample_s": shares["spectral.sample"],
        "spectral.sample_incl_s": incl["spectral.sample"],
        "spectral.windows": counts["spectral.windows"],
        "spectral.windows_per_s": _ratio(counts["spectral.windows"], incl["spectral.sample"]),
        "spectral.accept_ratio": _ratio(counts["spectral.windows"],
                                        counts["spectral.angle_draws"]),
        "spectral.accept_pred": mins.get("spectral.accept_pred", 0.0),
        "spectral.tc_rhs_s": shares["spectral.tc_rhs"],
        "spectral.limit_s": shares["spectral.limit"],
        "summaries.self_s": shares["summaries.stat"],
        "estimate.bigjump_s": shares["estimate.bigjump"],
        "estimate.bigjump_incl_s": incl["estimate.bigjump"],
        "estimate.bigjump_draws": counts["estimate.bigjump_draws"],
        "estimate.bigjump_draws_per_s": _ratio(counts["estimate.bigjump_draws"],
                                               incl["estimate.bigjump"]),
        "estimate.bootstrap_s": shares["estimate.bootstrap"],
        "estimate.boot_reps": counts["estimate.boot_reps"],
        "estimate.exceed_s": shares["estimate.exceed"],
        "estimate.stat_s": shares["estimate.stat"],
        "simulate.path_s": shares["simulate.path"],
        "simulate.path_incl_s": incl["simulate.path"],
        "simulate.rows_per_s": _ratio(counts["simulate.rows"], incl["simulate.path"]),
        "simulate.csv_s": shares["simulate.csv"],
        "simulate.csv_mb": counts["simulate.csv_bytes"] / 1e6,
        "simulate.csv_mb_per_s": _ratio(counts["simulate.csv_bytes"] / 1e6,
                                        busy["simulate.csv"]),
        **{f"verify.suite_s.{s}": incl[f"verify.suite.{s}"] for s in SUITES},
        "verify.self_s": sum(v for k, v in shares.items() if k.startswith("verify.")),
        "verify.cpu_per_wall": _ratio(sum(r.cpu for r in verify_runs),
                                      sum(r.wall for r in verify_runs)),
        "verify.speedup_w2": speedup,
        "verify.checks": checks,
        "verify.checks_failed": failed,
        "verify.mc_var_s": mc_var or 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.spanned_s": spanned,
        "trace.unspanned_s": traced_wall - spanned,
    }
    metrics = {name: (float(m[name]), unit) for name, unit, _ in PER_LAYER}
    for name, value in metrics.items():
        if not math.isfinite(value[0]):
            raise ValueError(f"per-layer metric {name} is not finite")
    detail = {
        "untraced_wall_s": plain_wall,
        "self_wall_share_s": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "self_busy_s": {**dict(busy), **{k: v["self"] for k, v in hot.items()}},
        "hot": dict(hot),
        "counts": dict(counts),
    }
    return metrics, detail
