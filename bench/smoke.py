"""Smoke test of the benchmark at toy sizes (about two minutes on 2 cores):

    python3 bench/smoke.py

Checks that every workload in BENCHMARK.json prints each declared metric
with its unit in both modes, that corrupted outputs are counted as failed
operations rather than passing, and that the benchmark refuses to run
without the package sources.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SMOKE = run.RUNS / "smoke"


def expect(ok, what):
    if not ok:
        raise SystemExit(f"smoke: FAILED {what}")
    print(f"smoke: ok  {what}")


def bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed(spec):
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(w["name"], trace)
            expect(proc.returncode == 0, f"{w['name']} trace {trace} exits 0")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w['name']} trace {trace} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w['name']} trace {trace} correct at toy sizes")
            metrics = result["metrics"]
            expect([m["name"] for m in declared] == list(metrics),
                   f"{w['name']} trace {trace} prints exactly the declared metrics")
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if ln.startswith("  ")}
            wrong = [m["name"] for m in declared
                     if metrics[m["name"]]["unit"] != m["unit"]
                     or printed.get(m["name"]) != m["unit"]
                     or not math.isfinite(metrics[m["name"]]["value"])
                     or (trace == 0 and metrics[m["name"]]["value"] <= 0)]
            expect(not wrong, f"{w['name']} trace {trace} prints every metric with its unit"
                   f"{' (wrong: ' + ', '.join(wrong) + ')' if wrong else ''}")
            if trace == 0:
                expect("failed_frac" in printed, f"{w['name']} prints failed_frac")
                if w["name"] != "path-dense-ar1":
                    expect("mc_var_s" in printed, f"{w['name']} prints mc_var_s")


def truncate(path, keep=0.5):
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep)])


def check_corruption():
    """Run each toy workload once, corrupt one output, and re-check."""
    cases = {
        "path-dense-ar1": lambda wd: truncate(wd / "path.csv"),
        "spectral-seqspace": lambda wd: truncate(wd / "windows.csv"),
        "verify-ar1": lambda wd: break_first_check(wd / "ar1_report.json"),
    }
    sys.path.insert(0, str(run.SRC))
    for workload, corrupt in cases.items():
        wd = SMOKE / workload
        shutil.rmtree(wd, ignore_errors=True)
        wd.mkdir(parents=True)
        cmds, _ = run.build_workload(workload, 3, wd, toy=True)
        runs = run.run_commands(cmds, wd, "smoke")
        clean = run.Tally()
        for r in runs:
            run.check_run(r, clean)
        expect(clean.failed == 0, f"{workload} clean outputs pass")
        for r in runs:
            r.digests = [run.digest(p) for p in r.command.outputs]
        corrupt(wd)
        bad = run.Tally()
        for r in runs:
            run.check_run(r, bad)
        expect(bad.failed > 0 and bad.attempted == clean.attempted,
               f"{workload} corrupted output counted in failed_frac "
               f"({bad.failed}/{bad.attempted}: {bad.failures[:2]})")
        repeat = run.Tally()
        for r in runs:
            run.check_repeat(r, r, repeat)
        expect(repeat.failed > 0, f"{workload} corrupted repetition counted in failed_frac "
               f"({repeat.failed}/{repeat.attempted}: {repeat.failures[:2]})")


def break_first_check(report):
    """Move the first check's estimate 100 se off target and fail it."""
    data = json.loads(report.read_text(encoding="utf-8"))
    check = data["checks"][0]
    check["estimate"] = check["target"] + 100 * check["stderr"]
    check["pass"] = data["all_passed"] = False
    report.write_text(json.dumps(data), encoding="utf-8")


def check_bare_directory(spec):
    bare = SMOKE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(spec["workloads"][0]["name"], 0, cwd=bare, script=bare / "bench" / "run.py")
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           "refuses to run without the package sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(declared == [tuple(m) for m in __import__("layers").PER_LAYER],
           "BENCHMARK.json per_layer matches bench/layers.py")
    check_bare_directory(spec)
    check_corruption()
    check_printed(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
