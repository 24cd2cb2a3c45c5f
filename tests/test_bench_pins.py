"""Guards for what the benchmark under ``bench/`` relies on in the package.

``bench/tracer.py`` wraps functions and methods by name, so deleting or
renaming one of them breaks every traced run.  ``bench/run.py`` judges a
verify-ar1 report by its exact list of check names, and a traced report by
its bytes against the untraced one.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heavytail.cli import main
from heavytail.verify import run_suite

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_tracer_installs_on_the_package(tmp_path):
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import tracer; "
            "tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports layers.py
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_verify_ar1_check_names_match_the_benchmark(bench_run, tmp_path):
    # the smoke test's toy config: scalar a = 0.5, horizon 16
    _, cfg = bench_run._configs(True, tmp_path)["ar1"]
    names = [c.name for c in run_suite(cfg, "all", workers=2)]
    assert names == bench_run.ar1_scalar_check_names(cfg.data)


def _traced(tmp_path, *argv):
    """Run one CLI command under ``bench/tracer.py``; (process, trace dump)."""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(out), "--", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    return proc, json.loads(out.read_text()) if out.exists() else None


def _span_names(trace):
    return {span["name"] for span in trace["spans"]}


def test_traced_spectral_on_seqspace(tmp_path):
    proc, trace = _traced(tmp_path, "spectral", "--config", "seqspace", "--n", "2000",
                          "--window", "1", "1", "--out", str(tmp_path / "w.csv"))
    assert proc.returncode == 0, proc.stderr
    assert "spectral.sample" in _span_names(trace)


def test_traced_mixture_suite_on_toy_ar1(bench_run, tmp_path):
    source, _ = bench_run._configs(True, tmp_path)["ar1"]
    argv = ["verify", "--config", source, "--suite", "mixture", "--workers", "2", "--report"]
    proc, trace = _traced(tmp_path, *argv, str(tmp_path / "traced.json"))
    assert proc.returncode == 0, proc.stderr
    assert "spectral.sample" in _span_names(trace)
    assert main(argv + [str(tmp_path / "plain.json")]) == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
