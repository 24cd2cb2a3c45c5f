import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import heavytail
from heavytail.cli import main
from heavytail.config import ConfigError, ModelConfig, list_presets, load_config
from heavytail.verify import Check
from heavytail.windows import WindowBatch


def test_presets_load_and_round_trip():
    for name in list_presets():
        cfg = load_config(name)
        again = load_config(json.loads(cfg.canonical_json()))
        assert again.data == cfg.data
        assert again.canonical_json() == cfg.canonical_json()


def test_preset_builders():
    for name in list_presets():
        cfg = load_config(name)
        sampler = cfg.window_sampler()
        wb = sampler.sample(50, 1, 1, np.random.default_rng(1))
        assert np.all(np.abs(wb.norm_at(0) - 1.0) < 1e-9)
        path = cfg.simulate(length=200)
        assert len(path) == 200


def test_missing_field_names_the_field():
    data = json.loads(load_config("iid").canonical_json())
    del data["alpha"]
    with pytest.raises(ConfigError, match="alpha"):
        load_config(data)


def test_overrides_merge():
    cfg = load_config("ma2", {"alpha": 2.0, "mc": {"n_samples": 1234}})
    assert cfg.alpha == 2.0
    assert cfg.n_samples == 1234
    assert cfg.data["mc"]["max_rejection_trials"] == 1000000  # untouched sibling


def test_corrupt_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1,\n  "alpha": oops\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(bad))


def test_seqspace_requires_weighted_norm():
    data = json.loads(load_config("seqspace").canonical_json())
    data["norm"] = {"kind": "max", "dim": 4}
    with pytest.raises(ConfigError):
        load_config(data)


def test_general_operator_family_config():
    data = json.loads(load_config("ma2").canonical_json())
    data["norm"] = {"kind": "max", "dim": 2}
    data["innovation"]["angle"] = {
        "kind": "atomic",
        "points": [[1.0, 0.0], [0.0, 1.0]],
        "weights": [0.5, 0.5],
    }
    data["model"] = {
        "type": "linear_ops",
        "operators": [
            {"index": 0, "op": {"kind": "diagonal", "entries": [1.0, 0.5]}},
            {"index": 1, "op": {"kind": "dense", "matrix": [[0.0, 1.0], [1.0, 0.0]]}},
            {"index": 2, "op": {"kind": "chain", "parts": [
                {"kind": "scalar", "a": 0.5},
                {"kind": "shift_power", "m": 1},
            ]}},
        ],
    }
    data["path"]["burn_in"] = 2
    data["path"]["truncation"] = 2
    cfg = load_config(data)
    sampler = cfg.window_sampler(rng=np.random.default_rng(2))
    wb = sampler.sample(2000, 1, 1, np.random.default_rng(3))
    assert np.all(np.abs(wb.norm_at(0) - 1.0) < 1e-9)
    path = cfg.simulate(length=500)
    assert path.values.shape == (500, 2)


# ---------------------------------------------------------------------------
# CLI exit codes and determinism


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", "ma2", "--out", str(out1), "--length", "50"]) == 0
    assert main(["simulate", "--config", "ma2", "--out", str(out2), "--length", "50"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 20260802 and meta["truncation_error_bound"] == 0.0


def test_cli_seed_precedence(tmp_path, monkeypatch):
    base = tmp_path / "base.csv"
    env = tmp_path / "env.csv"
    flag = tmp_path / "flag.csv"
    main(["simulate", "--config", "iid", "--out", str(base), "--length", "20"])
    monkeypatch.setenv("HEAVYTAIL_SEED", "999")
    main(["simulate", "--config", "iid", "--out", str(env), "--length", "20"])
    main(["simulate", "--config", "iid", "--out", str(flag), "--length", "20",
          "--seed", "20260801"])
    assert env.read_bytes() != base.read_bytes()  # env overrides config
    assert flag.read_bytes() == base.read_bytes()  # flag overrides env


def test_cli_invalid_config_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    missing = tmp_path / "missing.json"
    data = json.loads(load_config("iid").canonical_json())
    del data["alpha"]
    missing.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(missing), "--out", str(out)]) == 2


def test_cli_unknown_stat_is_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["summarize", "--config", "iid", "--stat", "nonsense"])
    assert exc.value.code == 2


def test_cli_spectral_iid_window(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["spectral", "--config", "iid", "--n", "4", "--window", "1", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample,offset,x0,origin"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 12
    for sample, offset, x0, origin in rows:
        if offset != "0":
            assert float(x0) == 0.0  # off-center slots vanish in the iid case
        else:
            assert abs(float(x0)) == 1.0


def test_cli_spectral_empty(tmp_path):
    out = tmp_path / "w0.csv"
    assert main(["spectral", "--config", "ma2", "--n", "0", "--window", "0", "0",
                 "--out", str(out)]) == 0
    assert out.read_text().strip() == "sample,offset,x0,origin"


def _spectral_csv_reference(cfg, n, back, fwd):
    """The spectral CSV as the per-row loop wrote it before the chunked writer."""
    sampler = cfg.window_sampler()
    wb = sampler.sample(n, back, fwd, np.random.default_rng([cfg.seed, 0x5B]))
    d = sampler.space.dim
    lines = ["sample,offset," + ",".join(f"x{j}" for j in range(d)) + ",origin\n"]
    origin = wb.origin if wb.origin is not None else np.zeros(n, dtype=int)
    for i in range(n):
        for t in range(-back, fwd + 1):
            coords = ",".join("%.17g" % v for v in wb.values[i, back + t])
            lines.append(f"{i},{t},{coords},{int(origin[i])}\n")
    return "".join(lines)


@pytest.mark.parametrize("preset,window", [("ma2", (1, 1)), ("ar1_scalar", (2, 3)),
                                           ("seqspace", (0, 2))])
def test_cli_spectral_bytes_match_row_loop(tmp_path, preset, window):
    out = tmp_path / "w.csv"
    assert main(["spectral", "--config", preset, "--n", "37", "--window",
                 *map(str, window), "--out", str(out)]) == 0
    assert out.read_text() == _spectral_csv_reference(load_config(preset), 37, *window)


class _NoOriginSampler:
    """Window sampler that drops the mixture origin of another one."""

    def __init__(self, base):
        self.base = base
        self.space = base.space

    def sample(self, n, back, fwd, rng):
        wb = self.base.sample(n, back, fwd, rng)
        return WindowBatch(wb.values, back, fwd, wb.space)


def test_cli_spectral_bytes_match_row_loop_without_origin(tmp_path, monkeypatch):
    build = ModelConfig.window_sampler
    monkeypatch.setattr(ModelConfig, "window_sampler",
                        lambda self, rng=None: _NoOriginSampler(build(self, rng)))
    out = tmp_path / "w.csv"
    assert main(["spectral", "--config", "ma3_positive", "--n", "25", "--window", "1", "2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == _spectral_csv_reference(load_config("ma3_positive"), 25, 1, 2)
    assert all(line.endswith(",0") for line in text.splitlines()[1:])


def test_cli_summarize_examples(tmp_path):
    out = tmp_path / "s.json"
    assert main(["summarize", "--config", "ma2", "--stat", "ma-specials",
                 "--lag", "1", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["value"]["theta_plus"] == 0.5
    assert rec["value"]["tail_dep_1"] == 0.5

    assert main(["summarize", "--config", "iid", "--stat", "extremal-index",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["value"] == 1.0

    assert main(["summarize", "--config", "ma2", "--stat", "tail-dep", "--lag", "0",
                 "--n", "2000", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["value"] == pytest.approx(1.0)


def test_cli_verify_report_deterministic(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    data = json.loads(load_config("ma2").canonical_json())
    data["mc"]["n_samples"] = 20_000
    cfgfile.write_text(json.dumps(data))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--config", str(cfgfile), "--suite", "limit-measure",
                 "--report", str(r1)]) == 0
    assert main(["verify", "--config", str(cfgfile), "--suite", "limit-measure",
                 "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["all_passed"] is True
    assert {"name", "estimate", "target", "stderr", "tolerance_rule", "pass"} <= set(
        report["checks"][0]
    )


def test_cli_verify_failure_is_exit_1(tmp_path, monkeypatch):
    import heavytail.cli as cli_mod

    def fake_suite(cfg, suite, workers=1):
        return [Check("forced", 1.0, 0.0, 0.0, "abs_err <= 0", False)]

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    report = tmp_path / "r.json"
    code = main(["verify", "--config", "iid", "--suite", "mixture",
                 "--report", str(report)])
    assert code == 1
    assert json.loads(report.read_text())["all_passed"] is False


def test_cli_import_leaves_scipy_signal_unloaded():
    src = str(pathlib.Path(heavytail.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, heavytail.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_cli_big_jump_non_contracting_ar1_is_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    data = json.loads(load_config("ar1_scalar").canonical_json())
    data["model"]["operator"]["a"] = 1.0
    cfgfile.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code = main(["verify", "--config", str(cfgfile), "--suite", "big-jump",
                 "--report", str(report)])
    assert code == 2
    assert "no power of the operator has norm bound < 1" in capsys.readouterr().err
    assert not report.exists()
