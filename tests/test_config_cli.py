import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import heavytail
from heavytail.cli import main
from heavytail.config import ConfigError, list_presets, load_config
from heavytail.verify import Check


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
    for i in range(n):
        for t in range(-back, fwd + 1):
            coords = ",".join("%.17g" % v for v in wb.values[i, back + t])
            lines.append(f"{i},{t},{coords},{int(wb.origin[i])}\n")
    return "".join(lines)


@pytest.mark.parametrize("preset,window", [("ma2", (1, 1)), ("ar1_scalar", (2, 3)),
                                           ("seqspace", (0, 2))])
def test_cli_spectral_bytes_match_row_loop(tmp_path, preset, window):
    out = tmp_path / "w.csv"
    assert main(["spectral", "--config", preset, "--n", "37", "--window",
                 *map(str, window), "--out", str(out)]) == 0
    assert out.read_text() == _spectral_csv_reference(load_config(preset), 37, *window)


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


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    # neither importing the CLI nor simulating a scalar AR(1) path loads it
    src = str(pathlib.Path(heavytail.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out_csv = str(tmp_path / "ar1.csv")
    code = (
        "import sys, heavytail.cli\n"
        "rc = heavytail.cli.main(['simulate', '--config', 'ar1_scalar', '--length', '2000',"
        f" '--out', {out_csv!r}])\n"
        "print(rc, 'scipy.signal' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "0 False"


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


def _dense_sphere_config(tmp_path, n_samples):
    data = {
        "version": 1, "alpha": 1.5, "seed": 7,
        "norm": {"kind": "lp", "dim": 3, "p": 2},
        "innovation": {"scale": 1.0, "angle": {"kind": "sphere_uniform"}},
        "model": {"type": "linear_ops", "operators": [
            {"index": 0, "op": {"kind": "dense", "matrix": [
                [1.0, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.6]]}},
            {"index": 1, "op": {"kind": "dense", "matrix": [
                [0.5, -0.3, 0.2], [0.1, 0.4, 0.0], [0.0, 0.2, -0.5]]}},
        ]},
        "mc": {"n_samples": n_samples},
        "path": {"length": 20000, "burn_in": 1, "truncation": 1},
    }
    path = tmp_path / "dense_sphere.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("suite", ["time-change", "mixture"])
def test_cli_monte_carlo_constants_get_a_stream(tmp_path, suite):
    # Without a derived stream this config exited 2 ("family needs Monte Carlo constants").
    cfg = _dense_sphere_config(tmp_path, 20_000)
    report = tmp_path / "r.json"
    argv = ["verify", "--config", cfg, "--suite", suite, "--workers", "1", "--report"]
    assert main(argv + [str(report)]) == 0
    first = report.read_bytes()
    assert main(argv + [str(report)]) == 0
    assert report.read_bytes() == first
    consts = load_config(cfg).window_sampler().consts
    assert np.all(consts.stderr > 0)


def test_cli_verify_workers_below_one_is_exit_2(tmp_path, capsys):
    report = tmp_path / "r.json"
    for workers in ("0", "-1"):
        code = main(["verify", "--config", "iid", "--suite", "mixture", "--workers", workers,
                     "--report", str(report)])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
    assert not report.exists()


def _single_op_config(tmp_path, op, dim, **fields):
    data = {
        "version": 1, "alpha": 1.5, "seed": 7,
        "norm": {"kind": "max", "dim": dim},
        "innovation": {"scale": 1.0, "angle": {"kind": "sphere_uniform"}},
        "model": {"type": "linear_ops", "operators": [{"index": 0, "op": op}]},
        "mc": {"n_samples": 2000},
        "path": {"length": 3000, "burn_in": 0, "truncation": 0},
    }
    data.update(fields)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("op,fields,message", [
    ({"kind": "chain", "parts": [{"kind": "scalar"}]}, {}, "operators/0/op/parts/0"),
    ({"kind": "chain", "parts": [{"kind": "scalar", "a": "x"}]}, {}, "'x' is not of type"),
    ({"kind": "dense", "matrix": [[1.0, 0.0], [1.0]]}, {}, "dense operator matrix rows"),
    ({"kind": "scalar", "a": 0.5},
     {"innovation": {"scale": 1.0, "angle": {
         "kind": "atomic", "points": [["a", 1.0]], "weights": [1.0]}}},
     "points/0/0: 'a' is not of type"),
    ({"kind": "scalar", "a": 0.5},
     {"innovation": {"scale": 1.0, "angle": {
         "kind": "atomic", "points": [[1.0, 0.0], [1.0]], "weights": [0.5, 0.5]}}},
     "atomic angle points rows"),
])
def test_cli_malformed_operator_or_atoms_is_exit_2(tmp_path, capsys, op, fields, message):
    cfg = _single_op_config(tmp_path, op, 2, **fields)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("op,dim", [
    ({"kind": "scalar", "a": 0.5}, 1),
    ({"kind": "dense", "matrix": [[1.0, 0.5], [0.0, 1.0]]}, 2),
])
def test_cli_empirical_single_lag_family(tmp_path, op, dim):
    # No future slots: the sup over an empty set is 0, so theta = 1 exactly.
    report = tmp_path / "r.json"
    code = main(["verify", "--config", _single_op_config(tmp_path, op, dim),
                 "--suite", "empirical-vs-closed", "--workers", "1", "--report", str(report)])
    assert code in (0, 1)
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["blocks_extremal_index"]["target"] == 1.0


def test_cli_estimation_error_is_exit_1(tmp_path, capsys):
    data = json.loads(load_config("iid").canonical_json())
    data["alpha"] = 1e-3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code = main(["verify", "--config", str(cfg), "--suite", "empirical-vs-closed",
                 "--workers", "1", "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "estimation error: no exceedances" in capsys.readouterr().err
