import json
import os
import pathlib
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import heavytail
from heavytail.cli import main
from heavytail.config import (
    SCHEMA,
    _KEYWORDS,
    _SKIPPED,
    _TYPES,
    ConfigError,
    _schema_error,
    list_presets,
    load_config,
)
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
        path = load_config(name, {"path": {"length": 200}}).simulate()
        assert len(path) == 200


def test_missing_field_names_the_field():
    data = json.loads(load_config("iid").canonical_json())
    del data["alpha"]
    with pytest.raises(ConfigError, match="alpha"):
        load_config(data)


def _with(cfg, path, value):
    """A copy of ``cfg``'s data with the entry at ``path`` set to ``value``."""
    data = json.loads(cfg.canonical_json())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _schema_nodes(schema):
    """Every subschema of ``schema``, itself first."""
    yield schema
    for key in ("properties", "definitions"):
        for sub in schema.get(key, {}).values():
            yield from _schema_nodes(sub)
    for sub in schema.get("oneOf", []):
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


def test_schema_uses_only_keywords_the_walker_implements():
    nodes = list(_schema_nodes(SCHEMA))
    assert len(nodes) > 80  # the walk reached the nested subschemas
    for node in nodes:
        assert set(node) <= _KEYWORDS | _SKIPPED, node
        assert node.get("type", "object") in _TYPES
        assert node.get("additionalProperties", False) is False
        const = node.get("const", "")
        assert isinstance(const, (str, int)) and not isinstance(const, bool)
        if "$ref" in node:
            assert node["$ref"].startswith("#/definitions/") and len(node) == 1


@pytest.mark.parametrize("path,value,ok", [
    (("seed",), 3.0, True),  # an integral float is an integer
    (("seed",), 3.5, False),
    (("version",), 1.0, True),  # 1 == 1.0 for const
    (("version",), True, False),  # a bool is not a number
    (("alpha",), True, False),
    (("innovation", "angle", "p_plus"), False, False),
    (("innovation", "angle", "p_plus"), 1.5, False),  # maximum
    (("innovation", "angle", "p_plus"), 1, True),
    (("alpha",), 0, False),  # exclusiveMinimum
    (("alpha",), 1e-300, True),
    (("seed",), 0, True),  # minimum
    (("model", "coeffs"), [], False),  # minItems
    (("alpha",), float("nan"), False),  # non-finite numbers fail, unlike jsonschema
    (("alpha",), float("inf"), False),
    (("innovation", "scale"), float("inf"), False),
    (("seed",), float("-inf"), False),
])
def test_schema_walker_number_semantics(path, value, ok):
    err = _schema_error(_with(load_config("ma2"), path, value))
    assert (err is None) == ok
    if not ok:
        assert err[0] == path


@pytest.mark.parametrize("norm,where,message", [
    ({"kind": "weighted_l1", "weights": [1.0, 0.0]}, ("norm", "weights", 1),
     "0.0 is less than or equal to the minimum of 0"),
    ({"kind": "weighted_l1", "decay": 0.0, "dim": 3}, ("norm", "decay"),
     "0.0 is less than or equal to the minimum of 0"),
    ({"kind": "lp", "dim": 3}, ("norm",), "'p' is a required property"),
    ({"kind": "l7", "dim": 3}, ("norm",), "is not valid under any of the given schemas"),
])
def test_schema_walker_reports_inside_the_named_branch(norm, where, message):
    # two weighted_l1 branches share their kind: the deeper error wins
    err = _schema_error(_with(load_config("ma2"), ("norm",), norm))
    assert err[0] == where and message in err[1]


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
    data["path"]["length"] = 500
    cfg = load_config(data)
    sampler = cfg.window_sampler()
    wb = sampler.sample(2000, 1, 1, np.random.default_rng(3))
    assert np.all(np.abs(wb.norm_at(0) - 1.0) < 1e-9)
    path = cfg.simulate()
    assert path.values.shape == (500, 2)


def _single_op_family(op, dim):
    data = json.loads(load_config("ma2").canonical_json())
    data["norm"] = {"kind": "max", "dim": dim}
    data["innovation"]["angle"] = {"kind": "sphere_uniform"}
    data["model"] = {"type": "linear_ops", "operators": [{"index": 0, "op": op}]}
    return load_config(data).family()


SWAP = {"kind": "dense", "matrix": [[0.0, 1.0], [1.0, 0.0]]}
DIAG = {"kind": "diagonal", "entries": [2.0, 3.0]}


@pytest.mark.parametrize("op,dim,want", [
    (DIAG, 2, np.diag([2.0, 3.0])),
    ({"kind": "shift_power", "m": 1}, 3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ({"kind": "shift_power", "m": 4}, 3, np.zeros((3, 3))),
    # parts[0] acts first: swap then scale rows, not the reverse
    ({"kind": "chain", "parts": [SWAP, DIAG]}, 2, [[0.0, 2.0], [3.0, 0.0]]),
    ({"kind": "chain", "parts": [DIAG, SWAP]}, 2, [[0.0, 3.0], [2.0, 0.0]]),
    ({"kind": "chain", "parts": [{"kind": "scalar", "a": 0.5}]}, 2, 0.5 * np.eye(2)),
], ids=["diagonal", "shift1", "shift_past_dim", "chain_swap_first", "chain_diag_first",
        "chain_one_part"])
def test_structured_operator_kinds_build_their_matrix(op, dim, want):
    fam = _single_op_family(op, dim)
    assert fam.kind == "dense"
    np.testing.assert_array_equal(fam.ops[0].as_matrix(), want)


def test_shift_power_applies_as_a_truncated_shift():
    x = [1.0, 2.0, 3.0]
    shift1 = _single_op_family({"kind": "shift_power", "m": 1}, 3).ops[0]
    np.testing.assert_array_equal(shift1.apply(x), [0.0, 1.0, 2.0])
    shift4 = _single_op_family({"kind": "shift_power", "m": 4}, 3).ops[0]
    np.testing.assert_array_equal(shift4.apply(x), [0.0, 0.0, 0.0])


def test_diagonal_ar1_constants_are_closed_form_at_every_lag():
    # |T^n| = 0.7^n I at every lag, so every c_n is the isometry closed form
    # and no angle is drawn, whatever the rounding of (-0.7)^n.
    data = json.loads(load_config("ar1_scalar").canonical_json())
    data["norm"] = {"kind": "lp", "dim": 3, "p": 3}
    data["innovation"]["angle"] = {"kind": "sphere_uniform"}
    data["model"]["operator"] = {"kind": "diagonal", "entries": [0.7, -0.7, 0.7]}
    cfg = load_config(data)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    consts = heavytail.series_constants(cfg.family(), cfg.innovation(), 1000, rng)
    assert len(consts.stderr) == cfg.ar1_horizon + 1
    assert np.all(consts.stderr == 0.0) and np.all(consts.p_stderr == 0.0)
    assert rng.bit_generator.state == state


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


def test_cli_negative_seed_is_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", "iid", "--out", str(out), "--seed", "-1"]) == 2
    assert ("config invalid at seed: -1 is less than the minimum of 0"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("path,text", [
    (("alpha",), "NaN"),
    (("alpha",), "Infinity"),
    (("alpha",), "1e999"),
    (("innovation", "scale"), "Infinity"),
])
@pytest.mark.parametrize("argv", [
    ["spectral", "--n", "10", "--window", "1", "1", "--out"],
    ["verify", "--suite", "time-change", "--workers", "1", "--report"],
])
def test_cli_non_finite_number_is_exit_2(tmp_path, capsys, path, text, argv):
    # a NaN alpha used to end in a traceback ("Probabilities contain NaN") here
    data = _with(load_config("ar1_scalar"), path, "@")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data).replace('"@"', text))
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(cfg), *argv[1:], str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config invalid at {'/'.join(path)}: " in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("argv,message", [
    (["spectral", "--window", "a", "1", "--n", "3"], "--window"),
    (["spectral", "--window", "-1", "1", "--n", "3"], "--window"),
    (["spectral", "--window", "1", "-2", "--n", "3"], "--window"),
    (["spectral", "--window", "1", "1", "--n", "-5"], "--n"),
    (["summarize", "--stat", "joint-survival", "--indices", "0,x"], "--indices"),
    (["summarize", "--stat", "tail-dep", "--n", "0"], "--n"),
    (["summarize", "--stat", "tail-dep", "--n", "1"], "--n"),
    (["summarize", "--stat", "extremal-index", "--horizon", "-3", "--config", "ar1_scalar"],
     "--horizon"),
])
def test_cli_bad_arguments_are_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.out"
    try:
        # ma2 unless the case passes its own --config, which parses later and wins
        code = main([argv[0], "--config", "ma2", *argv[1:], "--out", str(out)])
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_cli_spectral_bytes_do_not_depend_on_process_count(tmp_path, force_csv_processes,
                                                            procs):
    forks = force_csv_processes(procs, chunk_rows=7)
    out = tmp_path / "w.csv"
    assert main(["spectral", "--config", "seqspace", "--n", "37", "--window", "0", "2",
                 "--out", str(out)]) == 0
    assert len(forks) == procs - 1
    assert out.read_text() == _spectral_csv_reference(load_config("seqspace"), 37, 0, 2)


@pytest.mark.parametrize("procs", [1, 2, 3])
@pytest.mark.parametrize("window", [(0, 33), (34, 1)])
def test_cli_spectral_axis_form_bytes_match_row_loop(tmp_path, force_csv_processes, procs,
                                                      window):
    # seqspace windows are in axis form; these reach past its 32 lags, so every
    # window holds all-zero rows
    cfg = load_config("seqspace")
    assert cfg.window_sampler().sample(1, 0, 0, np.random.default_rng(0)).coord is not None
    forks = force_csv_processes(procs, chunk_rows=7)
    out = tmp_path / "w.csv"
    assert main(["spectral", "--config", "seqspace", "--n", "37", "--window",
                 *map(str, window), "--out", str(out)]) == 0
    assert len(forks) == procs - 1
    text = out.read_text()
    assert ("," + ",".join(["0"] * 32) + ",") in text
    assert text == _spectral_csv_reference(cfg, 37, *window)


def test_cli_spectral_axis_form_empty(tmp_path):
    out = tmp_path / "w0.csv"
    assert main(["spectral", "--config", "seqspace", "--n", "0", "--window", "1", "2",
                 "--out", str(out)]) == 0
    assert out.read_text() == ("sample,offset," + ",".join(f"x{j}" for j in range(32))
                               + ",origin\n")


def test_cli_simulate_overflow_is_exit_2(tmp_path, capsys):
    data = json.loads(load_config("iid").canonical_json())
    data["alpha"] = 1e-3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "p.csv"
    with np.errstate(over="ignore"):
        code = main(["simulate", "--config", str(cfg), "--length", "2000", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "alpha=0.001" in err and "overflows float64" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "{iid}", "--length", "2000", "--out", "{out}"],
    ["simulate", "--config", "{dense}", "--length", "2000", "--out", "{out}"],
    ["verify", "--config", "{ar1}", "--suite", "empirical-vs-closed", "--workers", "1",
     "--report", "{out}"],
], ids=["simulate-iid", "simulate-dense-ar1", "verify-empirical-ar1"])
def test_cli_small_alpha_paths_exit_2_without_warnings(tmp_path, command):
    configs = {}
    for key, source in (("iid", "iid"), ("ar1", "ar1_scalar"),
                        ("dense", str(pathlib.Path(__file__).resolve().parents[1] / "bench"
                                     / "configs" / "dense_ar1.json"))):
        data = json.loads(load_config(source).canonical_json())
        data["alpha"] = 1e-3
        configs[key] = tmp_path / f"{key}.json"
        configs[key].write_text(json.dumps(data))
    out = tmp_path / "out"
    argv = [a.format(out=out, **configs) for a in command]
    src = str(pathlib.Path(heavytail.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "heavytail.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == ("error: simulated path is not finite: at alpha=0.001 the Pareto "
                           "radius (1-U)**(-1/alpha) overflows float64\n")
    assert not out.exists()


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


@pytest.mark.parametrize("argv, window", [
    (["summarize", "--stat", "joint-survival", "--indices", "0,1000000000000", "--n", "100"],
     "[-0, 1000000000000]"),
    (["summarize", "--stat", "tail-dep", "--lag", "-1000000000000", "--n", "100"],
     "[-1000000000000, 0]"),
    (["summarize", "--stat", "extremal-index", "--horizon", "1000000000000", "--n", "100"],
     "[-0, 1000000000000]"),
    (["spectral", "--n", "100", "--window", "0", "1000000000000"], "[-0, 1000000000000]"),
], ids=["joint-survival", "tail-dep", "extremal-index", "spectral"])
def test_cli_window_beyond_physical_memory_is_exit_2(tmp_path, capsys, argv, window):
    out = tmp_path / "w.out"
    assert main(argv + ["--config", "ma2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: window {window} of 100 samples" in err and "physical memory" in err
    assert "Traceback" not in err and not out.exists()


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
    # Neither importing the CLI nor simulating a scalar AR(1) path, sampling
    # windows or verifying loads scipy (or jsonschema).
    src = str(pathlib.Path(heavytail.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out_csv, report = str(tmp_path / "out.csv"), str(tmp_path / "r.json")
    code = (
        "import sys, heavytail.cli\n"
        "run = heavytail.cli.main\n"
        f"rc = [run(['simulate', '--config', 'ar1_scalar', '--length', '2000',"
        f" '--out', {out_csv!r}]),"
        f" run(['spectral', '--config', 'seqspace', '--n', '5', '--window', '1', '1',"
        f" '--out', {out_csv!r}]),"
        f" run(['verify', '--config', 'iid', '--suite', 'mixture', '--workers', '1',"
        f" '--report', {report!r}])]\n"
        "print('loaded', rc, 'scipy' in sys.modules, 'jsonschema' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert "loaded [0, 0, 0] False False" in out.stdout.splitlines()
    assert json.loads(pathlib.Path(report).read_text())["environment"]["runtime"] == {
        "python": platform.python_version(), "numpy": np.__version__}


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


def test_cli_big_jump_overflow_is_exit_2(tmp_path, capsys):
    data = json.loads(load_config("ma2").canonical_json())
    data["alpha"] = 1e-3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(cfg), "--suite", "big-jump",
                     "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "alpha=0.001" in err and "overflows float64" in err
    assert not report.exists()


def _dense_sphere_config(tmp_path, n_samples):
    data = {
        "version": 1, "alpha": 1.5, "seed": 8,
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
    ({"kind": "chain", "parts": [{"kind": "scalar", "a": 0.5},
                                 {"kind": "diagonal", "entries": [1.0, 2.0, 3.0]}]},
     {}, "chained operator dimensions do not match"),
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
    # every radius rounds to the scale, so no path norm exceeds its 0.999 quantile
    data = json.loads(load_config("iid").canonical_json())
    data["alpha"] = 1e18
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code = main(["verify", "--config", str(cfg), "--suite", "empirical-vs-closed",
                 "--workers", "1", "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "estimation error: no exceedances" in capsys.readouterr().err
