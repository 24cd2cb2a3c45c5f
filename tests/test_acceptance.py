"""Acceptance battery: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Scales follow the stated defaults (1e5 spectral windows, 1e7
path lengths / Monte Carlo draws) and every tolerance is pinned here.
"""

import json

import numpy as np
import pytest

from heavytail import verify
from heavytail.cli import main
from heavytail.config import load_config
from heavytail.estimate import big_jump_paired
from heavytail.rv import Rademacher, RegVarDist
from heavytail.spaces import max_norm
from heavytail.spectral import family_from_coeffs
from heavytail.summaries import seq_identity_check
from heavytail.verify import (
    suite_big_jump,
    suite_empirical,
    suite_limit_measure,
    suite_mixture,
    suite_time_change,
)

N_WINDOWS = 100_000
PATH_LENGTH = 10_000_000
N_BIG_JUMP = 10_000_000


def _report(name, checks):
    failures = [c for c in checks if not c.passed]
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}: {len(checks) - len(failures)}/{len(checks)} checks")
    for c in checks:
        mark = "ok " if c.passed else "BAD"
        print(f"    {mark} {c.name}: estimate={c.estimate:.6g} target={c.target:.6g} "
              f"stderr={c.stderr:.3g} ({c.tolerance_rule})")
    assert not failures, f"{name}: {[c.name for c in failures]}"


def test_criterion_1_time_change():
    checks = []
    for preset in ("ma2", "ma3_positive", "ar1_scalar", "seqspace"):
        for alpha in (1.0, 2.0):
            cfg = load_config(preset, {"alpha": alpha, "mc": {"n_samples": N_WINDOWS}})
            for c in suite_time_change(cfg):
                checks.append(
                    type(c)(f"{preset}/a={alpha:g}/{c.name}", c.estimate, c.target,
                            c.stderr, c.tolerance_rule, c.passed)
                )
    _report("criterion 1: time-change identities", checks)


def test_criterion_2_mixture_representation():
    cfg = load_config("ma3_positive", {"alpha": 2.0, "mc": {"n_samples": 1_000_000}})
    # pinned mixture probabilities: c_n = a_n^alpha -> (1, 0.64, 0.36)/2
    sampler = cfg.window_sampler()
    np.testing.assert_allclose(sampler.consts.p, np.array([1.0, 0.64, 0.36]) / 2.0)
    checks = suite_mixture(cfg)
    _report("criterion 2: mixture representation and rejection tilt", checks)


def test_criterion_3_empirical_vs_closed(monkeypatch):
    checks = []
    # (a) + (c): two-term positive moving average, alpha 1, strict 3-sigma
    long_path = {"path": {"length": PATH_LENGTH}}
    cfg = load_config("ma2", {"alpha": 1.0, **long_path})
    with monkeypatch.context() as m:
        m.setattr(verify, "_SPECTRAL_STAT_FLOOR", 0.0)
        for c in suite_empirical(cfg):
            checks.append(type(c)("ma2/a=1/" + c.name, c.estimate, c.target, c.stderr,
                                  c.tolerance_rule, c.passed))
    # (b): same model at alpha 2, blocks extremal index 0.5 +- 0.05
    cfg2 = load_config("ma2", {"alpha": 2.0, **long_path})
    for c in suite_empirical(cfg2):
        checks.append(type(c)("ma2/a=2/" + c.name, c.estimate, c.target, c.stderr,
                              c.tolerance_rule, c.passed))
    # (d): scalar AR(1) with c = 0.5, extremal index 0.5 +- 0.05
    cfg3 = load_config("ar1_scalar", {"alpha": 1.0, **long_path})
    for c in suite_empirical(cfg3):
        checks.append(type(c)("ar1/a=1/" + c.name, c.estimate, c.target, c.stderr,
                              c.tolerance_rule, c.passed))
    _report("criterion 3: empirical estimators vs closed forms", checks)


def test_criterion_4_single_big_jump():
    # scalars (1, 0.5), alpha 2, exact Pareto innovations, x at the 1e-4 tail
    alpha = 2.0
    innov = RegVarDist(alpha, 1.0, Rademacher(1.0))
    fam = family_from_coeffs([1.0, 0.5], alpha, max_norm(1))
    x = (1e-4) ** (-1.0 / alpha)  # = 100
    assert x == pytest.approx(100.0)
    near, far = big_jump_paired(fam, innov, [x, 10 * x], N_BIG_JUMP,
                                np.random.default_rng(20260804))
    target = 1.25  # c_0 + c_1 = 1 + 0.5^2
    assert near.target == pytest.approx(target)
    ok_sum = abs(near.ratio_sum_norm - target) <= 0.10 * target
    ok_norm = abs(near.ratio_norm_sum - target) <= 0.10 * target
    ok_disc = far.discrepancy < near.discrepancy
    status = "PASS" if (ok_sum and ok_norm and ok_disc) else "FAIL"
    print(f"[{status}] criterion 4: single big jump: "
          f"ratio_sum_norm={near.ratio_sum_norm:.4f} ratio_norm_sum={near.ratio_norm_sum:.4f} "
          f"(target {target}, tol 10%), discrepancy {near.discrepancy:.3e} -> "
          f"{far.discrepancy:.3e} at 10x (paired)")
    assert ok_sum and ok_norm and ok_disc


def test_criterion_5_limit_measure():
    cfg = load_config("ma2", {"mc": {"n_samples": N_WINDOWS}})
    checks = suite_limit_measure(cfg)
    _report("criterion 5: limit-measure masses and homogeneity", checks)


def test_criterion_6_determinism_and_contracts(tmp_path, monkeypatch):
    ok = []

    # byte-identical reports under a fixed seed
    cfgfile = tmp_path / "cfg.json"
    data = json.loads(load_config("ma2").canonical_json())
    data["mc"]["n_samples"] = 20_000
    cfgfile.write_text(json.dumps(data))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = main(["verify", "--config", str(cfgfile), "--suite", "limit-measure",
               "--report", str(r1)])
    c2 = main(["verify", "--config", str(cfgfile), "--suite", "limit-measure",
               "--report", str(r2)])
    ok.append(("byte-identical reports", c1 == 0 and c2 == 0
               and r1.read_bytes() == r2.read_bytes()))

    # exit-code contract: 0 pass, 1 verification failure, 2 config error
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok.append(("exit 2 on config error",
               main(["verify", "--config", str(bad), "--suite", "mixture",
                     "--report", str(tmp_path / "x.json")]) == 2))

    import heavytail.cli as cli_mod
    from heavytail.verify import Check

    real_run_suite = cli_mod.run_suite
    monkeypatch.setattr(
        cli_mod, "run_suite",
        lambda cfg, suite, workers=1: [Check("forced", 1.0, 0.0, 0.0, "abs_err <= 0", False)],
    )
    ok.append(("exit 1 on failed check",
               main(["verify", "--config", "iid", "--suite", "mixture",
                     "--report", str(tmp_path / "f.json")]) == 1))
    monkeypatch.setattr(cli_mod, "run_suite", real_run_suite)

    # suffix-sup identity on 1000 random nonnegative sequences
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.0, 10.0, size=rng.integers(1, 21))
        lhs, rhs = seq_identity_check(a)
        worst = max(worst, abs(lhs - rhs))
    ok.append(("seq identity <= 1e-12", worst <= 1e-12))

    failures = [name for name, good in ok if not good]
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion 6: determinism and contracts "
          f"({len(ok) - len(failures)}/{len(ok)} checks)")
    assert not failures, failures
