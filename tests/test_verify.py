import pathlib
import threading

import numpy as np
import pytest

from heavytail import estimate, verify
from heavytail.config import list_presets, load_config
from heavytail.estimate import empirical_tail_dependence, threshold_sweep
from heavytail.spectral import limit_measure_samples, time_change_rhs_samples
from heavytail.verify import (
    build_report,
    report_json,
    run_suite,
    suite_big_jump,
    suite_empirical,
    suite_limit_measure,
    suite_mixture,
    suite_time_change,
)
from test_spectral import _FixedBatch, _bits

FAST = {"mc": {"n_samples": 20_000}}


@pytest.mark.parametrize("preset", list_presets())
def test_time_change_suite_all_presets(preset):
    cfg = load_config(preset, FAST)
    checks = suite_time_change(cfg)
    assert len(checks) >= 3
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


@pytest.mark.xfail(strict=True, reason="AR1Spectral drops the mixture mass past its horizon, "
                   "a**(alpha*(h+1)) = 0.42 here (ROADMAP open item 1)")
def test_time_change_suite_weak_scalar_ar1():
    cfg = load_config("ar1_scalar", {"model": {"type": "ar1", "horizon": 16,
                                               "operator": {"kind": "scalar", "a": 0.95}}})
    checks = {c.name: c for c in suite_time_change(cfg)}
    assert checks["degenerate_past[s=1]"].passed, checks["degenerate_past[s=1]"]


class _ShapeBatches:
    """A window sampler that returns one prepared batch per window shape."""

    def __init__(self, batches, sampler):
        self.batches, self.alpha, self.space = batches, sampler.alpha, sampler.space

    def sample(self, n, back, fwd, rng):
        return self.batches[back, fwd]


@pytest.mark.parametrize("source", ["ma2", "seqspace", "dense_sphere"])
def test_time_change_suite_columns_share_one_batch_per_side(source, monkeypatch):
    cfg = load_config(DENSE_SPHERE if source == "dense_sphere" else source, FAST)
    sampler = cfg.window_sampler()
    bwd = sampler.sample(5000, 2, 1, np.random.default_rng(60))
    fwd = sampler.sample(5000, 0, 2, np.random.default_rng(61))
    assert (bwd.coord is not None) == (fwd.coord is not None) == (source == "seqspace")
    monkeypatch.setattr(cfg, "window_sampler", lambda: _ShapeBatches({(2, 1): bwd, (0, 2): fwd},
                                                                     sampler))
    columns = {}

    def capture(task, n, workers, seed, tag):
        columns[tag] = np.asarray(task(n, None), dtype=float)
        return columns[tag]

    monkeypatch.setattr(verify, "_mc_values", capture)
    checks = suite_time_change(cfg)
    assert [c.name for c in checks] == [
        "time_change[clip_lead,s=1,t=1]", "time_change[clip_lead_x_clip_fwd,s=1,t=1]",
        "time_change[ind_lead_x_clip_fwd,s=1,t=1]", "degenerate_past[s=1]",
        "degenerate_past[s=2]",
    ]
    lhs, rhs = columns.pop(1000), columns.pop(1001)
    assert not columns and lhs.shape == rhs.shape == (5000, 5)
    alpha = sampler.alpha
    for j, (label, f) in enumerate(verify._tc_battery(sampler.space, 1, 1, alpha)):
        assert _bits(lhs[:, j]) == _bits(np.asarray(f(bwd), dtype=float)), label
        want = time_change_rhs_samples(_FixedBatch(fwd, alpha), f, 1, 1, 5000, None)
        assert _bits(rhs[:, j]) == _bits(want), label
    for j, s in ((3, 1), (4, 2)):
        assert _bits(lhs[:, j]) == _bits((bwd.norm_at(-s) > 0).astype(float))
        assert _bits(rhs[:, j]) == _bits(fwd.norm_at(s) ** alpha)


@pytest.mark.parametrize("preset", list_presets())
def test_mixture_suite_all_presets(preset):
    cfg = load_config(preset, FAST)
    checks = suite_mixture(cfg)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


DENSE_SPHERE = {
    "version": 1, "alpha": 1.5, "seed": 7,
    "norm": {"kind": "lp", "dim": 3, "p": 2},
    "innovation": {"scale": 1.0, "angle": {"kind": "sphere_uniform"}},
    "model": {"type": "linear_ops", "operators": [
        {"index": 0, "op": {"kind": "dense", "matrix": [
            [1.0, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.6]]}},
        {"index": 1, "op": {"kind": "dense", "matrix": [
            [0.5, -0.3, 0.2], [0.1, 0.4, 0.0], [0.0, 0.2, -0.5]]}},
    ]},
    "mc": {"n_samples": 20_000},
    "path": {"length": 20000, "burn_in": 1, "truncation": 1},
}


@pytest.mark.parametrize("source", ["ma3_positive", DENSE_SPHERE], ids=["closed", "mc"])
def test_origin_freq_stderr_adds_the_monte_carlo_error_of_p(source):
    cfg = load_config(source, FAST)
    consts = cfg.window_sampler().consts
    checks = {c.name: c for c in suite_mixture(cfg)}
    n = cfg.n_samples
    for i, lag in enumerate(consts.indices):
        p, p_se = consts.p[i], consts.p_stderr[i]
        assert (p_se > 0) == (source is DENSE_SPHERE)
        check = checks[f"origin_freq[lag={lag}]"]
        assert check.passed and check.target == p
        assert check.stderr == pytest.approx(np.hypot(np.sqrt(p * (1 - p) / n), p_se),
                                             rel=1e-12)


DENSE_AR1 = str(pathlib.Path(__file__).resolve().parents[1] / "bench" / "configs" / "dense_ar1.json")


def _assert_big_jump_passes(checks):
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    drop = checks[2]
    assert drop.name == "big_jump_discrepancy_decreasing"
    assert drop.target - drop.estimate >= 5 * drop.stderr


@pytest.mark.parametrize("preset", [*list_presets(), DENSE_AR1],
                         ids=[*list_presets(), "dense_ar1"])
def test_big_jump_suite_finite_presets(preset):
    cfg = load_config(preset)
    checks = suite_big_jump(cfg, workers=1)
    _assert_big_jump_passes(checks)
    assert suite_big_jump(cfg, workers=2) == checks


@pytest.mark.parametrize("offset", [49, 57, 64])
def test_big_jump_suite_at_bench_seeds(offset):
    # plain Monte Carlo failed these seeds of ar1_scalar on correct code
    cfg = load_config("ar1_scalar")
    cfg = load_config("ar1_scalar", {"seed": cfg.seed + offset})
    _assert_big_jump_passes(suite_big_jump(cfg, workers=2))


@pytest.mark.parametrize("preset", list_presets())
def test_empirical_suite_all_presets(preset):
    # reduced path length; the estimator battery against closed-form /
    # window-sampler targets for every shipped preset
    cfg = load_config(preset, {**FAST, "path": {"length": 500_000}})
    checks = suite_empirical(cfg)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


@pytest.mark.parametrize("preset", list_presets())
def test_limit_measure_suite_all_presets(preset):
    cfg = load_config(preset, FAST)
    checks = suite_limit_measure(cfg)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


@pytest.mark.parametrize("preset", [*list_presets(), DENSE_AR1],
                         ids=[*list_presets(), "dense_ar1"])
def test_limit_measure_values_are_identities_of_the_radial_evaluator(preset):
    # Per window, a one-lag value is r^-alpha (as ||Theta_0|| = 1) and 2^alpha f(2, 2)
    # is f(1, 1) on the same stream, up to rounding: the suite's k1 and k2 checks
    # hold for whatever windows the sampler draws.
    cfg = load_config(preset)
    sampler, alpha, n = cfg.window_sampler(), cfg.alpha, 4096
    tol = 4 * np.finfo(float).eps
    for r in (1.0, 2.0, 4.0):
        vals = limit_measure_samples(sampler, 1, (r,), n, np.random.default_rng(5))
        np.testing.assert_allclose(vals, np.full(n, r**-alpha), rtol=tol, atol=0)
    f11 = limit_measure_samples(sampler, 2, (1.0, 1.0), n, np.random.default_rng(6))
    f22 = limit_measure_samples(sampler, 2, (2.0, 2.0), n, np.random.default_rng(6))
    assert np.array_equal(f11 == 0, f22 == 0)
    np.testing.assert_allclose(2.0**alpha * f22, f11, rtol=tol, atol=0)


def test_run_suite_all_on_iid():
    cfg = load_config("iid", FAST)
    checks = run_suite(cfg, "all", workers=1)
    assert all(c.passed for c in checks)
    report = build_report(checks, cfg, "all")
    assert report["all_passed"] is True


def test_run_suite_runs_on_one_pool_that_it_shuts_down(monkeypatch):
    pools = []

    class CountedPool(estimate.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimate, "ThreadPoolExecutor", CountedPool)
    cfg = load_config("ma2", FAST)
    before = threading.active_count()
    checks = {}
    for workers in (1, 3):
        checks[workers] = run_suite(cfg, "all", workers=workers)
        assert threading.active_count() == before
        assert len(pools) == 1
        pools.clear()
    assert checks[1] == checks[3]
    # a suite called on its own still makes, and joins, its own pools
    suite_big_jump(cfg, workers=2)
    assert len(pools) == 1 and threading.active_count() == before


def test_worker_count_is_deterministic(monkeypatch):
    # 20000 rows in chunks of 6000: three full chunks and a ragged one of 2000;
    # seqspace's time-change suite runs on axis-form window batches
    monkeypatch.setattr(verify, "_MC_CHUNK", 6000)
    for preset, suite, path in (("ma2", "time-change", {}), ("ma2", "mixture", {}),
                                ("ma2", "empirical-vs-closed", {"path": {"length": 200_000}}),
                                ("ma2", "limit-measure", {}),
                                ("seqspace", "time-change", {})):
        cfg = load_config(preset, {**FAST, **path})
        reports = {
            report_json(build_report(run_suite(cfg, suite, workers=w), cfg, suite))
            for w in (1, 2, 3)
        }
        assert len(reports) == 1, (preset, suite)


def test_mc_values_chunk_sizes():
    def task(k, rng):
        return rng.standard_normal(k)

    c = verify._MC_CHUNK
    for n in (c // 3, c, c + 1):
        values = verify._mc_values(task, n, 1, 7, 1)
        assert values.shape == (n,)
        np.testing.assert_array_equal(verify._mc_values(task, n, 3, 7, 1), values)
    # the ragged last chunk draws from its own stream [seed, tag, chunk index]
    assert values[c] == np.random.default_rng([7, 1, 1]).standard_normal(1)[0]


@pytest.mark.parametrize("cols", [None, 1, 4])
def test_mc_values_fills_the_bytes_of_the_concatenation(cols, monkeypatch):
    # 3500 rows in chunks of 1000: three full chunks and a ragged one of 500
    monkeypatch.setattr(verify, "_MC_CHUNK", 1000)
    shape = () if cols is None else (cols,)

    def task(k, rng):
        return rng.standard_normal((k, *shape))

    n, sizes = 3500, [1000, 1000, 1000, 500]
    want = np.concatenate([task(k, np.random.default_rng([7, 3, i])) for i, k in enumerate(sizes)])
    for workers in (1, 3):
        got = verify._mc_values(task, n, workers, 7, 3)
        assert got.shape == want.shape == (n, *shape) and got.dtype == np.float64
        assert _bits(got) == _bits(want), workers


def test_acceptance_rate_diagnostics():
    for preset in ("ma2", "ar1_scalar", "seqspace"):
        sampler = load_config(preset).window_sampler()
        rates = sampler.acceptance_rates()
        assert rates and all(0.0 < r <= 1.0 + 1e-12 for r in rates.values())
        # scalar/embedding families are isometries: acceptance is exactly 1
        assert all(r == pytest.approx(1.0) for r in rates.values())


def test_threshold_sweep_converges():
    path = load_config("ma2", {"path": {"length": 2_000_000}}).simulate()
    rows = threshold_sweep(
        path, lambda p, u: empirical_tail_dependence(p, u, 1),
        quantiles=(0.99, 0.999),
    )
    assert rows[0][1] < rows[1][1]  # thresholds increase with the quantile
    # finite-threshold estimate approaches the 0.5 limit as u grows
    assert abs(rows[1][2].value - 0.5) <= abs(rows[0][2].value - 0.5) + 0.02
