"""Verification suites: Monte Carlo checks of the limit identities at desk scale.

Each suite takes a run config and emits named checks (estimate, target,
stderr, tolerance rule, pass/fail).  Monte Carlo work is cut into chunks of
a fixed size, each drawing from its own stream derived from the master seed
by counter, and joined in chunk order; ``workers`` threads only schedule the
chunks, so a report is a deterministic function of (config, seed).
"""

from __future__ import annotations

import itertools
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .estimate import (
    big_jump_paired,
    blocks_extremal_index,
    collect_exceedances,
    empirical_spectral_stat,
    empirical_tail_dependence,
    hill_alpha,
)
from .rv import Atomic, RegVarDist
from .spaces import DiagonalOp, max_norm
from .spectral import (
    PushforwardAngle,
    _mean_with_se,
    limit_measure_samples,
    time_change_rhs_samples,
)
from .summaries import _ratio_with_se

__all__ = ["Check", "SUITES", "run_suite", "build_report", "report_json"]

_EXACT_FLOOR = 1e-12

# Path-norm quantile used as the exceedance threshold by the empirical suite.
_EMPIRICAL_QUANTILE = 0.999

# Absolute allowance for the finite-threshold bias of the empirical suite's
# conditional spectral statistic, on top of its 3-sigma band.
_SPECTRAL_STAT_FLOOR = 0.01

# Rows per Monte Carlo chunk: the unit of randomness of ``_mc_values``.
_MC_CHUNK = 1 << 15


@dataclass(frozen=True)
class Check:
    name: str
    estimate: float
    target: float
    stderr: float
    tolerance_rule: str
    passed: bool


def _check_3se(name, estimate, target, se_est, se_target=0.0):
    se = float(np.sqrt(se_est**2 + se_target**2))
    tol = max(3.0 * se, _EXACT_FLOOR)
    return Check(
        name, float(estimate), float(target), se,
        "abs_err <= max(3*se, 1e-12)", bool(abs(estimate - target) <= tol),
    )


def _check_abs(name, estimate, target, tol):
    return Check(
        name, float(estimate), float(target), 0.0,
        f"abs_err <= {tol}", bool(abs(estimate - target) <= tol),
    )


def _check_rel(name, estimate, target, rel):
    return Check(
        name, float(estimate), float(target), 0.0,
        f"rel_err <= {rel}", bool(abs(estimate - target) <= rel * abs(target)),
    )


def _mc_values(task, n, workers, seed, tag):
    """Concatenate task(k, rng) values over chunks of ``_MC_CHUNK`` rows (the
    last one ragged), in chunk order.  Chunk i draws from stream
    [seed, tag, i]; ``workers`` only sets how many chunks run at once."""
    sizes = [min(_MC_CHUNK, n - start) for start in range(0, n, _MC_CHUNK)]

    def run(i):
        rng = np.random.default_rng([int(seed), int(tag), i])
        return np.asarray(task(sizes[i], rng), dtype=float)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run, range(len(sizes)))))


# ---------------------------------------------------------------------------
# time-change suite


def _tc_battery(space, s, t, alpha):
    def lead_clip(wb):
        return np.minimum(wb.norm_at(-s) ** alpha, 1.0)

    def lead_clip_times_fwd(wb):
        return np.minimum(wb.norm_at(-s) ** alpha, 1.0) * np.minimum(wb.norm_at(t), 1.0)

    def lead_indicator_times_fwd(wb):
        return (wb.norm_at(-s) > 0.2) * np.minimum(wb.norm_at(t), 1.0)

    return [
        ("clip_lead", lead_clip),
        ("clip_lead_x_clip_fwd", lead_clip_times_fwd),
        ("ind_lead_x_clip_fwd", lead_indicator_times_fwd),
    ]


def suite_time_change(cfg, workers=1, n=None):
    """Backward-window expectations against their forward-window tilted form,
    plus the degenerate-past identity Pr(Theta_{-s} != 0) = E ||Theta_s||^alpha."""
    sampler = cfg.window_sampler()
    alpha = cfg.alpha
    n = n or cfg.n_samples
    tags = itertools.count(1000)
    checks = []
    s, t = 1, 1
    for label, f in _tc_battery(sampler.space, s, t, alpha):
        lhs = _mc_values(
            lambda k, rng: f(sampler.sample(k, s, t, rng)), n, workers, cfg.seed, next(tags)
        )
        rhs = _mc_values(
            lambda k, rng: time_change_rhs_samples(sampler, f, s, t, k, rng),
            n, workers, cfg.seed, next(tags),
        )
        (lm, ls), (rm, rs) = _mean_with_se(lhs), _mean_with_se(rhs)
        checks.append(_check_3se(f"time_change[{label},s={s},t={t}]", lm, rm, ls, rs))
    for s_lag in (1, 2):
        lhs = _mc_values(
            lambda k, rng: (sampler.sample(k, s_lag, 0, rng).norm_at(-s_lag) > 0).astype(float),
            n, workers, cfg.seed, next(tags),
        )
        rhs = _mc_values(
            lambda k, rng: sampler.sample(k, 0, s_lag, rng).norm_at(s_lag) ** alpha,
            n, workers, cfg.seed, next(tags),
        )
        (lm, ls), (rm, rs) = _mean_with_se(lhs), _mean_with_se(rhs)
        checks.append(_check_3se(f"degenerate_past[s={s_lag}]", lm, rm, ls, rs))
    return checks


# ---------------------------------------------------------------------------
# mixture suite


def _canonical_tilt_example(alpha):
    """Fixed discrete pushforward case with distinct image atoms."""
    space = max_norm(2)
    points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    weights = np.array([0.5, 0.3, 0.2])
    operator = DiagonalOp((1.0, 0.5))
    images = operator.apply(points)
    norms = space.norm(images)
    tilted = weights * norms**alpha
    tilted /= tilted.sum()
    return space, points, weights, operator, images / norms[:, None], tilted


def suite_mixture(cfg, workers=1, n=None):
    """Mixture origin frequencies against p_n, and the rejection pushforward
    against an exact conditional-tilt oracle on a discrete angle law."""
    sampler = cfg.window_sampler()
    n = n or cfg.n_samples
    tags = itertools.count(2000)
    checks = []

    consts = sampler.consts
    tag = next(tags)
    origins = _mc_values(
        lambda k, rng: sampler.sample(k, 0, 0, rng).origin.astype(float),
        n, workers, cfg.seed, tag,
    )
    for i, lag in enumerate(consts.indices):
        p = float(consts.p[i])
        if p < 10.0 / n:
            continue  # too rare to test at this sample size
        freq = float(np.mean(origins == lag))
        se = float(np.sqrt(p * (1 - p) / n))
        checks.append(_check_3se(f"origin_freq[lag={lag}]", freq, p, se))

    space, points, weights, operator, image_atoms, tilted = _canonical_tilt_example(cfg.alpha)
    base = RegVarDist(cfg.alpha, 1.0, Atomic(points, weights, space))
    push = PushforwardAngle(base, operator, space)

    def draw_labels(k, rng):
        draws = push.sample(k, rng)
        dists = np.max(np.abs(draws[:, None, :] - image_atoms[None, :, :]), axis=2)
        labels = np.argmin(dists, axis=1)
        if np.any(np.min(dists, axis=1) > 1e-9):
            raise RuntimeError("pushforward draw does not match any image atom")
        return labels.astype(float)

    labels = _mc_values(draw_labels, n, workers, cfg.seed, next(tags))
    freqs = np.array([np.mean(labels == i) for i in range(len(tilted))])
    tv = 0.5 * float(np.sum(np.abs(freqs - tilted)))
    checks.append(_check_abs("pushforward_tilt_tv", tv, 0.0, 0.01))
    return checks


# ---------------------------------------------------------------------------
# big-jump suite


def suite_big_jump(cfg, workers=1, n=None):
    """Tail ratios of finite operator sums against sum(c_n), and the paired
    single-big-jump discrepancy shrinking with the threshold.

    The threshold sits at the 1e-4 marginal tail, so the default sample
    size is large enough to put the relative noise of the tail-ratio
    counts well inside the 10% tolerance.
    """
    n = n or max(cfg.n_samples, 4 * 10**6)
    innov = cfg.innovation()
    fam = cfg.family()
    x = cfg.data["innovation"]["scale"] * (1e-4) ** (-1.0 / cfg.alpha)
    rng = np.random.default_rng([cfg.seed, 3000])
    near, far = big_jump_paired(fam, innov, [x, 10 * x], n, rng, workers=workers)
    checks = [
        _check_rel("big_jump_ratio_sum_norm", near.ratio_sum_norm, near.target, 0.10),
        _check_rel("big_jump_ratio_norm_sum", near.ratio_norm_sum, near.target, 0.10),
        Check(
            "big_jump_discrepancy_decreasing",
            far.discrepancy,
            near.discrepancy,
            0.0,
            "est < target, or both <= 1e-12",
            bool(
                far.discrepancy < near.discrepancy
                or (far.discrepancy <= _EXACT_FLOOR and near.discrepancy <= _EXACT_FLOOR)
            ),
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# empirical-vs-closed suite


def _closed_tail_dep(cfg, h):
    specials = cfg.ma_specials()
    if specials is not None:
        return specials.tail_dep(h)
    model = cfg.data["model"]
    angle = cfg.data["innovation"]["angle"]
    if (
        model["type"] == "ar1"
        and model["operator"]["kind"] == "scalar"
        and angle["kind"] == "rademacher"
        and angle["p_plus"] == 1.0
        and model["operator"]["a"] > 0
    ):
        return model["operator"]["a"] ** (h * cfg.alpha)
    return None


def suite_empirical(cfg, workers=1, n=None, path_length=None):
    """Path estimators against closed forms / window-sampler targets.

    The threshold is the ``_EMPIRICAL_QUANTILE`` quantile of the path norms;
    extremal-index blocks are at least 50 steps and twice the family extent.

    Conditional spectral statistics at a finite threshold carry a small
    bias that does not shrink with the path length (the threshold is a
    fixed quantile); ``_SPECTRAL_STAT_FLOOR`` is the absolute allowance for
    it on top of the 3-sigma band.  Models whose window statistics are
    near-deterministic (AR(1), lagged sequence space) need it.
    """
    n = n or cfg.n_samples
    path = cfg.simulate(length=path_length)
    u = float(np.quantile(path.norms(), _EMPIRICAL_QUANTILE))
    block_len = max(50, 2 * int(path.meta.get("family_extent", 0) or 1))
    checks = []
    tags = itertools.count(4000)
    boot_rng = np.random.default_rng([cfg.seed, 4900])

    sampler = cfg.window_sampler()
    alpha = cfg.alpha

    if path.dim == 1:
        est = empirical_tail_dependence(path, u, 1, mode="functional", rng=boot_rng)
        target = _closed_tail_dep(cfg, 1)
        if target is not None:
            checks.append(_check_abs("empirical_tail_dep[h=1]", est.value, target, 0.05))
        else:

            def dual_td(k, rng):
                wb = sampler.sample(k, 0, 1, rng)
                x0 = np.maximum(wb.slot(0)[:, 0], 0.0) ** alpha
                x1 = np.maximum(wb.slot(1)[:, 0], 0.0) ** alpha
                return np.column_stack([np.minimum(x0, x1), x0])

            pairs = _mc_values(dual_td, n, workers, cfg.seed, next(tags))
            tm, ts = _ratio_with_se(pairs[:, 0], pairs[:, 1])
            checks.append(
                _check_3se("empirical_tail_dep[h=1]", est.value, tm, est.stderr, ts)
            )

    theta_closed = cfg.closed_norm_extremal_index()
    blk = blocks_extremal_index(path, u, block_len, rng=boot_rng)
    if theta_closed is not None:
        checks.append(_check_abs("blocks_extremal_index", blk.value, theta_closed, 0.05))
    else:
        horizon = path.meta.get("family_extent", 0) or sampler.backward_extent

        def theta_vals(k, rng):
            wb = sampler.sample(k, 0, int(horizon), rng)
            sup1 = np.max(wb.norms()[:, 1:] ** alpha, axis=1, initial=0.0)  # sup {} = 0
            return np.maximum(1.0, sup1) - sup1

        vals = _mc_values(theta_vals, n, workers, cfg.seed, next(tags))
        tm, ts = _mean_with_se(vals)
        checks.append(
            _check_3se("blocks_extremal_index", blk.value, tm, blk.stderr, ts)
        )

    exc = collect_exceedances(path, u, 0, 1)

    def stat(wb):
        return np.minimum(wb.norm_at(1) ** alpha, 1.0)

    emp = empirical_spectral_stat(exc, stat, rng=boot_rng)
    target_vals = _mc_values(
        lambda k, rng: stat(sampler.sample(k, 0, 1, rng)), n, workers, cfg.seed, next(tags)
    )
    tm, ts = _mean_with_se(target_vals)
    se = float(np.sqrt(emp.stderr**2 + ts**2))
    tol = max(3.0 * se, _SPECTRAL_STAT_FLOOR, _EXACT_FLOOR)
    checks.append(
        Check(
            "empirical_spectral_stat[min_norm1]", emp.value, tm, se,
            f"abs_err <= max(3*se, {_SPECTRAL_STAT_FLOOR:g})",
            bool(abs(emp.value - tm) <= tol),
        )
    )

    if cfg.model_type == "iid":
        k = max(100, len(path) // 1000)
        hill = hill_alpha(path, k)
        checks.append(_check_3se("hill_alpha", hill.value, cfg.alpha, hill.stderr))
    return checks


# ---------------------------------------------------------------------------
# limit-measure suite


def suite_limit_measure(cfg, workers=1, n=None):
    """Single-lag masses r^(-alpha) and two-lag homogeneity of the limit measure."""
    sampler = cfg.window_sampler()
    alpha = cfg.alpha
    n = n or cfg.n_samples
    tags = itertools.count(5000)
    checks = []
    for r in (1.0, 2.0, 4.0):
        vals = _mc_values(
            lambda k, rng, r=r: limit_measure_samples(sampler, 1, (r,), k, rng),
            n, workers, cfg.seed, next(tags),
        )
        m, se = _mean_with_se(vals)
        checks.append(_check_3se(f"limit_measure_k1[r={r:g}]", m, r**-alpha, se))
    v1 = _mc_values(
        lambda k, rng: limit_measure_samples(sampler, 2, (1.0, 1.0), k, rng),
        n, workers, cfg.seed, next(tags),
    )
    v2 = _mc_values(
        lambda k, rng: limit_measure_samples(sampler, 2, (2.0, 2.0), k, rng),
        n, workers, cfg.seed, next(tags),
    )
    (m1, s1), (m2, s2) = _mean_with_se(v1), _mean_with_se(v2)
    scale = 2.0**alpha
    checks.append(
        _check_3se("limit_measure_k2_homogeneity", scale * m2, m1, scale * s2, s1)
    )
    return checks


SUITES = {
    "time-change": suite_time_change,
    "mixture": suite_mixture,
    "big-jump": suite_big_jump,
    "empirical-vs-closed": suite_empirical,
    "limit-measure": suite_limit_measure,
}


def run_suite(cfg, suite, workers=1, **kwargs):
    if suite == "all":
        # each suite derives its own scale from the config; a blanket n
        # would be wrong for the big-jump counts
        checks = []
        for name in SUITES:
            checks.extend(SUITES[name](cfg, workers=workers))
        return checks
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return SUITES[suite](cfg, workers=workers, **kwargs)


def build_report(checks, cfg, suite):
    """Report dict with stable key order; bytes depend only on (config, seed)."""
    return {
        "suite": suite,
        "checks": [
            {
                "name": c.name,
                "estimate": c.estimate,
                "target": c.target,
                "stderr": c.stderr,
                "tolerance_rule": c.tolerance_rule,
                "pass": c.passed,
            }
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
        "environment": {
            "seed": cfg.seed,
            "version": __version__,
            "runtime": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        },
    }


def report_json(report):
    import json

    return json.dumps(report, indent=2) + "\n"
