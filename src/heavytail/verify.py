"""Verification suites: Monte Carlo checks of the limit identities at desk scale.

Each suite is ``suite(cfg, workers)``: it reads every sample size from the
config and emits named checks (estimate, target, stderr, tolerance rule,
pass/fail).  Monte Carlo work is cut into chunks of a fixed size, each
drawing from its own stream derived from the master seed by counter, and
joined in chunk order; ``workers`` threads only schedule the chunks, so a
report is a deterministic function of (config, seed).  The time-change suite
draws two such streams, backward (2, 1) windows on tag 1000 and forward (0, 2)
windows on tag 1001: the checks of one side share its n draws.
"""

from __future__ import annotations

import itertools
import platform
from dataclasses import dataclass

import numpy as np

from . import __version__
from .estimate import (
    _shared_worker_pool,
    _worker_pool,
    big_jump_paired,
    blocks_extremal_index,
    collect_exceedances,
    empirical_spectral_stat,
    empirical_tail_dependence,
    hill_alpha,
)
from .rv import Atomic, RegVarDist
from .spaces import DenseOp, DomainError, max_norm
from .spectral import (
    PushforwardAngle,
    _mean_with_se,
    _time_change_integrands,
    limit_measure_samples,
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

# Big-jump draws, whatever the config's n_samples: each conditional draw
# integrates every lag's radius exactly, so 2^14 of them give every preset's
# tail ratios a stderr under 0.1% of the target, far inside their 10% band.
_BIG_JUMP_DRAWS = 1 << 14


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


def _check_rel(name, estimate, target, rel, se):
    return Check(
        name, float(estimate), float(target), float(se),
        f"rel_err <= {rel}", bool(abs(estimate - target) <= rel * abs(target)),
    )


def _mc_values(task, n, workers, seed, tag):
    """Stack task(k, rng) values over chunks of ``_MC_CHUNK`` rows (the last
    one ragged), in chunk order, each written into one (n, ...) result as it
    arrives.  Chunk i draws from stream [seed, tag, i]; ``workers`` only sets
    how many chunks run at once."""
    starts = range(0, n, _MC_CHUNK)

    def run(i):
        rng = np.random.default_rng([int(seed), int(tag), i])
        return np.asarray(task(min(_MC_CHUNK, n - starts[i]), rng), dtype=float)

    out = None
    with _worker_pool(workers) as pool:
        for start, block in zip(starts, pool.map(run, range(len(starts)))):
            if out is None:
                out = np.empty((n,) + block.shape[1:])
            out[start:start + len(block)] = block
    return out


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


def suite_time_change(cfg, workers=1):
    """Backward-window expectations against their forward-window tilted form,
    plus the degenerate-past identity Pr(Theta_{-s} != 0) = E ||Theta_s||^alpha.

    Backward (2, 1) windows on tag 1000 give every left-hand side and forward
    (0, 2) windows on tag 1001 every right-hand side: a side's checks share
    its draws, and each check still has n per side."""
    sampler = cfg.window_sampler()
    alpha = cfg.alpha
    battery = _tc_battery(sampler.space, 1, 1, alpha)
    fs = [f for _, f in battery]

    def backward(k, rng):
        wb = sampler.sample(k, 2, 1, rng)
        return np.column_stack([f(wb) for f in fs] + [wb.norm_at(-1) > 0, wb.norm_at(-2) > 0])

    def forward(k, rng):
        wb = sampler.sample(k, 0, 2, rng)
        return np.column_stack([_time_change_integrands(wb, fs, 1, alpha),
                                wb.norm_at(1) ** alpha, wb.norm_at(2) ** alpha])

    lhs = _mc_values(backward, cfg.n_samples, workers, cfg.seed, 1000)
    rhs = _mc_values(forward, cfg.n_samples, workers, cfg.seed, 1001)
    names = [f"time_change[{label},s=1,t=1]" for label, _ in battery]
    names += [f"degenerate_past[s={s}]" for s in (1, 2)]
    checks = []
    for j, name in enumerate(names):
        (lm, ls), (rm, rs) = _mean_with_se(lhs[:, j]), _mean_with_se(rhs[:, j])
        checks.append(_check_3se(name, lm, rm, ls, rs))
    return checks


# ---------------------------------------------------------------------------
# mixture suite


def _canonical_tilt_example(alpha):
    """Fixed discrete pushforward case with distinct image atoms."""
    space = max_norm(2)
    points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    weights = np.array([0.5, 0.3, 0.2])
    operator = DenseOp(np.diag([1.0, 0.5]))
    images = operator.apply(points)
    norms = space.norm(images)
    tilted = weights * norms**alpha
    tilted /= tilted.sum()
    return space, points, weights, operator, images / norms[:, None], tilted


def suite_mixture(cfg, workers=1):
    """Mixture origin frequencies against p_n, which the sampler does not read
    (a Monte Carlo p_n enters with its stderr), and the rejection pushforward
    against an exact conditional-tilt oracle on a discrete angle law."""
    sampler = cfg.window_sampler()
    n = cfg.n_samples
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
        checks.append(_check_3se(f"origin_freq[lag={lag}]", freq, p, se, consts.p_stderr[i]))

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


def suite_big_jump(cfg, workers=1):
    """Tail ratios of finite operator sums against sum(c_n), and the paired
    single-big-jump discrepancy shrinking with the threshold.

    The threshold sits at the 1e-4 marginal tail, and the far one at 10 times
    it.  ``big_jump_paired`` estimates all three quantities by conditional
    Monte Carlo over ``_BIG_JUMP_DRAWS`` draws.  Every check records its
    stderr (the discrepancy check the paired stderr of the drop); the tail
    ratios pass or fail on the fixed 10% band alone, and the discrepancy check
    on the sign of the drop.
    """
    innov = cfg.innovation()
    fam = cfg.family()
    try:
        x = cfg.data["innovation"]["scale"] * (1e-4) ** (-1.0 / cfg.alpha)
    except OverflowError:
        raise DomainError(
            f"the big-jump threshold overflows float64 at alpha={cfg.alpha:g}") from None
    rng = np.random.default_rng([cfg.seed, 3000])
    near, far = big_jump_paired(fam, innov, [x, 10 * x], _BIG_JUMP_DRAWS, rng, workers=workers)
    checks = [
        _check_rel("big_jump_ratio_sum_norm", near.ratio_sum_norm, near.target, 0.10,
                   near.stderr_sum_norm),
        _check_rel("big_jump_ratio_norm_sum", near.ratio_norm_sum, near.target, 0.10,
                   near.stderr_norm_sum),
        Check(
            "big_jump_discrepancy_decreasing",
            far.discrepancy,
            near.discrepancy,
            near.stderr_discrepancy_drop,
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


def suite_empirical(cfg, workers=1):
    """Path estimators against closed forms / window-sampler targets.

    The path has the config's length and the threshold is the
    ``_EMPIRICAL_QUANTILE`` quantile of its norms; extremal-index blocks are
    at least 50 steps and twice the family extent.

    Conditional spectral statistics at a finite threshold carry a small
    bias that does not shrink with the path length (the threshold is a
    fixed quantile); ``_SPECTRAL_STAT_FLOOR`` is the absolute allowance for
    it on top of the 3-sigma band.  Models whose window statistics are
    near-deterministic (AR(1), lagged sequence space) need it.
    """
    n = cfg.n_samples
    path = cfg.simulate()
    u = float(np.quantile(path.norms(), _EMPIRICAL_QUANTILE))
    block_len = max(50, 2 * int(path.meta.get("family_extent", 0) or 1))
    checks = []
    tags = itertools.count(4000)
    boot_rng = np.random.default_rng([cfg.seed, 4900])

    sampler = cfg.window_sampler()
    alpha = cfg.alpha

    if path.dim == 1:
        est = empirical_tail_dependence(path, u, 1, rng=boot_rng)
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


def suite_limit_measure(cfg, workers=1):
    """Single-lag masses r^(-alpha) and two-lag homogeneity of the limit measure."""
    sampler = cfg.window_sampler()
    alpha = cfg.alpha
    n = cfg.n_samples
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


def run_suite(cfg, suite, workers=1):
    """Checks of one suite, or of every suite in ``SUITES`` order for "all".

    Every size comes from the config; ``workers`` only schedules.  One pool
    of ``workers`` threads serves the whole call (every ``_mc_values`` pass
    and ``big_jump_paired``), and it is shut down before the call returns,
    so no thread outlives it.
    """
    if suite != "all" and suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    with _shared_worker_pool(workers):
        return [c for name in names for c in SUITES[name](cfg, workers=workers)]


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
            },
        },
    }


def report_json(report):
    import json

    return json.dumps(report, indent=2) + "\n"
