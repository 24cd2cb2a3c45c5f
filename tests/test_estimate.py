import sys

import numpy as np
import pytest
from scipy.integrate import quad

from heavytail import estimate
from heavytail.config import load_config
from heavytail.estimate import (
    BigJumpResult,
    EstimationError,
    big_jump_paired,
    blocks_extremal_index,
    collect_exceedances,
    empirical_spectral_stat,
    empirical_tail_dependence,
    hill_alpha,
)
from heavytail.rv import Rademacher, RegVarDist, SphereUniform
from heavytail.simulate import Path, PathConfig, simulate_ar1, simulate_linear
from heavytail.spaces import (
    DenseOp,
    DomainError,
    EmbeddingOp,
    ScalarOp,
    max_norm,
    weighted_l1_norm,
)
from heavytail.spectral import (
    OperatorFamily,
    family_from_coeffs,
    sequence_space_family,
    series_constants,
)

R1 = max_norm(1)
POS1 = RegVarDist(1.0, 1.0, Rademacher(1.0))


def make_path(coeffs, alpha=1.0, length=10**6, seed=100, p_plus=1.0):
    innov = RegVarDist(alpha, 1.0, Rademacher(p_plus))
    fam = family_from_coeffs(list(coeffs), alpha, R1)
    burn = len(coeffs) - 1
    return simulate_linear(fam, innov, PathConfig(length, burn, burn, seed))


# ---------------------------------------------------------------------------
# exceedance collection


def test_collect_exceedances_threshold_extremes():
    path = make_path([1.0], length=10_000, seed=1)
    norms = path.norms()
    low = np.median(norms) * 1.0001
    exc = collect_exceedances(path, low, 1, 1)
    interior = (norms[1:-1] > low).sum()
    assert len(exc) == interior
    with pytest.raises(DomainError):
        collect_exceedances(path, np.median(norms) / 2, 1, 1)
    none = collect_exceedances(path, norms.max() + 1, 1, 1)
    assert len(none) == 0


def test_collect_exceedances_iid_count():
    path = make_path([1.0], length=10**6, seed=2)
    u = float(np.quantile(path.norms(), 0.999))
    exc = collect_exceedances(path, u, 0, 0)
    assert abs(len(exc) - 1000) < 3 * np.sqrt(1000)


def test_collect_exceedances_nested_thresholds():
    path = make_path([1.0, 1.0], length=100_000, seed=3)
    u = float(np.quantile(path.norms(), 0.99))
    a = collect_exceedances(path, u, 1, 1)
    b = collect_exceedances(path, 2 * u, 1, 1)
    assert set(b.anchors).issubset(set(a.anchors))


def test_collect_exceedances_normalization():
    path = make_path([1.0, 1.0], length=50_000, seed=4)
    u = float(np.quantile(path.norms(), 0.999))
    exc = collect_exceedances(path, u, 1, 1)
    np.testing.assert_allclose(exc.windows.norm_at(0), 1.0)


# ---------------------------------------------------------------------------
# conditional spectral statistics


def test_empirical_spectral_stat_constants():
    path = make_path([1.0, 1.0], length=100_000, seed=5)
    u = float(np.quantile(path.norms(), 0.999))
    exc = collect_exceedances(path, u, 1, 1)
    ones = empirical_spectral_stat(exc, lambda wb: np.ones(len(wb)))
    assert ones.value == 1.0
    anchor_norm = empirical_spectral_stat(exc, lambda wb: wb.norm_at(0))
    assert anchor_norm.value == 1.0  # exact by normalization


def test_empirical_spectral_stat_ma2_target():
    # closed-form target: E min(||Theta_1||, 1) = 1/2
    path = make_path([1.0, 1.0], length=2_000_000, seed=6)
    u = float(np.quantile(path.norms(), 0.999))
    exc = collect_exceedances(path, u, 0, 1)
    est = empirical_spectral_stat(exc, lambda wb: np.minimum(wb.norm_at(1), 1.0))
    assert abs(est.value - 0.5) < 3 * est.stderr


def test_empirical_spectral_stat_empty():
    path = make_path([1.0], length=10_000, seed=7)
    exc = collect_exceedances(path, path.norms().max() + 1, 0, 0)
    with pytest.raises(EstimationError):
        empirical_spectral_stat(exc, lambda wb: np.ones(len(wb)))


# ---------------------------------------------------------------------------
# tail dependence / extremal index estimators


def test_empirical_tail_dependence_iid_and_lag_zero():
    path = make_path([1.0], length=10**6, seed=8)
    u = float(np.quantile(path.norms(), 0.999))
    res = empirical_tail_dependence(path, u, 1)
    assert res.value < 0.02
    res0 = empirical_tail_dependence(path, u, 0)
    assert res0.value == 1.0


def test_empirical_tail_dependence_ma2():
    path = make_path([1.0, 1.0], length=2_000_000, seed=9)
    u = float(np.quantile(path.norms(), 0.999))
    res = empirical_tail_dependence(path, u, 1)
    assert abs(res.value - 0.5) < 0.05


def test_blocks_extremal_index_iid():
    path = make_path([1.0], length=10**6, seed=10)
    u = float(np.quantile(path.norms(), 0.999))
    res = blocks_extremal_index(path, u, 50)
    assert abs(res.value - 1.0) < 0.05


def test_blocks_extremal_index_ma2_alpha2():
    path = make_path([1.0, 1.0], alpha=2.0, length=10**6, seed=11, p_plus=0.5)
    u = float(np.quantile(path.norms(), 0.999))
    res = blocks_extremal_index(path, u, 50)
    assert abs(res.value - 0.5) < 0.05  # sup a^2 / sum a^2


def test_blocks_extremal_index_ar1():
    path = simulate_ar1(ScalarOp(0.5, 1), POS1, PathConfig(10**6, 64, 64, seed=12))
    u = float(np.quantile(path.norms(), 0.999))
    res = blocks_extremal_index(path, u, 50)
    assert abs(res.value - 0.5) < 0.05  # 1 - 0.5


def test_runs_estimator_cross_check():
    path = make_path([1.0, 1.0], alpha=2.0, length=10**6, seed=13, p_plus=0.5)
    u = float(np.quantile(path.norms(), 0.999))
    runs = blocks_extremal_index(path, u, 50, method="runs", runs_gap=2)
    assert abs(runs.value - 0.5) < 0.05


def test_blocks_validates_block_length():
    path = make_path([1.0, 1.0], length=10_000, seed=14)
    u = float(np.quantile(path.norms(), 0.99))
    with pytest.raises(DomainError):
        blocks_extremal_index(path, u, 1)
    path.meta["family_extent"] = 40
    with pytest.raises(DomainError):
        blocks_extremal_index(path, u, 50)


# ---------------------------------------------------------------------------
# block bootstrap and the median guard, against the code they replaced


def _bootstrap_reference(anchor_times, per_anchor, block_len, n_boot, rng, stat):
    """One mask per block, and one concatenation of picked blocks per replicate."""
    ids = anchor_times // block_len
    blocks = [per_anchor[ids == b] for b in np.unique(ids)]
    if len(blocks) < 2:
        return float("nan")
    reps = np.empty(n_boot)
    nb = len(blocks)
    for r in range(n_boot):
        pick = rng.integers(0, nb, size=nb)
        stacked = np.concatenate([blocks[i] for i in pick], axis=0)
        reps[r] = stat(stacked)
    return float(np.std(reps, ddof=1))


@pytest.fixture(scope="module")
def bootstrap_inputs():
    """Per preset: (times, rows, block_len, stat) of the empirical tail
    dependence (a sum ratio) and of the conditional spectral statistic (a mean)."""
    inputs = {}
    for preset in ("ar1_scalar", "ma2"):
        cfg = load_config(preset)
        path = cfg.simulate()
        u = float(np.quantile(path.norms(), 0.999))
        score = path.values[:, 0]
        marg = score[:-1] > u
        joint = marg & (score[1:] > u)
        td_rows = np.column_stack([joint[marg], np.ones(int(marg.sum()))])
        exc = collect_exceedances(path, u, 0, 1)
        values = np.minimum(exc.windows.norm_at(1) ** cfg.alpha, 1.0)
        inputs[preset, "sum_ratio"] = (np.flatnonzero(marg), td_rows, 100,
                                       lambda v: v[:, 0].sum() / v[:, 1].sum())
        inputs[preset, "mean"] = (exc.anchors, values, 4, lambda v: v.mean())
    return inputs


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("preset", ["ar1_scalar", "ma2"])
@pytest.mark.parametrize("stat", ["sum_ratio", "mean"])
def test_block_bootstrap_equals_the_replicate_loop(bootstrap_inputs, preset, stat):
    times, rows, block_len, f = bootstrap_inputs[preset, stat]
    batch = estimate._BOOT_BATCH_ROWS // len(rows)
    assert batch > 2  # so the n_boot below give whole, ragged and partial batches
    shuffled = np.random.default_rng(5).permutation(len(rows))
    one_block = np.full(len(rows), 7 * block_len)
    two_blocks = np.where(np.arange(len(rows)) % 3, block_len, 0)
    for t, r in ((times, rows), (times[shuffled], rows[shuffled]),
                 (one_block, rows), (two_blocks, rows), (times[:40], rows[:40])):
        for n_boot in (200, 3 * batch + 1, 2):
            got = estimate._block_bootstrap_se(t, r, block_len, n_boot,
                                               np.random.default_rng(n_boot), f)
            want = _bootstrap_reference(t, r, block_len, n_boot,
                                        np.random.default_rng(n_boot), f)
            assert _same(got, want), (got, want)
    assert np.isnan(estimate._block_bootstrap_se(one_block, rows, block_len, 200,
                                                 np.random.default_rng(0), f))


@pytest.mark.parametrize("nb", [2, 1233, 1234, 20000])
def test_batched_block_picks_equal_successive_draws(nb):
    batched = np.random.default_rng(nb).integers(0, nb, size=(5, nb))
    rng = np.random.default_rng(nb)
    assert np.array_equal(batched, [rng.integers(0, nb, size=nb) for _ in range(5)])


def test_counted_median_guard_equals_the_median_comparison():
    rng = np.random.default_rng(31)
    samples = [np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0, 2.0, 2.0]),
               np.array([1.0, 2.0, 2.0, 3.0]), np.array([1.0, 2.0, 2.0, 2.0, 3.0, 3.0]),
               np.array([1.0, np.nextafter(1.0, 2.0)]), np.array([0.1, 0.7, 0.3, 0.2])]
    for n in (3, 8, 9, 1000, 1001):
        samples += [rng.pareto(1.0, n), np.round(rng.pareto(1.0, n), 1)]  # ties in the second
    for x in samples:
        s = np.sort(x)
        lo, hi = s[(len(x) - 1) // 2], s[len(x) // 2]
        mid = (lo + hi) / 2
        us = [s[0] - 1, lo, hi, mid, s[-1] + 1, *s[:: max(1, len(x) // 7)]]
        us += [np.nextafter(v, w) for v in (lo, hi, mid) for w in (-np.inf, np.inf)]
        for u in us:
            assert estimate._at_most_median(u, x) == (u <= np.median(x)), (x, u)


# ---------------------------------------------------------------------------
# Hill diagnostic


def test_hill_on_exact_pareto():
    path = make_path([1.0], alpha=2.0, length=10**6, seed=15, p_plus=0.5)
    res = hill_alpha(path, 10_000)
    assert abs(res.value - 2.0) < 3 * (2.0 / 100.0)


def test_hill_scale_invariance():
    path = make_path([1.0], alpha=2.0, length=100_000, seed=16)
    scaled = Path(5.0 * path.values, path.space, dict(path.meta))
    a = hill_alpha(path, 1000)
    b = hill_alpha(scaled, 1000)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_hill_k_one_smoke_and_validation():
    path = make_path([1.0], length=10_000, seed=17)
    res = hill_alpha(path, 1)
    assert res.value > 0
    with pytest.raises(DomainError):
        hill_alpha(path, 5000)


# ---------------------------------------------------------------------------
# single big jump


def _pareto1_pair_tail(x):
    """Pr(Z1 + Z2 > x) for iid standard Pareto(1), by quadrature."""
    inner = quad(lambda z: z**-2.0 / (x - z), 1.0, x - 1.0)[0]
    return 1.0 / (x - 1.0) + inner


def test_big_jump_identity_family():
    # one lag: the sum is the lag's image, so Pr(||a Z|| > x) / V(x) = |a|^alpha
    # for every draw, and no draw can disagree with its single-lag count
    for a, alpha in ((1.0, 1.0), (-0.5, 1.5)):
        fam = family_from_coeffs([a], alpha, R1)
        innov = RegVarDist(alpha, 1.0, Rademacher(0.3))
        res = big_jump_paired(fam, innov, [100.0], 1 << 12, np.random.default_rng(18))[0]
        assert res.target == pytest.approx(abs(a) ** alpha, rel=1e-12)
        for est, se in ((res.ratio_sum_norm, res.stderr_sum_norm),
                        (res.ratio_norm_sum, res.stderr_norm_sum)):
            assert se <= 1e-12
            assert abs(est - abs(a) ** alpha) <= max(3 * se, 1e-12)
        assert res.discrepancy == 0.0


def test_big_jump_two_terms_matches_exact_convolution():
    # quadrature oracle agrees with the closed form 2/x + 2 ln(x-1)/x^2
    x = 200.0
    oracle = _pareto1_pair_tail(x)
    closed = 2.0 / x + 2.0 * np.log(x - 1.0) / x**2
    assert oracle == pytest.approx(closed, rel=1e-9)
    fam = family_from_coeffs([1.0, 1.0], 1.0, R1)
    res = big_jump_paired(fam, POS1, [x], 1 << 14, np.random.default_rng(19))[0]
    target_ratio = oracle / POS1.tail_prob(x)
    assert 0 < res.stderr_sum_norm <= 1e-3
    assert abs(res.ratio_sum_norm - target_ratio) <= 3 * res.stderr_sum_norm
    assert res.target == 2.0


def test_big_jump_scaled_family_target():
    fam = family_from_coeffs([1.0, 0.5], 2.0, R1)
    innov = RegVarDist(2.0, 1.0, Rademacher(1.0))
    res = big_jump_paired(fam, innov, [50.0], 100_000, np.random.default_rng(20))[0]
    assert res.target == pytest.approx(1.25)  # 1 + 0.5^2


def test_big_jump_discrepancy_decreases_paired():
    fam = family_from_coeffs([1.0, 1.0], 1.0, R1)
    near, far = big_jump_paired(fam, POS1, [200.0, 2000.0], 1 << 14,
                                np.random.default_rng(21))
    assert near.discrepancy > 0
    assert near.discrepancy - far.discrepancy >= 5 * near.stderr_discrepancy_drop > 0


def _big_jump_reference(fam, innov, xs, n_mc, rng, chunk):
    """Plain Monte Carlo of the three big-jump quantities over an (m, #lags)
    single-norm matrix: the oracle for the conditional estimator.  Also
    returns the stderr of each discrepancy."""
    consts = series_constants(fam, innov, n_mc=min(n_mc, 100_000), rng=rng)
    lags = fam.indices
    nx = len(xs)
    cnt_sum_norm = np.zeros(nx)
    cnt_norm_sum = np.zeros(nx)
    disc = np.zeros(nx)
    disc_sq = [0] * nx
    disc_next = [0] * nx
    done = 0
    while done < n_mc:
        m = min(chunk, n_mc - done)
        vec_sum = np.zeros((m, fam.codomain.dim))
        norm_sum = np.zeros(m)
        singles = np.zeros((m, len(lags)))
        for j, lag in enumerate(lags):
            z = innov.sample(m, rng)
            img = fam.ops[lag].apply(z)
            vec_sum += img
            nrm = fam.codomain.norm(img)
            norm_sum += nrm
            singles[:, j] = nrm
        total_norm = fam.codomain.norm(vec_sum)
        per_draw = []
        for i, x in enumerate(xs):
            hit = total_norm > x
            cnt_sum_norm[i] += hit.sum()
            cnt_norm_sum[i] += (norm_sum > x).sum()
            disc[i] += np.abs(hit.astype(float) - (singles > x).sum(axis=1)).sum()
            per_draw.append(np.abs(hit.astype(np.int64) - (singles > x).sum(axis=1)))
        for i in range(nx):
            disc_sq[i] += int(per_draw[i] @ per_draw[i])
            if i + 1 < nx:
                disc_next[i] += int(per_draw[i] @ per_draw[i + 1])
        done += m
    results, disc_se = [], []
    for i, x in enumerate(xs):
        v = innov.tail_prob(x)
        p1 = cnt_sum_norm[i] / n_mc
        p2 = cnt_norm_sum[i] / n_mc
        drop_se = 0.0
        if i + 1 < nx:
            w = innov.tail_prob(xs[i + 1])
            mean = (disc[i] / v - disc[i + 1] / w) / n_mc
            second = (disc_sq[i] / v**2 - 2 * disc_next[i] / (v * w)
                      + disc_sq[i + 1] / w**2) / n_mc
            drop_se = float(np.sqrt(max(second - mean**2, 0.0) / n_mc))
        mean = disc[i] / n_mc / v
        disc_se.append(float(np.sqrt(max(disc_sq[i] / n_mc / v**2 - mean**2, 0.0) / n_mc)))
        results.append(BigJumpResult(
            x=x,
            ratio_sum_norm=float(p1 / v),
            ratio_norm_sum=float(p2 / v),
            discrepancy=float(mean),
            target=float(consts.c_total),
            stderr_sum_norm=float(np.sqrt(p1 * (1 - p1) / n_mc) / v),
            stderr_norm_sum=float(np.sqrt(p2 * (1 - p2) / n_mc) / v),
            stderr_discrepancy_drop=drop_se,
            n_mc=n_mc,
        ))
    return results, disc_se


def _dense_family():
    space = max_norm(3)
    rot = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    mix = np.array([[0.5, -0.2, 0.1], [0.0, 0.4, 0.3], [0.2, 0.1, -0.6]])
    ops = {0: DenseOp(np.eye(3)), 1: DenseOp(0.7 * rot), 2: DenseOp(mix)}
    innov = RegVarDist(1.5, 1.0, SphereUniform(space))
    return OperatorFamily(ops, space, space, 1.5), innov, [3.0, 20.0, 200.0]


def _reference_case(case):
    if case == "scalar":
        fam = family_from_coeffs([1.0, 0.5], 2.0, R1)
        innov = RegVarDist(2.0, 1.0, Rademacher(0.7))
        return fam, innov, [2.0, 10.0, 50.0]
    if case == "seqspace":
        fam = sequence_space_family([0.8**n for n in range(8)], 1.0)
        return fam, RegVarDist(1.0, 1.0, Rademacher(0.6)), [2.0, 10.0, 50.0]
    if case in ("many_lags", "int8_counts"):
        # at x = scale every lag exceeds, so a draw counts up to 128 (or 100)
        fam = family_from_coeffs([1.0] * (128 if case == "many_lags" else 100), 1.0, R1)
        return fam, RegVarDist(1.0, 1.0, Rademacher(0.5)), [1.0, 10.0, 50.0]
    if case == "shared_embedding":
        # two lags embed onto coordinate 1, so their innovations add there
        ops = {0: EmbeddingOp(1, 3), 1: EmbeddingOp(1, 3), 2: EmbeddingOp(0, 3)}
        fam = OperatorFamily(ops, R1, weighted_l1_norm([1.0, 0.5, 0.25]), 1.5)
        return fam, RegVarDist(1.5, 1.0, Rademacher(0.3)), [2.0, 10.0, 50.0]
    return _dense_family()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["scalar", "dense", "seqspace", "shared_embedding", "many_lags",
                                  "int8_counts"])
def test_big_jump_matches_matrix_reference(case, workers):
    # Conditional Monte Carlo against plain Monte Carlo: each quantity within 4
    # combined stderrs.  The discrepancy's own stderr is not reported, so the
    # conditional side takes it from 16 independent batches.
    fam, innov, xs = _reference_case(case)
    want, want_disc_se = _big_jump_reference(fam, innov, xs, 1 << 16,
                                             np.random.default_rng(23), 1 << 13)
    k = 16
    batches = [big_jump_paired(fam, innov, xs, 1 << 10, np.random.default_rng([24, i]),
                               workers=workers) for i in range(k)]
    got = batches[0]
    assert got == big_jump_paired(fam, innov, xs, 1 << 10, np.random.default_rng([24, 0]),
                                  workers=3 - workers)
    assert got[0].target == pytest.approx(want[0].target, rel=0.02)
    for i, ref in enumerate(want):
        for field, se in (("ratio_sum_norm", "stderr_sum_norm"),
                          ("ratio_norm_sum", "stderr_norm_sum")):
            est = np.mean([getattr(run[i], field) for run in batches])
            tol = 4 * np.hypot(getattr(got[i], se) / np.sqrt(k), getattr(ref, se))
            assert abs(est - getattr(ref, field)) <= tol, (i, field)
        disc = np.array([run[i].discrepancy for run in batches])
        tol = 4 * np.hypot(disc.std(ddof=1) / np.sqrt(k), want_disc_se[i])
        assert abs(disc.mean() - ref.discrepancy) <= tol, (i, "discrepancy")
    assert all(r.stderr_discrepancy_drop > 0 for r in got[:2])
    assert got[-1].stderr_discrepancy_drop == 0.0


def test_big_jump_more_workers_than_chunks_or_cores():
    # chunks write their sums to their own slots; a short switch interval
    # and 8 threads would expose a lost or misplaced write
    fam = family_from_coeffs([0.5**n for n in range(40)], 1.0, R1)
    innov = RegVarDist(1.0, 1.0, Rademacher(0.6))
    want = big_jump_paired(fam, innov, [50.0, 500.0], 1 << 12, np.random.default_rng(27))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = big_jump_paired(fam, innov, [50.0, 500.0], 1 << 12, np.random.default_rng(27),
                              workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_big_jump_zero_family_is_finite():
    fam = family_from_coeffs([0.0, 0.0], 1.0, R1)
    with np.errstate(all="raise"):
        near, far = big_jump_paired(fam, POS1, [10.0, 100.0], 1 << 10,
                                    np.random.default_rng(25))
    assert near.target == 0.0
    for res in (near, far):
        assert (res.ratio_sum_norm, res.ratio_norm_sum, res.discrepancy) == (0.0, 0.0, 0.0)
        assert (res.stderr_sum_norm, res.stderr_norm_sum) == (0.0, 0.0)


def test_big_jump_overflowing_radius_names_alpha():
    fam = family_from_coeffs([1.0, 0.5], 1e-3, R1)
    innov = RegVarDist(1e-3, 1.0, Rademacher(1.0))
    with np.errstate(all="raise"), pytest.raises(DomainError, match="alpha=0.001"):
        big_jump_paired(fam, innov, [10.0], 1 << 10, np.random.default_rng(26))


def test_big_jump_threshold_below_scale_rejected():
    fam = family_from_coeffs([1.0], 1.0, R1)
    with pytest.raises(DomainError):
        big_jump_paired(fam, POS1, [0.5], 1000, np.random.default_rng(22))
