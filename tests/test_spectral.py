import numpy as np
import pytest
from scipy.integrate import quad

from heavytail import spectral
from heavytail.config import list_presets, load_config
from heavytail.rv import Atomic, Rademacher, RegVarDist, SphereUniform
from heavytail.spaces import (
    DenseOp,
    DomainError,
    EmbeddingOp,
    ScalarOp,
    lp_norm,
    max_norm,
    op_power,
    weighted_l1_norm,
)
from heavytail.spectral import (
    AR1Spectral,
    LinearProcessSpectral,
    OperatorFamily,
    PushforwardAngle,
    SamplingError,
    TransformedSpectral,
    cluster_windows,
    family_from_coeffs,
    limit_measure_mass,
    pushforward_constant,
    sequence_space_family,
    series_constants,
    tail_windows,
    time_change_rhs,
    time_change_rhs_samples,
    _mean_with_se,
    _rejection_collect,
    _tilt_accept,
)
from heavytail.verify import _tc_battery
from heavytail.windows import WindowBatch

R1 = max_norm(1)
POS = RegVarDist(1.0, 1.0, Rademacher(1.0))  # positive sign innovations, alpha 1


def ma2_sampler(alpha=1.0, p_plus=1.0):
    base = RegVarDist(alpha, 1.0, Rademacher(p_plus))
    fam = family_from_coeffs([1.0, 1.0], alpha, R1)
    return LinearProcessSpectral(fam, base)


# ---------------------------------------------------------------------------
# pushforward constants and sampler


def test_pushforward_constant_scalar_isometry():
    c, se = pushforward_constant(ScalarOp(2.0, 1), POS, R1)
    assert (c, se) == (2.0, 0.0)


def test_pushforward_constant_atomic_cases():
    space = max_norm(2)
    lam = Atomic([[1.0, 0.0]], [1.0], space)
    base = RegVarDist(1.0, 1.0, lam)
    c, se = pushforward_constant(DenseOp(np.diag([0.0, 1.0])), base, space)
    assert (c, se) == (0.0, 0.0)

    lam2 = Atomic([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], space)
    base2 = RegVarDist(2.0, 1.0, lam2)
    # oracle: direct average of ||A theta||^alpha over the two atoms
    A = DenseOp(np.diag([1.0, 0.0]))
    oracle = 0.5 * space.norm(A.apply(np.array([1.0, 0.0]))) ** 2 + 0.5 * 0.0
    assert oracle == 0.5
    c, se = pushforward_constant(A, base2, space)
    assert (c, se) == (0.5, 0.0)


def test_pushforward_constant_monte_carlo():
    space = lp_norm(2, 2)
    base = RegVarDist(2.0, 1.0, SphereUniform(space))
    A = DenseOp(np.diag([1.0, 0.0]))
    # oracle: E theta_0^2 on the Euclidean circle = 1/2, by quadrature
    oracle = quad(lambda t: np.cos(t) ** 2 / (2 * np.pi), 0, 2 * np.pi)[0]
    c, se = pushforward_constant(A, base, space, n_mc=200_000, rng=np.random.default_rng(3))
    assert se > 0
    assert abs(c - oracle) < 3 * se


def test_pushforward_sampler_scalar_sign():
    push = PushforwardAngle(POS, ScalarOp(-3.0, 1), R1)
    draws = push.sample(100, np.random.default_rng(5))
    assert np.all(draws == -1.0)  # acceptance 1, sign flipped


def test_pushforward_sampler_surviving_atom():
    space = max_norm(2)
    lam = Atomic([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], space)
    base = RegVarDist(1.0, 1.0, lam)
    push = PushforwardAngle(base, DenseOp(np.diag([1.0, 0.0])), space)
    draws = push.sample(500, np.random.default_rng(6))
    np.testing.assert_allclose(draws, np.tile([1.0, 0.0], (500, 1)))


def test_pushforward_sampler_tilted_mixture():
    # atoms theta1=(1,0), theta2=(0.5,1) (unit in max norm), alpha=1:
    # ||A theta|| tilt (1, 0.5) gives source probabilities (2/3, 1/3);
    # oracle by direct tilt enumeration
    w = np.array([0.5, 0.5])
    v = np.array([1.0, 0.5])
    oracle = w * v / (w * v).sum()
    assert oracle[1] == pytest.approx(1.0 / 3.0)
    space = max_norm(2)
    lam = Atomic([[1.0, 0.0], [0.5, 1.0]], w, space)
    base = RegVarDist(1.0, 1.0, lam)
    # A = diag(1,0) folds both images onto (1,0): every draw lands there
    push = PushforwardAngle(base, DenseOp(np.diag([1.0, 0.0])), space)
    draws = push.sample(5000, np.random.default_rng(7))
    np.testing.assert_allclose(draws, np.tile([1.0, 0.0], (5000, 1)))
    # A = diag(1, 0.25) has the same norm tilt (1, 0.5) but distinct images,
    # so the 1/3 source probability is observable from the second coordinate
    A = DenseOp(np.diag([1.0, 0.25]))
    v2 = space.norm(A.apply(np.array([[1.0, 0.0], [0.5, 1.0]])))
    np.testing.assert_allclose(v2, v)
    n = 100_000
    push2 = PushforwardAngle(base, A, space)
    draws2 = push2.sample(n, np.random.default_rng(8))
    p2 = (draws2[:, 1] > 0).mean()
    se = np.sqrt(oracle[1] * (1 - oracle[1]) / n)
    assert abs(p2 - oracle[1]) < 3 * se


def test_pushforward_rejection_exhaustion():
    space = max_norm(2)
    lam = Atomic([[1.0, 0.0], [0.0, 1.0]], [1e-9, 1.0 - 1e-9], space)
    base = RegVarDist(1.0, 1.0, lam)
    push = PushforwardAngle(base, DenseOp(np.diag([1.0, 0.0])), space, max_trials=10_000)
    with pytest.raises(SamplingError):
        push.sample(1, np.random.default_rng(9))


def test_tilt_accept_envelope_violation_draws_nothing():
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    with pytest.raises(SamplingError, match="exceeds the envelope bound"):
        _tilt_accept(np.array([0.5, 1.0 + 1e-6]), 1.0, 1.0, rng)
    assert rng.bit_generator.state == state
    # rounding above the bound is tolerated and accepted
    assert _tilt_accept(np.array([1.0 + 1e-12]), 1.0, 1.0, rng).all()


def test_envelope_below_the_norm_raises():
    # ||A theta|| = 3 and 2 against a bound of 1: every proposal would be
    # accepted, silently dropping the (v / B)^alpha tilt
    with pytest.raises(SamplingError):
        PushforwardAngle(POS, ScalarOp(-3.0, 1), R1, bound=1.0).sample(
            10, np.random.default_rng(11)
        )
    iid = LinearProcessSpectral(family_from_coeffs([1.0], 1.0, R1), POS)
    with pytest.raises(SamplingError):
        TransformedSpectral(iid, ScalarOp(-2.0, 1), R1, bound=1.0).sample(
            10, 1, 1, np.random.default_rng(12)
        )


# ---------------------------------------------------------------------------
# series constants


def test_series_constants_isometry():
    fam = family_from_coeffs([1.0, 0.5], 1.0, R1)
    consts = series_constants(fam, POS)
    np.testing.assert_allclose(consts.c, [1.0, 0.5])
    np.testing.assert_allclose(consts.p, [2 / 3, 1 / 3])
    assert consts.c_total == 1.5
    assert np.all(consts.stderr == 0.0)


def test_series_constants_single_and_symmetric():
    single = series_constants(family_from_coeffs([2.0], 1.0, R1), POS)
    np.testing.assert_allclose(single.p, [1.0])
    sym = series_constants(family_from_coeffs([1.0, 1.0], 2.0, R1), POS)
    np.testing.assert_allclose(sym.p, [0.5, 0.5])


def test_series_constants_degenerate():
    fam = family_from_coeffs([0.0, 0.0], 1.0, R1)
    with pytest.raises(DomainError):
        series_constants(fam, POS)


# ---------------------------------------------------------------------------
# linear-process window sampler


def test_linproc_iid_case():
    fam = family_from_coeffs([1.0], 1.0, R1)
    sampler = LinearProcessSpectral(fam, POS)
    wb = sampler.sample(200, 2, 2, np.random.default_rng(10))
    assert np.all(wb.norm_at(0) == 1.0)
    for t in (-2, -1, 1, 2):
        assert np.all(wb.slot(t) == 0.0)


def test_linproc_ma2_lag_probability():
    wb = ma2_sampler().sample(50_000, 1, 1, np.random.default_rng(11))
    p = (wb.norm_at(1) > 0).mean()
    assert abs(p - 0.5) < 3 * np.sqrt(0.25 / len(wb))


def test_linproc_isometry_window_identity():
    # scalar coefficients: ||Theta_t|| must equal |a_{N+t}| / |a_N| exactly
    coeffs = [1.0, 0.8, 0.6]
    base = RegVarDist(2.0, 1.0, Rademacher(0.5))
    fam = family_from_coeffs(coeffs, 2.0, R1)
    sampler = LinearProcessSpectral(fam, base)
    wb = sampler.sample(2000, 2, 2, np.random.default_rng(12))
    a = np.array(coeffs)
    for t in range(-2, 3):
        lags = wb.origin + t
        valid = (lags >= 0) & (lags <= 2)
        expected = np.where(valid, np.abs(a[np.clip(lags, 0, 2)]) / a[wb.origin], 0.0)
        np.testing.assert_allclose(wb.norm_at(t), expected, atol=1e-12)


def test_linproc_origin_matches_mixture_probs():
    coeffs = [1.0, 0.8, 0.6]
    fam = family_from_coeffs(coeffs, 2.0, R1)
    sampler = LinearProcessSpectral(fam, RegVarDist(2.0, 1.0, Rademacher(1.0)))
    n = 100_000
    wb = sampler.sample(n, 0, 0, np.random.default_rng(13))
    # oracle: p_n = a_n^2 / sum a_k^2 = (1, 0.64, 0.36)/2
    p = np.array([1.0, 0.64, 0.36]) / 2.0
    for lag in range(3):
        freq = (wb.origin == lag).mean()
        assert abs(freq - p[lag]) < 3 * np.sqrt(p[lag] * (1 - p[lag]) / n)


# ---------------------------------------------------------------------------
# AR(1) window sampler


def test_ar1_forward_recursion_exact():
    sampler = AR1Spectral(ScalarOp(0.5, 1), POS, horizon=40)
    wb = sampler.sample(500, 3, 4, np.random.default_rng(14))
    for t in range(0, 4):
        np.testing.assert_allclose(wb.slot(t + 1), 0.5 * wb.slot(t), atol=1e-15)


def test_ar1_geometric_lag_distribution():
    sampler = AR1Spectral(ScalarOp(0.5, 1), POS, horizon=40)
    n = 100_000
    wb = sampler.sample(n, 0, 0, np.random.default_rng(15))
    for lag in range(4):
        p = 2.0 ** -(lag + 1)  # truncation correction ~ 2^-41, negligible
        freq = (wb.origin == lag).mean()
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n)


def test_ar1_zero_operator_is_iid():
    sampler = AR1Spectral(ScalarOp(0.0, 1), POS, horizon=5)
    wb = sampler.sample(200, 2, 2, np.random.default_rng(16))
    assert np.all(wb.origin == 0)
    assert np.all(wb.norm_at(0) == 1.0)
    assert np.all(wb.norm_at(1) == 0.0) and np.all(wb.norm_at(-1) == 0.0)


AR1_CASES = [
    (ScalarOp(0.5, 1), Atomic([[1.0], [-1.0]], [0.3, 0.7], R1), 1.0),
    (
        DenseOp([[0.3, 0.1], [0.05, 0.2]]),
        Atomic([[1.0, 0.0], [0.5, 1.0], [-1.0, -0.25]], [0.2, 0.5, 0.3], max_norm(2)),
        1.5,
    ),
]


@pytest.mark.parametrize("T, angle, alpha", AR1_CASES, ids=["scalar", "dense2"])
def test_ar1_equals_linear_process_over_powers(T, angle, alpha):
    base = RegVarDist(alpha, 1.0, angle)
    horizon, back, fwd = 40, 2, 3
    fam = OperatorFamily(
        {j: op_power(T, j) for j in range(horizon + 1)}, angle.space, angle.space, alpha
    )
    ar1 = AR1Spectral(T, base, horizon).sample(3000, back, fwd, np.random.default_rng(21))
    lin = LinearProcessSpectral(fam, base).sample(3000, back, fwd, np.random.default_rng(21))
    assert ar1.origin.max() + fwd <= horizon  # windows stay inside the family
    np.testing.assert_array_equal(ar1.origin, lin.origin)
    np.testing.assert_array_equal(ar1.values, lin.values)


def test_ar1_forward_recursion_past_horizon():
    T, angle, alpha = AR1_CASES[1]
    sampler = AR1Spectral(T, RegVarDist(alpha, 1.0, angle), horizon=3)
    wb = sampler.sample(2000, 0, 8, np.random.default_rng(22))
    assert wb.origin.max() + 8 > 3
    for t in range(8):
        np.testing.assert_allclose(wb.slot(t + 1), T.apply(wb.slot(t)), rtol=1e-12, atol=1e-15)


def test_ar1_contraction_precondition():
    with pytest.raises(DomainError):
        AR1Spectral(ScalarOp(1.0, 1), POS, horizon=8)


# ---------------------------------------------------------------------------
# transformed series


def test_transformed_scalar_preserves_law():
    base = ma2_sampler((2.0), p_plus=0.5)
    tr = TransformedSpectral(base, ScalarOp(-2.0, 1), R1)
    wb = tr.sample(5000, 1, 1, np.random.default_rng(17))
    assert np.all(np.abs(wb.norm_at(0) - 1.0) < 1e-12)
    p = (wb.norm_at(1) > 0).mean()
    assert abs(p - 0.5) < 3 * np.sqrt(0.25 / len(wb))


def test_transformed_iid_base_matches_pushforward():
    # iid base: transformed window sampler must agree with the plain
    # pushforward of the marginal angle (two-sample comparison)
    space = max_norm(2)
    lam = Atomic([[1.0, 0.0], [0.5, 1.0]], [0.5, 0.5], space)
    base_dist = RegVarDist(1.0, 1.0, lam)
    fam_ops = family_from_coeffs([1.0], 1.0, space)
    iid = LinearProcessSpectral(fam_ops, base_dist)
    A = DenseOp(np.diag([1.0, 0.25]))
    tr = TransformedSpectral(iid, A, space)
    wb = tr.sample(50_000, 1, 1, np.random.default_rng(18))
    assert np.all(wb.norm_at(1) == 0.0) and np.all(wb.norm_at(-1) == 0.0)
    push = PushforwardAngle(base_dist, A, space)
    direct = push.sample(50_000, np.random.default_rng(19))
    g1 = wb.slot(0)[:, 1]
    g2 = direct[:, 1]
    se = np.sqrt(g1.var(ddof=1) / len(g1) + g2.var(ddof=1) / len(g2))
    assert abs(g1.mean() - g2.mean()) < 3 * se


# ---------------------------------------------------------------------------
# tail and cluster windows


def test_tail_window_radius():
    sampler = ma2_sampler()
    tb = tail_windows(sampler, 20_000, 1, 1, np.random.default_rng(20))
    np.testing.assert_allclose(tb.norm_at(0), tb.radii)  # ||Y_0|| = Y
    # E min(Y, K) at alpha=2, K=10; oracle by quadrature: 2 - 1/K
    alpha2 = ma2_sampler(alpha=2.0)
    oracle = 1.0 + quad(lambda y: min(y, 10.0) * 2 * y**-3.0, 1.0, np.inf)[0] - 1.0
    assert oracle == pytest.approx(2.0 - 0.1, abs=1e-6)
    tb2 = tail_windows(alpha2, 200_000, 0, 0, np.random.default_rng(21))
    vals = np.minimum(tb2.radii, 10.0)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.9) < 3 * se


def test_cluster_windows_iid_accepts_everything():
    fam = family_from_coeffs([1.0], 1.0, R1)
    sampler = LinearProcessSpectral(fam, POS)
    tb = cluster_windows(sampler, 1, 1, 2000, np.random.default_rng(22))
    assert len(tb) == 2000
    assert np.all(tb.norm_at(-1) == 0.0)


def test_cluster_windows_ma2_acceptance_and_conditioning():
    sampler = ma2_sampler()
    # oracle acceptance by case analysis: N=0 accepts (past is zero), N=1
    # rejects since Y * a_0/a_1 = Y >= 1 a.s.; total 1/2
    n = 20_000
    wb = sampler.sample(n, 1, 1, np.random.default_rng(23))
    from heavytail.rv import pareto_sample

    y = pareto_sample(1.0, np.random.default_rng(24), n)
    accept = wb.norm_at(-1) * y <= 1.0
    assert abs(accept.mean() - 0.5) < 3 * np.sqrt(0.25 / n)
    tb = cluster_windows(sampler, 1, 1, 5000, np.random.default_rng(25))
    assert np.all(tb.norm_at(-1) <= 1.0)  # conditioning event holds on every draw


def test_cluster_lookback_must_cover_support():
    sampler = ma2_sampler()
    with pytest.raises(DomainError):
        cluster_windows(sampler, 0, 1, 10, np.random.default_rng(26))


def test_zero_draws_are_empty_and_leave_the_stream_alone():
    space = max_norm(2)
    sphere = RegVarDist(1.5, 1.0, SphereUniform(space))
    push = PushforwardAngle(sphere, DenseOp([[1.0, 0.5], [-0.3, 0.8]]), space)
    base = ma2_sampler()
    tr = TransformedSpectral(base, ScalarOp(-2.0, 1), R1)
    rng = np.random.default_rng(27)
    state = rng.bit_generator.state
    assert push.sample(0, rng).shape == (0, 2)
    for sampler in (base, tr):
        wb = sampler.sample(0, 1, 2, rng)
        assert wb.values.shape == (0, 4, 1) and len(wb.origin) == 0
    tb = cluster_windows(base, 1, 1, 0, rng)
    assert len(tb) == 0 and tb.windows.values.shape == (0, 3, 1)
    seq = LinearProcessSpectral(*_stacked_case("seqspace"))
    wb = seq.sample(0, 1, 2, rng)
    assert wb.coord is not None and len(wb) == 0 and len(wb.origin) == 0
    assert wb.values.shape == (0, 4, 8) and wb.norms().shape == (0, 4)
    assert time_change_rhs_samples(seq, lambda w: w.norm_at(-1), 1, 1, 0, rng).shape == (0,)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# time-change identity


def test_time_change_iid_vanishes():
    fam = family_from_coeffs([1.0], 1.0, R1)
    sampler = LinearProcessSpectral(fam, POS)
    f = lambda wb: np.minimum(wb.norm_at(-1), 1.0)
    value, se = time_change_rhs(sampler, f, 1, 0, 2000, np.random.default_rng(27))
    assert value == 0.0 and se == 0.0


def test_time_change_ma2_degenerate_past():
    sampler = ma2_sampler()
    f = lambda wb: (wb.norm_at(-1) > 0).astype(float)
    value, se = time_change_rhs(sampler, f, 1, 0, 50_000, np.random.default_rng(28))
    assert abs(value - 0.5) < 3 * se


def test_time_change_s_zero_reduces_to_plain_mean():
    sampler = ma2_sampler()
    f = lambda wb: np.minimum(wb.norm_at(0), 1.0) * np.minimum(wb.norm_at(1), 1.0)
    a, _ = _mean_with_se(f(sampler.sample(20_000, 0, 1, np.random.default_rng(29))))
    b, _ = time_change_rhs(sampler, f, 0, 1, 20_000, np.random.default_rng(29))
    assert a == pytest.approx(b)  # same draws, same reduction at s=0


def test_time_change_contract_violation():
    sampler = ma2_sampler()
    with pytest.raises(DomainError):
        time_change_rhs(sampler, lambda wb: np.ones(len(wb)), 1, 0, 100,
                        np.random.default_rng(30))


def test_time_change_full_identity_across_models():
    seqfam = sequence_space_family([0.9**n for n in range(8)], 1.5)
    seq_base = RegVarDist(1.5, 1.0, Rademacher(0.7))
    models = [
        ma2_sampler(alpha=1.0, p_plus=0.7),
        AR1Spectral(ScalarOp(0.5, 1), RegVarDist(2.0, 1.0, Rademacher(0.6)), horizon=40),
        LinearProcessSpectral(seqfam, seq_base),
    ]
    for i, sampler in enumerate(models):
        f = lambda wb: np.minimum(wb.norm_at(-1) ** sampler.alpha, 1.0) * np.minimum(
            wb.norm_at(1), 1.0
        )
        wb = sampler.sample(40_000, 1, 1, np.random.default_rng(100 + i))
        lhs, se_l = _mean_with_se(f(wb))
        rhs, se_r = time_change_rhs(sampler, f, 1, 1, 40_000, np.random.default_rng(200 + i))
        assert abs(lhs - rhs) <= 3 * np.sqrt(se_l**2 + se_r**2) + 1e-12


# ---------------------------------------------------------------------------
# limit measure


def test_limit_measure_single_lag_normalization():
    sampler = ma2_sampler()
    for r in (1.0, 2.0, 4.0):
        value, se = limit_measure_mass(sampler, 1, (r,), 500, np.random.default_rng(31))
        assert value == pytest.approx(1.0 / r, abs=1e-12)


def test_limit_measure_iid_no_joint_exceedance():
    fam = family_from_coeffs([1.0], 1.0, R1)
    sampler = LinearProcessSpectral(fam, POS)
    value, se = limit_measure_mass(sampler, 2, (1.0, 1.0), 2000, np.random.default_rng(32))
    assert value == 0.0


def test_limit_measure_ma2_joint_mass():
    # oracle: joint mass equals E min(||Theta_0||, ||Theta_1||)^alpha = 1/2
    sampler = ma2_sampler()
    value, se = limit_measure_mass(sampler, 2, (1.0, 1.0), 50_000, np.random.default_rng(33))
    assert abs(value - 0.5) < 3 * max(se, 1e-12)


def test_limit_measure_homogeneity():
    sampler = ma2_sampler(alpha=2.0)
    m1, s1 = limit_measure_mass(sampler, 2, (1.0, 1.0), 50_000, np.random.default_rng(34))
    m2, s2 = limit_measure_mass(sampler, 2, (2.0, 2.0), 50_000, np.random.default_rng(35))
    scale = 2.0**2
    assert abs(scale * m2 - m1) < 3 * np.sqrt(s1**2 + (scale * s2) ** 2) + 1e-12


def test_limit_measure_rejects_origin_touching_event():
    sampler = ma2_sampler()
    with pytest.raises(DomainError):
        limit_measure_mass(sampler, 2, (0.0, 0.0), 100, np.random.default_rng(36))
    with pytest.raises(DomainError):
        limit_measure_mass(sampler, 2, (None, None), 100, np.random.default_rng(37))


# ---------------------------------------------------------------------------
# window-batch views


def test_window_batch_views():
    sampler = ma2_sampler()
    wb = sampler.sample(10, 1, 1, np.random.default_rng(40))
    np.testing.assert_array_equal(wb.slot(1)[3], wb.values[3, 2])
    with pytest.raises(IndexError):
        wb.slot(2)
    tb = tail_windows(sampler, 10, 1, 1, np.random.default_rng(41))
    np.testing.assert_allclose(tb.values_at(0)[2], tb.radii[2] * tb.windows.slot(0)[2])


def test_limit_measure_k3_mixture_oracle():
    # oracle by mixture enumeration for coefficients (1, 0.8, 0.6), alpha 1:
    # only the no-prefix term survives; contribution min over the forward
    # window, i.e. p_0 * min(1, 0.8, 0.6) = 0.6/2.4
    coeffs = [1.0, 0.8, 0.6]
    p0 = 1.0 / sum(coeffs)
    oracle = p0 * 0.6
    base = RegVarDist(1.0, 1.0, Rademacher(1.0))
    fam = family_from_coeffs(coeffs, 1.0, R1)
    sampler = LinearProcessSpectral(fam, base)
    value, se = limit_measure_mass(sampler, 3, (1.0, 1.0, 1.0), 50_000,
                                   np.random.default_rng(42))
    assert abs(value - oracle) < 3 * max(se, 1e-12)
    # cross-route: the same mass via the norm-mode joint survival functional
    from heavytail.summaries import joint_survival_limit

    js = joint_survival_limit(sampler, [0, 1, 2], norm_weights=[1.0, 1.0, 1.0],
                              n=50_000, rng=np.random.default_rng(43))
    assert abs(value - js.value) < 3 * np.sqrt(se**2 + js.stderr**2) + 1e-12


def test_limit_measure_marginal_consistency():
    # unconstrained first coordinate: the two-lag mass of B x {||x|| > 1}
    # must reduce to the one-lag normalization, exercising the
    # zero-past alignment term
    sampler = ma2_sampler()
    value, se = limit_measure_mass(sampler, 2, (None, 1.0), 50_000,
                                   np.random.default_rng(44))
    assert abs(value - 1.0) < 3 * max(se, 1e-12)


# ---------------------------------------------------------------------------
# stacked operator family against the per-lag apply loops it replaced


def _joint_draws_reference(sampler, n, rng):
    """The joint lag-and-angle rejection as a per-row ``apply`` loop: lag N with
    probability proportional to B_N^alpha, Theta from the base angle law,
    accepted when U B_N^alpha <= ||T_N Theta||^alpha."""
    fam, space, alpha = sampler.fam, sampler.space, sampler.alpha
    bounds = np.array([fam.norm_bound(lag).value for lag in fam.indices])
    weights = bounds**alpha

    def propose(m, rng):
        picks = rng.choice(fam.lags, size=m, p=weights / weights.sum())
        theta = sampler.base.angle.sample(m, rng)
        v = np.array([space.norm(fam.ops[lag].apply(row)) for lag, row in zip(picks, theta)])
        b = bounds[np.searchsorted(fam.lags, picks)]
        u = rng.random(m)
        return (v > 0) & (u * b**alpha <= v**alpha), (picks, theta, v)

    return _rejection_collect(n, propose, rng, sampler.max_trials, "reference")


def _sample_reference(sampler, n, back, fwd, rng):
    """Windows of the joint rejection, slot by slot and row by row with ``apply``
    (AR(1) lags past the horizon as ``op_power``), kept as the reference."""
    picks, theta, denom = _joint_draws_reference(sampler, n, rng)
    ops = dict(sampler.fam.ops)
    out = np.zeros((n, back + fwd + 1, sampler.space.dim))
    for i, (lag, row, d) in enumerate(zip(picks.tolist(), theta, denom)):
        for t in range(-back, fwd + 1):
            if isinstance(sampler, AR1Spectral) and lag + t > sampler.horizon:
                if lag + t not in ops:
                    ops[lag + t] = op_power(sampler.T, lag + t)
            if lag + t in ops:
                out[i, back + t, :] = ops[lag + t].apply(row) / d
    return out, picks


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _row_rel_err(got, want):
    scale = np.maximum(np.max(np.abs(want), axis=-1), 1e-300)
    return float(np.max(np.max(np.abs(got - want), axis=-1) / scale))


WEIGHTS8 = [0.8**n for n in range(8)]
SPACE3 = max_norm(3)
MIX3 = [[0.5, -0.2, 0.1], [0.0, 0.4, 0.3], [0.2, 0.1, -0.6]]


def _stacked_case(name):
    if name == "seqspace":
        return sequence_space_family(WEIGHTS8, 1.3), RegVarDist(1.3, 1.0, Rademacher(0.6))
    if name == "shared_embedding":
        ops = {0: EmbeddingOp(1, 4), 1: EmbeddingOp(3, 4), 3: EmbeddingOp(1, 4)}
        fam = OperatorFamily(ops, R1, weighted_l1_norm([1.0, 0.5, 0.7, 0.2]), 1.5)
        return fam, RegVarDist(1.5, 1.0, Rademacher(0.3))
    if name == "scalar":
        fam = family_from_coeffs([1.0, -0.5, 0.25, 0.0], 0.8, R1, start=-1)
        return fam, RegVarDist(0.8, 1.0, Rademacher(0.3))
    if name == "scalar_sphere":
        fam = family_from_coeffs([1.0, 0.6], 1.5, SPACE3)
        return fam, RegVarDist(1.5, 1.0, SphereUniform(SPACE3))
    ops = {0: DenseOp(MIX3), 1: DenseOp(np.diag([1.0, -0.5, 0.25])), 2: DenseOp(np.eye(3, k=-1)),
           3: DenseOp(0.7 * np.eye(3, k=-1) @ MIX3)}
    atoms = Atomic([[1.0, 0.0, 0.0], [0.5, -1.0, 0.25], [0.2, 0.3, 1.0]], [0.2, 0.5, 0.3], SPACE3)
    return OperatorFamily(ops, SPACE3, SPACE3, 1.2), RegVarDist(1.2, 1.0, atoms)


@pytest.mark.parametrize("back, fwd", [(0, 0), (1, 2), (3, 1), (5, 5)])
@pytest.mark.parametrize("case", ["seqspace", "shared_embedding", "scalar", "scalar_sphere"])
def test_stacked_sample_equals_per_lag_loop(case, back, fwd):
    fam, base = _stacked_case(case)
    sampler = LinearProcessSpectral(fam, base, rng=np.random.default_rng(40))
    wb = sampler.sample(4000, back, fwd, np.random.default_rng(41))
    want, picks = _sample_reference(sampler, 4000, back, fwd, np.random.default_rng(41))
    np.testing.assert_array_equal(wb.origin, picks)
    # embedding families come in axis form, and their dense values are built on demand
    assert (wb.coord is not None) == (fam.kind == "embedding")
    assert (wb._values is None) == (fam.kind == "embedding")
    assert _bits(wb.values) == _bits(want)
    assert (wb._norms is not None) == (fam.kind == "embedding")
    assert _bits(wb.norms()) == _bits(sampler.space.norm(want))


@pytest.mark.parametrize("back, fwd", [(0, 0), (1, 2), (4, 3)])
def test_stacked_sample_dense_and_chain_within_rounding(back, fwd):
    fam, base = _stacked_case("dense_chain")
    assert fam.kind == "dense"
    sampler = LinearProcessSpectral(fam, base)
    wb = sampler.sample(4000, back, fwd, np.random.default_rng(42))
    want, picks = _sample_reference(sampler, 4000, back, fwd, np.random.default_rng(42))
    np.testing.assert_array_equal(wb.origin, picks)
    assert _row_rel_err(wb.values, want) <= 1e-12


@pytest.mark.parametrize("T", [ScalarOp(0.7, 1), ScalarOp(-0.9, 1)], ids=["a0.7", "a-0.9"])
def test_stacked_ar1_scalar_past_horizon_equals_op_power(T):
    sampler = AR1Spectral(T, RegVarDist(1.0, 1.0, Rademacher(0.4)), horizon=3)
    wb = sampler.sample(3000, 2, 9, np.random.default_rng(43))
    want, picks = _sample_reference(sampler, 3000, 2, 9, np.random.default_rng(43))
    assert picks.max() + 9 > sampler.horizon
    np.testing.assert_array_equal(wb.origin, picks)
    assert _bits(wb.values) == _bits(want)


def test_stacked_ar1_dense_past_horizon_within_rounding():
    T, angle, alpha = AR1_CASES[1]
    sampler = AR1Spectral(T, RegVarDist(alpha, 1.0, angle), horizon=3)
    wb = sampler.sample(3000, 1, 8, np.random.default_rng(44))
    want, picks = _sample_reference(sampler, 3000, 1, 8, np.random.default_rng(44))
    np.testing.assert_array_equal(wb.origin, picks)
    assert _row_rel_err(wb.values, want) <= 1e-12


@pytest.mark.parametrize("codomain", [
    weighted_l1_norm(WEIGHTS8), max_norm(8), lp_norm(8, 1), lp_norm(8, 2), lp_norm(8, 1.5),
], ids=["weighted_l1", "max", "l1", "l2", "l1.5"])
def test_seeded_window_norms_equal_space_norm(codomain):
    ops = {n: EmbeddingOp(n % 8, 8) for n in range(10)}
    fam = OperatorFamily(ops, R1, codomain, 1.1)
    sampler = LinearProcessSpectral(fam, RegVarDist(1.1, 2.5, Rademacher(0.5)))
    wb = sampler.sample(5000, 3, 4, np.random.default_rng(45))
    assert wb._norms is not None and wb.coord is not None
    assert _bits(wb.norms()) == _bits(codomain.norm(wb.values))
    np.testing.assert_array_equal(wb.coord < 0, wb.norms() == 0)  # -1 marks a zero slot
    # window slots hold +-1 / ||e_j||; Pareto innovations exercise the formula
    z = sampler.base.sample(5000, np.random.default_rng(46))
    pos = np.arange(5000) % len(fam.lags)
    assert _bits(fam.norms(z, pos)) == _bits(codomain.norm(fam.images(z, pos)))


def _tail_constants_reference(ops, base, codomain, alpha, n_mc, rng):
    """The per-operator ``apply`` loop of ``_tail_constants``, kept as the reference."""
    c, se, mc = np.zeros(len(ops)), np.zeros(len(ops)), []
    atoms = base.angle.atoms()
    for i, op in enumerate(ops):
        if atoms is not None:
            c[i] = atoms[1] @ codomain.norm(op.apply(atoms[0])) ** alpha
        else:
            scale = op.isometry_scale(base.angle.space, codomain)
            if scale is not None:
                c[i] = scale**alpha
            else:
                mc.append(i)
    if mc:
        theta = base.angle.sample(n_mc, rng)
        for i in mc:
            values = codomain.norm(ops[i].apply(theta)) ** alpha
            c[i] = values.mean()
            se[i] = values.std(ddof=1) / np.sqrt(n_mc)
    return c, se


@pytest.mark.parametrize("case", ["seqspace", "shared_embedding", "scalar", "scalar_sphere",
                                  "dense_chain", "dense_sphere"])
def test_stacked_tail_constants_equal_per_lag_loop(case):
    if case == "dense_sphere":
        fam, _ = _stacked_case("dense_chain")
        base = RegVarDist(1.2, 1.0, SphereUniform(SPACE3))
    else:
        fam, base = _stacked_case(case)
    consts = series_constants(fam, base, n_mc=20_000, rng=np.random.default_rng(46))
    c, se = _tail_constants_reference([fam.ops[n] for n in consts.indices], base,
                                      fam.codomain, fam.alpha, 20_000, np.random.default_rng(46))
    if fam.kind == "dense":
        np.testing.assert_allclose(consts.c, c, rtol=1e-12, atol=0)
        np.testing.assert_allclose(consts.stderr, se, rtol=1e-9, atol=0)
    else:
        assert _bits(consts.c) == _bits(c) and _bits(consts.stderr) == _bits(se)


def test_stacked_images_and_norms_match_apply():
    z1 = np.random.default_rng(47).standard_normal((50, 1))
    z3 = np.random.default_rng(48).standard_normal((50, 3))
    for case, z in (("seqspace", z1), ("shared_embedding", z1), ("scalar_sphere", z3),
                    ("dense_chain", z3)):
        fam, _ = _stacked_case(case)
        # one lag per row, in descending runs so that the dense rows need grouping
        pos = (len(fam.lags) - 1 - np.arange(50)) % len(fam.lags)
        want = np.array([fam.ops[fam.indices[k]].apply(row) for k, row in zip(pos, z)])
        assert _row_rel_err(fam.images(z, pos), want) <= 1e-12
        np.testing.assert_allclose(fam.norms(z, pos), fam.codomain.norm(want),
                                   rtol=1e-12, atol=0)
        # one lag for every row: accumulate adds the images and returns their norms
        total = np.zeros((50, fam.codomain.dim))
        for k, n in enumerate(fam.indices):
            want_k = fam.ops[n].apply(z)
            assert _row_rel_err(fam.images(z, k), want_k) <= 1e-12
            norms = fam.accumulate(total, k, z)
            assert _bits(norms) == _bits(fam.norms(z, k))
            np.testing.assert_allclose(norms, fam.codomain.norm(want_k), rtol=1e-12, atol=0)
        want_sum = sum(fam.ops[n].apply(z) for n in fam.indices)
        assert _row_rel_err(total, want_sum) <= 1e-12


# ---------------------------------------------------------------------------
# joint lag-and-angle rejection against constants it does not read


L2_3 = lp_norm(3, 2)


def _dense_l2_sphere_case():
    ops = {0: DenseOp([[1.0, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.6]]),
           1: DenseOp([[0.5, -0.3, 0.2], [0.1, 0.4, 0.0], [0.0, 0.2, -0.5]]),
           2: DenseOp(MIX3)}
    return OperatorFamily(ops, L2_3, L2_3, 1.5), RegVarDist(1.5, 1.0, SphereUniform(L2_3))


def test_joint_rejection_lag_frequencies_match_independent_constants():
    fam, base = _dense_l2_sphere_case()
    sampler = LinearProcessSpectral(fam, base, rng=np.random.default_rng(60))
    n = 200_000
    origin = sampler.sample(n, 0, 0, np.random.default_rng(61)).origin
    # c_n from 4e6 angle draws of a stream the sampler never sees, in chunks,
    # with the delta-method stderr of p_n = c_n / sum c from running moments
    rng = np.random.default_rng(62)
    k, m, chunks = len(fam.lags), 500_000, 8
    sums, cross = np.zeros(k), np.zeros((k, k))
    for _ in range(chunks):
        theta = base.angle.sample(m, rng)
        v = np.stack([fam.norms(theta, j) ** fam.alpha for j in range(k)])
        sums += v.sum(axis=1)
        cross += v @ v.T
    draws = m * chunks
    c = sums / draws
    cov = (cross / draws - np.outer(c, c)) / draws  # covariance of the means
    p = c / c.sum()
    for j, lag in enumerate(fam.indices):
        grad = (np.eye(k)[j] - p[j]) / c.sum()  # d p_j / d c
        se = np.sqrt(p[j] * (1 - p[j]) / n + grad @ cov @ grad)
        assert abs(np.mean(origin == lag) - p[j]) <= 3 * se, lag


def test_series_constants_p_stderr_matches_replication_spread():
    assert np.all(series_constants(family_from_coeffs([1.0, 0.5], 1.0, R1), POS).p_stderr == 0)
    fam, base = _dense_l2_sphere_case()
    reps = [series_constants(fam, base, 2000, np.random.default_rng([63, i]))
            for i in range(200)]
    spread = np.std([r.p for r in reps], axis=0, ddof=1)
    # the spread of 200 replications is within 15% (3 of its own se) of the truth
    np.testing.assert_allclose(np.mean([r.p_stderr for r in reps], axis=0), spread, rtol=0.15)


def test_joint_rejection_acceptance_rate_is_ratio_of_sums(monkeypatch):
    fam, base = _stacked_case("dense_chain")  # atomic angles: closed-form c_n
    sampler = LinearProcessSpectral(fam, base)
    counts = np.zeros(2)

    def counting(v, bound, alpha, rng):
        accept = _tilt_accept(v, bound, alpha, rng)
        counts[:] += (len(v), accept.sum())
        return accept

    monkeypatch.setattr(spectral, "_tilt_accept", counting)
    sampler.sample(200_000, 0, 0, np.random.default_rng(64))
    proposed, accepted = counts
    bounds = np.array([fam.norm_bound(n).value for n in fam.indices])
    target = sampler.consts.c.sum() / np.sum(bounds**fam.alpha)
    assert target < 0.9
    assert abs(accepted / proposed - target) <= 3 * np.sqrt(target * (1 - target) / proposed)
    # given the proposed lag, acceptance is c_n / B_n^alpha
    np.testing.assert_allclose(list(sampler.acceptance_rates().values()),
                               sampler.consts.c / bounds**fam.alpha, rtol=1e-15)


@pytest.mark.parametrize("preset", list_presets())
def test_lag_cdf_draws_equal_rng_choice(preset):
    # sample() draws its lag positions from a CDF built once, as rng.choice does per call
    sampler = load_config(preset).window_sampler()
    for seed in range(50):
        want = np.random.default_rng(seed).choice(len(sampler._lag_p), 36_000, p=sampler._lag_p)
        u = np.random.default_rng(seed).random(36_000)
        got = sampler._lag_cdf.searchsorted(u, side="right")
        assert got.dtype == want.dtype and _bits(got) == _bits(want)


class _FixedBatch:
    """A window sampler that returns one prepared batch."""

    def __init__(self, wb, alpha):
        self.wb, self.alpha, self.space = wb, alpha, wb.space

    def sample(self, n, back, fwd, rng):
        return self.wb


@pytest.mark.parametrize("case", ["seqspace", "shared_embedding", "l1.5"])
def test_time_change_rhs_axis_form_equals_dense(case):
    if case == "l1.5":
        ops = {n: EmbeddingOp(n % 8, 8) for n in range(10)}
        fam = OperatorFamily(ops, R1, lp_norm(8, 1.5), 1.1)
        base = RegVarDist(1.1, 1.0, Rademacher(0.5))
    else:
        fam, base = _stacked_case(case)
    sampler = LinearProcessSpectral(fam, base, rng=np.random.default_rng(50))
    wb = sampler.sample(6000, 0, 2, np.random.default_rng(51))
    dense = WindowBatch(wb.values, 0, 2, wb.space, origin=wb.origin)
    assert wb.coord is not None and dense.coord is None
    assert np.any(wb.norm_at(1) == 0)  # windows past the family edge are in the batch
    for label, f in _tc_battery(sampler.space, 1, 1, sampler.alpha):
        got = time_change_rhs_samples(_FixedBatch(wb, sampler.alpha), f, 1, 1, 6000, None)
        want = time_change_rhs_samples(_FixedBatch(dense, sampler.alpha), f, 1, 1, 6000, None)
        assert _bits(got) == _bits(want), label
    nz = wb.norm_at(1) > 0
    shifted = wb.divided(nz, wb.norm_at(1)[nz], 1)
    assert shifted.coord is not None and (shifted.back, shifted.fwd) == (1, 1)
    assert _bits(shifted.norms()) == _bits(wb.space.norm(shifted.values))
