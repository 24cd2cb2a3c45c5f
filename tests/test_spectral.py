import numpy as np
import pytest
from scipy.integrate import quad

from heavytail.rv import Atomic, Rademacher, RegVarDist, SphereUniform
from heavytail.spaces import (
    DenseOp,
    DiagonalOp,
    DomainError,
    ScalarOp,
    lp_norm,
    max_norm,
    op_power,
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
    window_mean,
    _tilt_accept,
)

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
    c, se = pushforward_constant(DiagonalOp([0.0, 1.0]), base, space)
    assert (c, se) == (0.0, 0.0)

    lam2 = Atomic([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], space)
    base2 = RegVarDist(2.0, 1.0, lam2)
    # oracle: direct average of ||A theta||^alpha over the two atoms
    A = DiagonalOp([1.0, 0.0])
    oracle = 0.5 * space.norm(A.apply(np.array([1.0, 0.0]))) ** 2 + 0.5 * 0.0
    assert oracle == 0.5
    c, se = pushforward_constant(A, base2, space)
    assert (c, se) == (0.5, 0.0)


def test_pushforward_constant_monte_carlo():
    space = lp_norm(2, 2)
    base = RegVarDist(2.0, 1.0, SphereUniform(space))
    A = DiagonalOp([1.0, 0.0])
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
    push = PushforwardAngle(base, DiagonalOp([1.0, 0.0]), space)
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
    push = PushforwardAngle(base, DiagonalOp([1.0, 0.0]), space)
    draws = push.sample(5000, np.random.default_rng(7))
    np.testing.assert_allclose(draws, np.tile([1.0, 0.0], (5000, 1)))
    # A = diag(1, 0.25) has the same norm tilt (1, 0.5) but distinct images,
    # so the 1/3 source probability is observable from the second coordinate
    A = DiagonalOp([1.0, 0.25])
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
    push = PushforwardAngle(base, DiagonalOp([1.0, 0.0]), space, max_trials=10_000)
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
    A = DiagonalOp([1.0, 0.25])
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
    a, _ = window_mean(sampler, f, 0, 1, 20_000, np.random.default_rng(29))
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
        lhs, se_l = window_mean(sampler, f, 1, 1, 40_000, np.random.default_rng(100 + i))
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
    sub = wb.subwindow(0, 1)
    np.testing.assert_array_equal(sub.slot(0), wb.slot(0))


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
