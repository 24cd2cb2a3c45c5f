import numpy as np
import pytest

from heavytail.rv import Rademacher, RegVarDist
from heavytail.spaces import DomainError, ScalarOp, max_norm
from heavytail.spectral import AR1Spectral, LinearProcessSpectral, family_from_coeffs
from heavytail.summaries import (
    LinearFunctional,
    extremal_index,
    extremogram_limit,
    isometry_family_extremal_index,
    joint_survival_limit,
    ma_real_specials,
    seq_identity_check,
    tail_dependence,
)

R1 = max_norm(1)
ID1 = LinearFunctional((1.0,))


def make_sampler(coeffs, alpha=1.0, p_plus=1.0):
    base = RegVarDist(alpha, 1.0, Rademacher(p_plus))
    fam = family_from_coeffs(list(coeffs), alpha, R1)
    return LinearProcessSpectral(fam, base)


# ---------------------------------------------------------------------------
# joint survival


def test_joint_survival_singleton_is_one():
    res = joint_survival_limit(make_sampler([1.0]), [0], functionals=[ID1],
                               n=2000, rng=np.random.default_rng(1))
    assert res.value == 1.0  # (Theta_0)_+ = 1 on every draw for positive signs


def test_joint_survival_iid_pair_is_zero():
    res = joint_survival_limit(make_sampler([1.0]), [0, 1], functionals=[ID1, ID1],
                               n=2000, rng=np.random.default_rng(2))
    assert res.value == 0.0


def test_joint_survival_ma2():
    # oracle: mixture arithmetic sum_n min(a_n, a_{n+1}) / sum_n a_n = 1/2
    a = np.array([1.0, 1.0, 0.0])
    oracle = np.minimum(a[:-1], a[1:]).sum() / a.sum()
    assert oracle == 0.5
    res = joint_survival_limit(make_sampler([1.0, 1.0]), [0, 1],
                               functionals=[ID1, ID1], n=50_000,
                               rng=np.random.default_rng(3))
    assert abs(res.value - 0.5) < 3 * res.stderr


def test_joint_survival_norm_mode():
    res = joint_survival_limit(make_sampler([1.0, 1.0]), [0, 1],
                               norm_weights=[1.0, 1.0], n=50_000,
                               rng=np.random.default_rng(4))
    assert abs(res.value - 0.5) < 3 * res.stderr


def test_joint_survival_time_shift_consistency():
    # conditioning at 0 versus at t: same limit through the time-change identity
    s = make_sampler([1.0, 0.8, 0.6], alpha=2.0)
    a = joint_survival_limit(s, [0, 1], functionals=[ID1, ID1], n=60_000,
                             rng=np.random.default_rng(5))
    b = joint_survival_limit(s, [-1, 0], functionals=[ID1, ID1], n=60_000,
                             rng=np.random.default_rng(6))
    assert abs(a.value - b.value) < 3 * np.sqrt(a.stderr**2 + b.stderr**2)


def test_joint_survival_requires_zero_in_index_set():
    with pytest.raises(DomainError):
        joint_survival_limit(make_sampler([1.0]), [1, 2], functionals=[ID1, ID1],
                             n=100, rng=np.random.default_rng(7))


# ---------------------------------------------------------------------------
# tail dependence


def test_tail_dependence_iid_and_lag_zero():
    s = make_sampler([1.0])
    res = tail_dependence(s, 1, b=ID1, n=5000, rng=np.random.default_rng(8))
    assert res.value == 0.0
    res0 = tail_dependence(s, 0, b=ID1, n=5000, rng=np.random.default_rng(9))
    assert res0.value == pytest.approx(1.0)


def test_tail_dependence_ma2():
    oracle = ma_real_specials([1.0, 1.0], 1.0, 1.0).tail_dep(1)
    assert oracle == 0.5
    res = tail_dependence(make_sampler([1.0, 1.0]), 1, b=ID1, n=50_000,
                          rng=np.random.default_rng(10))
    assert abs(res.value - 0.5) < 3 * res.stderr


def test_tail_dependence_lag_symmetry():
    s = make_sampler([1.0, 0.8, 0.6], alpha=1.0)
    plus = tail_dependence(s, 2, b=ID1, n=50_000, rng=np.random.default_rng(11))
    minus = tail_dependence(s, -2, b=ID1, n=50_000, rng=np.random.default_rng(12))
    assert abs(plus.value - minus.value) < 3 * np.sqrt(plus.stderr**2 + minus.stderr**2)


def test_tail_dependence_norm_mode_matches_dual_for_positive_series():
    s = make_sampler([1.0, 1.0])
    res = tail_dependence(s, 1, mode="norm", n=50_000, rng=np.random.default_rng(13))
    assert abs(res.value - 0.5) < 3 * res.stderr


def test_tail_dependence_undefined_denominator():
    # all-negative spectral signs make (b.Theta_0)_+ vanish
    s = make_sampler([1.0], p_plus=0.0)
    with pytest.raises(DomainError):
        tail_dependence(s, 1, b=ID1, n=2000, rng=np.random.default_rng(14))


# ---------------------------------------------------------------------------
# extremogram


def test_extremogram_iid_lag_one():
    s = make_sampler([1.0])
    res = extremogram_limit(s, 1.0, 1.0, 1, n=5000, rng=np.random.default_rng(15))
    assert res.value == 0.0


def test_extremogram_lag_zero_norm_event():
    s = make_sampler([1.0, 1.0])
    res = extremogram_limit(s, 1.0, 1.0, 0, n=5000, rng=np.random.default_rng(16))
    assert res.value == pytest.approx(1.0)  # ||Y_0|| = Y > 1 a.s.


def test_extremogram_ma2_positive():
    # oracle: Y_1 = Y 1{N=0}; Pr(N=0, Y > 1) = 1/2
    s = make_sampler([1.0, 1.0])
    res = extremogram_limit(s, 1.0, 1.0, 1, n=50_000, rng=np.random.default_rng(27))
    assert abs(res.value - 0.5) < 3 * res.stderr


def test_extremogram_requires_bounded_away_event():
    s = make_sampler([1.0])
    with pytest.raises(DomainError):
        extremogram_limit(s, 0.5, 1.0, 1, n=100, rng=np.random.default_rng(18))


# ---------------------------------------------------------------------------
# extremal index


def test_extremal_index_iid_is_one():
    res = extremal_index(make_sampler([1.0]), mode="norm", n=2000,
                         rng=np.random.default_rng(20))
    assert res.value == 1.0 and res.stderr == 0.0


def test_extremal_index_ma2_norm_mode():
    oracle = isometry_family_extremal_index([1.0, 1.0], 2.0)
    assert oracle == 0.5
    res = extremal_index(make_sampler([1.0, 1.0], alpha=2.0), mode="norm",
                         n=50_000, rng=np.random.default_rng(21))
    assert abs(res.value - 0.5) < 3 * res.stderr


def test_extremal_index_ma3_dual_mode():
    # oracle: 1 / (1 + 0.8^2 + 0.6^2) = 0.5
    oracle = ma_real_specials([1.0, 0.8, 0.6], 2.0, 1.0).theta_plus
    assert oracle == pytest.approx(0.5)
    res = extremal_index(make_sampler([1.0, 0.8, 0.6], alpha=2.0), mode="dual",
                         b=ID1, n=50_000, rng=np.random.default_rng(22))
    assert abs(res.value - 0.5) < 3 * res.stderr
    assert 0.0 <= res.value <= 1.0


def test_extremal_index_ar1_with_horizon():
    sampler = AR1Spectral(ScalarOp(0.5, 1), RegVarDist(1.0, 1.0, Rademacher(1.0)),
                          horizon=40)
    res = extremal_index(sampler, mode="norm", m_horizon=20, n=50_000,
                         rng=np.random.default_rng(23))
    # scalar contraction: sup_{t>=1} ||Theta_t|| = 0.5 on every sample, so the
    # estimate is exactly 1 - 0.5 with zero spread
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_extremal_index_horizon_too_short():
    s = make_sampler([1.0, 0.8, 0.6])
    with pytest.raises(DomainError):
        extremal_index(s, mode="norm", m_horizon=1, n=100,
                       rng=np.random.default_rng(24))


# ---------------------------------------------------------------------------
# moving-average closed forms


def test_ma_specials_examples():
    iid = ma_real_specials([1.0], 1.7, 0.3)
    assert iid.prob_theta0_plus == pytest.approx(0.3)
    assert iid.theta_plus == 1.0

    alt = ma_real_specials([1.0, -1.0], 1.0, 1.0)
    assert alt.prob_theta0_plus == pytest.approx(0.5)
    assert alt.theta_plus == pytest.approx(1.0)

    ma2 = ma_real_specials([1.0, 1.0], 1.0, 1.0)
    assert ma2.theta_plus == pytest.approx(0.5)
    assert ma2.tail_dep(1) == pytest.approx(0.5)


def test_ma_specials_matches_monte_carlo_extremal_index():
    rec = ma_real_specials([1.0, 0.8, 0.6], 2.0, 1.0)
    res = extremal_index(make_sampler([1.0, 0.8, 0.6], alpha=2.0), mode="dual",
                         b=ID1, n=50_000, rng=np.random.default_rng(25))
    assert abs(res.value - rec.theta_plus) < 3 * res.stderr


def test_ma_specials_undefined_when_no_positive_mass():
    rec = ma_real_specials([-1.0], 1.0, 1.0)
    with pytest.raises(DomainError):
        rec.theta_plus
    with pytest.raises(DomainError):
        ma_real_specials([0.0, 0.0], 1.0, 0.5)


# ---------------------------------------------------------------------------
# suffix-sup identity


def test_seq_identity_examples():
    assert seq_identity_check([1.0]) == (0.0, 0.0)
    assert seq_identity_check([1.0, 1.0]) == (1.0, 1.0)
    assert seq_identity_check([3.0, 1.0, 2.0]) == (3.0, 3.0)


def test_seq_identity_random_sequences():
    rng = np.random.default_rng(26)
    for _ in range(1000):
        a = rng.uniform(0.0, 5.0, size=rng.integers(1, 21))
        lhs, rhs = seq_identity_check(a)
        assert abs(lhs - rhs) <= 1e-12


def test_seq_identity_rejects_negative():
    with pytest.raises(DomainError):
        seq_identity_check([1.0, -1.0])
