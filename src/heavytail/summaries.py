"""Extremal summary functionals: joint survival limits, tail dependence,
extremogram, extremal indices, and the closed forms for real moving averages.

Monte Carlo estimators consume a spectral-window sampler (see
``heavytail.spectral``); ratio estimators report delta-method standard
errors from the joint covariance of numerator and denominator.  Closed
forms are evaluated exactly with stderr 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import DimensionError, DomainError
from .spectral import _mean_with_se, tail_windows

__all__ = [
    "LinearFunctional",
    "LimitFunctionalResult",
    "joint_survival_limit",
    "tail_dependence",
    "extremogram_limit",
    "extremal_index",
    "isometry_family_extremal_index",
    "MARealSpecials",
    "ma_real_specials",
    "seq_identity_check",
]


@dataclass(frozen=True)
class LinearFunctional:
    """Coordinate pairing x -> sum(coeffs * x)."""

    coeffs: tuple

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise DomainError("functional coefficients must be a finite 1-d sequence")
        object.__setattr__(self, "coeffs", tuple(float(x) for x in c))

    @property
    def array(self):
        return np.asarray(self.coeffs, dtype=float)

    def pair(self, values):
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != len(self.coeffs):
            raise DimensionError("functional/vector dimension mismatch")
        return values @ self.array

    def is_zero(self):
        return not np.any(self.array)


@dataclass(frozen=True)
class LimitFunctionalResult:
    """Monte Carlo value of a limit functional, its standard error (0 when the
    integrand is degenerate) and the inputs that produced it."""

    value: float
    stderr: float
    inputs: dict


def _ratio_with_se(num, den):
    """Delta-method mean ratio and stderr from paired samples."""
    n = len(num)
    mn, md = num.mean(), den.mean()
    if md == 0:
        raise DomainError("ratio denominator is zero")
    r = mn / md
    cov = np.cov(num, den, ddof=1) if n > 1 else np.zeros((2, 2))
    var = (cov[0, 0] - 2 * r * cov[0, 1] + r * r * cov[1, 1]) / (n * md * md)
    return float(r), float(np.sqrt(max(var, 0.0)))


def joint_survival_limit(sampler, index_set, functionals=None, norm_weights=None,
                         n=100_000, *, rng):
    """Limit of joint survival probabilities relative to the marginal tail.

    Dual mode (``functionals``): E min_{i in I} (b_i . Theta_i)_+^alpha for
    one nonzero pairing per index.  Norm mode (``norm_weights``): positive
    scalars b_i, target E min_i b_i^alpha ||Theta_i||^alpha.
    """
    alpha = sampler.alpha
    idx = sorted(set(int(i) for i in index_set))
    if 0 not in idx:
        raise DomainError("index set must contain 0")
    if (functionals is None) == (norm_weights is None):
        raise DomainError("pass exactly one of functionals / norm_weights")
    back = max(0, -idx[0])
    fwd = max(0, idx[-1])
    wb = sampler.sample(n, back, fwd, rng)
    if functionals is not None:
        if len(functionals) != len(idx):
            raise DomainError("one functional per index required")
        for b in functionals:
            if b.is_zero():
                raise DomainError("functionals must be nonzero")
        cols = [
            np.maximum(b.pair(wb.slot(i)), 0.0) ** alpha
            for i, b in zip(idx, functionals)
        ]
        mode = "dual"
    else:
        weights = np.asarray(norm_weights, dtype=float)
        if len(weights) != len(idx) or np.any(weights <= 0):
            raise DomainError("one positive weight per index required")
        cols = [w**alpha * wb.norm_at(i) ** alpha for i, w in zip(idx, weights)]
        mode = "norm"
    values = np.min(np.column_stack(cols), axis=1)
    return LimitFunctionalResult(
        *_mean_with_se(values),
        {"stat": "joint_survival", "mode": mode, "indices": idx, "alpha": alpha, "n": n},
    )


def tail_dependence(sampler, h, b=None, mode="dual", n=100_000, *, rng):
    """Coefficient of upper tail dependence at lag h.

    Dual mode: E min{(b.Theta_0)_+^alpha, (b.Theta_h)_+^alpha} / E (b.Theta_0)_+^alpha.
    Norm mode: E min(||Theta_h||^alpha, 1) (the denominator E ||Theta_0||^alpha is 1).
    """
    alpha = sampler.alpha
    back, fwd = max(0, -h), max(0, h)
    wb = sampler.sample(n, back, fwd, rng)
    inputs = {"stat": "tail_dependence", "mode": mode, "h": h, "alpha": alpha, "n": n}
    if mode == "norm":
        values = np.minimum(wb.norm_at(h) ** alpha, 1.0)
        return LimitFunctionalResult(*_mean_with_se(values), inputs)
    if b is None or b.is_zero():
        raise DomainError("dual mode needs a nonzero functional")
    x0 = np.maximum(b.pair(wb.slot(0)), 0.0) ** alpha
    xh = np.maximum(b.pair(wb.slot(h)), 0.0) ** alpha
    den_mean, den_se = _mean_with_se(x0)
    if den_mean <= 3 * den_se:
        raise DomainError(
            "tail dependence undefined: denominator not distinguishable from zero"
        )
    value, se = _ratio_with_se(np.minimum(x0, xh), x0)
    return LimitFunctionalResult(value, se, inputs)


def extremogram_limit(sampler, threshold_a, threshold_b, h, n=100_000, *, rng):
    """Extremogram value Pr(||Y_0|| > threshold_a, ||Y_h|| > threshold_b) over
    tail windows.

    ``threshold_a`` must be at least 1: the event must lie in {||x|| > 1}, the
    conditioning event of the tail process.
    """
    if threshold_a < 1.0:
        raise DomainError("event A must be bounded away from the unit ball")
    back, fwd = max(0, -h), max(0, h)
    tb = tail_windows(sampler, n, back, fwd, rng)
    hits = (sampler.space.norm(tb.values_at(0)) > threshold_a) & (
        sampler.space.norm(tb.values_at(h)) > threshold_b
    )
    p = float(hits.mean())
    se = float(np.sqrt(p * (1.0 - p) / n))
    return LimitFunctionalResult(p, se, {"stat": "extremogram", "h": h, "n": n})


def extremal_index(sampler, mode="norm", b=None, m_horizon=None, n=100_000, *, rng):
    """Extremal index via the sup-difference form (numerically stable, in [0,1]).

    Norm mode: E[ sup_{0<=t<=m} ||Theta_t||^alpha - sup_{1<=t<=m} ||Theta_t||^alpha ].
    Dual mode: same with (b.Theta_t)_+^alpha, divided by E (b.Theta_0)_+^alpha.
    ``m_horizon`` must cover the forward support of the spectral process; it
    is checked against the sampler's forward extent when that is finite.
    """
    alpha = sampler.alpha
    extent = getattr(sampler, "forward_extent", None)
    if m_horizon is None:
        if extent is None:
            raise DomainError("sampler has unbounded forward support; pass m_horizon")
        m_horizon = extent
    if extent is not None and m_horizon < extent:
        raise DomainError(
            f"m_horizon {m_horizon} shorter than forward extent {extent}"
        )
    wb = sampler.sample(n, 0, m_horizon, rng)
    inputs = {"stat": "extremal_index", "mode": mode, "m": m_horizon, "alpha": alpha, "n": n}
    if mode == "norm":
        future = wb.norms()[:, 1:] ** alpha
        sup1 = np.max(future, axis=1, initial=0.0)  # sup {} = 0 at m = 0
        values = np.maximum(1.0, sup1) - sup1
        return LimitFunctionalResult(*_mean_with_se(values), inputs)
    if b is None or b.is_zero():
        raise DomainError("dual mode needs a nonzero functional")
    scores = np.maximum(b.pair(wb.values), 0.0) ** alpha  # (n, m+1)
    sup0 = np.max(scores, axis=1)
    sup1 = np.max(scores[:, 1:], axis=1, initial=0.0)
    den = scores[:, 0]
    if den.mean() <= 0:
        raise DomainError("extremal index undefined: denominator vanishes")
    value, se = _ratio_with_se(sup0 - sup1, den)
    return LimitFunctionalResult(value, se, inputs)


def isometry_family_extremal_index(norms, alpha):
    """Closed-form norm extremal index when every T_n / ||T_n|| is an isometry:
    sup_n ||T_n||^alpha / sum_n ||T_n||^alpha."""
    a = np.abs(np.asarray(norms, dtype=float)) ** alpha
    total = a.sum()
    if total <= 0:
        raise DomainError("all operator norms vanish")
    return float(a.max() / total)


@dataclass(frozen=True)
class MARealSpecials:
    """Closed forms for the real moving average X_t = sum_n a_n Z_{t-n}.

    ``p_plus`` is the probability that the innovation sign is +1.  The
    spectral sign is sign(a_N) * Theta^Z with Pr(N = n) proportional to
    |a_n|^alpha, which gives every quantity below by direct arithmetic.
    Quantities with a vanishing denominator raise on access.
    """

    coeffs: tuple
    alpha: float
    p_plus: float

    def _signed_powers(self):
        a = np.asarray(self.coeffs, dtype=float)
        plus = np.maximum(a, 0.0) ** self.alpha
        minus = np.maximum(-a, 0.0) ** self.alpha
        return plus, minus

    @property
    def prob_theta0_plus(self):
        """Pr(Theta_0 = +1): the positive share of the spectral sign."""
        plus, minus = self._signed_powers()
        p, q = self.p_plus, 1.0 - self.p_plus
        return float((p * plus.sum() + q * minus.sum()) / (plus.sum() + minus.sum()))

    @property
    def theta_plus(self):
        """Extremal index of the series in the positive direction."""
        plus, minus = self._signed_powers()
        p, q = self.p_plus, 1.0 - self.p_plus
        den = p * plus.sum() + q * minus.sum()
        if den <= 0:
            raise DomainError("extremal index undefined: no positive tail mass")
        return float((p * plus.max() + q * minus.max()) / den)

    def tail_dep(self, h):
        """Upper tail dependence of (X_0, X_h) for the positive direction."""
        plus, minus = self._signed_powers()
        p, q = self.p_plus, 1.0 - self.p_plus
        den = p * plus.sum() + q * minus.sum()
        if den <= 0:
            raise DomainError("tail dependence undefined: no positive tail mass")
        h = abs(int(h))
        pad = np.concatenate([plus, np.zeros(h)])
        mad = np.concatenate([minus, np.zeros(h)])
        num = p * np.minimum(pad[h:], pad[: len(pad) - h]).sum()
        num += q * np.minimum(mad[h:], mad[: len(mad) - h]).sum()
        return float(num / den)


def ma_real_specials(coeffs, alpha, p_plus):
    """Closed-form record for a real moving average (no Monte Carlo)."""
    a = np.asarray(coeffs, dtype=float)
    if not 0.0 <= p_plus <= 1.0:
        raise DomainError("p_plus must be a probability")
    if np.sum(np.abs(a) ** alpha) <= 0:
        raise DomainError("all coefficients vanish")
    return MARealSpecials(tuple(float(x) for x in a), float(alpha), float(p_plus))


def seq_identity_check(a):
    """Both sides of the identity sum_n min(a_n, sup_{t>=1} a_{n+t}) = sum a - max a.

    Valid for finite nonnegative sequences; backs the extremal-index
    arithmetic as a pure property check.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise DomainError("need a nonempty 1-d sequence")
    if np.any(a < 0):
        raise DomainError("sequence must be nonnegative")
    lhs = 0.0
    for i in range(len(a)):
        suffix_sup = a[i + 1 :].max() if i + 1 < len(a) else 0.0
        lhs += min(a[i], suffix_sup)
    rhs = float(a.sum() - a.max())
    return float(lhs), rhs
