"""Spectral-process machinery for heavy-tailed linear models.

This module carries the algorithmic core of the library:

* ``OperatorFamily``: the lags' operators stacked once (scalar, embedding
  or dense) for their images, norms and running sum;
* push-forward of a spectral measure under a bounded linear operator,
  via rejection against an operator-norm envelope;
* per-lag tail constants ``c_n = E ||T_n Theta||^alpha`` of an operator
  family and the mixture probabilities ``p_n = c_n / sum c`` they induce,
  the targets of the checks (the samplers do not read them);
* exact window samplers for the spectral process of linear processes,
  first-order autoregressions, and operator images of either; windows of an
  embedding family come in the sparse axis form of ``WindowBatch`` (one
  coefficient and one coordinate per slot), which the time-change
  right-hand side and the window CSV use without building dense values;
* tail windows (independent Pareto radius attached) and cluster windows
  (conditioned on no exceedance in the strict past);
* the time-change right-hand side and the finite-window limit-measure
  evaluator, both used by the verification suites.

Every sampler is one rejection against an envelope; the window sampler draws
the lag and the innovation angle jointly (see ``LinearProcessSpectral``), so
it needs no tail constant.  The default envelope is ``op_norm_bound``, exact
or certified, so it only affects efficiency; a drawn proposal above a
caller-supplied envelope raises SamplingError rather than bias the law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rv import SpectralSampler, pareto_sample
from .spaces import (
    ContractionCertificate,
    DimensionError,
    DomainError,
    OperatorNormBound,
    ScalarOp,
    op_norm_bound,
    op_power,
    weighted_l1_norm,
    EmbeddingOp,
)
from .windows import TailBatch, WindowBatch

__all__ = [
    "SamplingError",
    "OperatorFamily",
    "family_from_coeffs",
    "sequence_space_family",
    "SeriesConstants",
    "pushforward_constant",
    "series_constants",
    "PushforwardAngle",
    "LinearProcessSpectral",
    "AR1Spectral",
    "TransformedSpectral",
    "tail_windows",
    "cluster_windows",
    "time_change_rhs",
    "time_change_rhs_samples",
    "limit_measure_mass",
    "limit_measure_samples",
]

DEFAULT_MAX_TRIALS = 10**6

# Angle draws behind Monte Carlo tail constants of a window sampler.
_N_MC_CONSTANTS = 100_000


class SamplingError(RuntimeError):
    """Rejection sampling did not reach its acceptance quota."""


def _rejection_collect(n, propose, rng, max_trials, label):
    """Collect n accepted draws from ``propose(m, rng) -> (mask, payload)``.

    The proposal budget is ``max_trials`` plus 20 proposals per requested
    draw; exhausting it raises SamplingError carrying the observed
    acceptance rate.  At n = 0 the one proposal has size zero, which gives
    correctly shaped empty results and draws nothing from ``rng``.  One round
    that fills the quota is returned without a joining copy.
    """
    budget = max_trials + 20 * n
    parts, accepted, proposed = [], 0, 0
    while True:
        need = n - accepted
        rate = accepted / proposed if proposed else 1.0
        m = int(np.ceil(need / max(rate, 1e-3) * 1.1))
        m = max(need, min(m, budget - proposed, 4_000_000))
        mask, payload = propose(m, rng)
        parts.append(tuple(p[mask] for p in payload))
        accepted += int(mask.sum())
        proposed += m
        if accepted >= n:
            break
        if proposed >= budget:
            raise SamplingError(
                f"{label}: acceptance rate ~{accepted / proposed:.3e} too low after "
                f"{proposed} proposals ({accepted}/{n} accepted)"
            )
    joined = parts[0] if len(parts) == 1 else [np.concatenate(col) for col in zip(*parts)]
    return tuple(x[:n] for x in joined)


def _tilt_accept(v, bound, alpha, rng):
    """Accept each proposal of norm ``v`` with probability (v / bound)^alpha,
    drawing one uniform per proposal; ``bound`` is one value or one per
    proposal.  A norm above its bound beyond rounding would bias the law, so
    it raises before drawing."""
    worst = float(np.max(v / bound, initial=0.0))
    if worst > 1.0 + 1e-9:
        raise SamplingError(f"a proposal norm exceeds the envelope bound {worst!r}-fold, "
                            f"which is therefore not an upper bound")
    u = rng.random(len(v))
    return (v > 0) & (u * bound**alpha <= v**alpha)


@dataclass
class OperatorFamily:
    """Indexed family {T_n} over a finite lag window, with norm bounds.

    The operators at the sorted ``lags`` are stacked once into one ``kind``:
    ``scalar`` (coefficients a_n), ``embedding`` (the index of z -> z * e_index)
    or ``dense`` (matrices).  ``images``, ``norms`` and ``accumulate`` name a lag by
    its position in ``lags``: one for all rows, or (``images``, ``norms``) one per
    row.  At one position they equal ``apply`` and ``norm`` byte for byte;
    embedding norms build no images.
    """

    ops: dict
    domain: "NormSpec"
    codomain: "NormSpec"
    alpha: float
    _bounds: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.ops:
            raise DomainError("operator family must be nonempty")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")
        for n, op in self.ops.items():
            if op.in_dim != self.domain.dim or op.out_dim != self.codomain.dim:
                raise DimensionError(f"operator at lag {n} has inconsistent dims")
        self.lags = np.array(sorted(self.ops))
        self.indices = self.lags.tolist()
        self.extent = self.indices[-1] - self.indices[0]
        members = [self.ops[n] for n in self.lags]
        if all(isinstance(op, ScalarOp) for op in members):
            self.kind, self.stack = "scalar", np.array([op.a for op in members])
        elif all(isinstance(op, EmbeddingOp) for op in members):
            self.kind, self.stack = "embedding", np.array([op.index for op in members])
        else:
            self.kind, self.stack = "dense", np.array([op.as_matrix() for op in members])

    def images(self, z, pos):
        """Row i of the result is T_n z[i], n = lags[pos] (or lags[pos[i]]), shape
        (len(z), d_out).  Dense rows are grouped by lag, one matrix product each."""
        if self.kind == "scalar":
            return z * np.reshape(self.stack[pos], (-1, 1))
        if self.kind == "embedding":
            out = np.zeros((len(z), self.codomain.dim))
            out[np.arange(len(z)), self.stack[pos]] = z[:, 0]
            return out
        if np.ndim(pos) == 0:
            return z @ self.stack[pos].T
        out = np.empty((len(z), self.codomain.dim))
        for k in np.flatnonzero(np.bincount(pos)):
            rows = np.flatnonzero(pos == k)
            out[rows] = z[rows] @ np.ascontiguousarray(self.stack[k].T)  # C order: faster
        return out

    def norms(self, z, pos):
        """||T_n z[i]|| for the same lags, shape (len(z),)."""
        if self.kind == "embedding":
            return self.codomain.axis_norms(z[:, 0], self.stack[pos])
        return self.codomain.norm(self.images(z, pos))

    def accumulate(self, out, k, z):
        """Add T_n z, n = lags[k], into ``out`` and return ||T_n z||."""
        if self.kind == "embedding":
            out[:, self.stack[k]] += z[:, 0]
            return self.norms(z, k)
        img = self.images(z, k)
        out += img
        return self.codomain.norm(img)

    @classmethod
    def powers(cls, cert, alpha):
        """The family {T^n : n <= horizon} of a contraction certificate."""
        ops, bounds = dict(enumerate(cert.powers)), dict(enumerate(cert.bounds))
        return cls(ops, cert.space, cert.space, alpha, _bounds=bounds)

    def norm_bound(self, n) -> OperatorNormBound:
        if n not in self._bounds:
            self._bounds[n] = op_norm_bound(self.ops[n], self.domain, self.codomain)
        return self._bounds[n]

    def summability(self):
        """sum_n ||T_n||^delta over the window (norm-bound values), at the
        summability exponent delta = min(alpha, 1) / 2.  For a finite window
        the sum is always finite; it is reported as the truncation proxy for
        the infinite-family condition."""
        delta = min(self.alpha, 1.0) / 2.0
        return float(sum(self.norm_bound(n).value ** delta for n in self.ops))


def family_from_coeffs(coeffs, alpha, space, start=0):
    """Family of scalar multiples a_n * Id at lags start, start+1, ..."""
    ops = {start + i: ScalarOp(a, space.dim) for i, a in enumerate(coeffs)}
    return OperatorFamily(ops, space, space, alpha)


def sequence_space_family(weights, alpha):
    """Coordinate embeddings z -> z * e_n into the weighted-l1 space of ``weights``."""
    space = weighted_l1_norm(weights)
    ops = {n: EmbeddingOp(n, space.dim) for n in range(space.dim)}
    domain = weighted_l1_norm((1.0,))
    return OperatorFamily(ops, domain, space, alpha)


def _mean_with_se(values):
    """Monte Carlo mean of ``values`` and its standard error."""
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def _tail_constants(fam, base, n_mc, rng):
    """Arrays (c, stderr) of c_n = E ||T_n Theta||^alpha over ``fam.lags``: closed
    form where one exists, else Monte Carlo over one shared set of angle draws.
    The third value maps each Monte Carlo lag position to its per-draw values."""
    c, se = np.zeros((2, len(fam.lags)))
    atoms = base.angle.atoms()
    mc, draws = [], {}
    for k, n in enumerate(fam.lags):
        if atoms is not None:
            c[k] = atoms[1] @ fam.norms(atoms[0], k) ** fam.alpha
        else:
            scale = fam.ops[n].isometry_scale(base.angle.space, fam.codomain)
            if scale is not None:
                c[k] = scale**fam.alpha
            else:
                mc.append(k)
    if mc:
        if n_mc is None or rng is None:
            raise DomainError("family needs Monte Carlo constants; pass n_mc and rng")
        theta = base.angle.sample(n_mc, rng)
        for k in mc:
            draws[k] = fam.norms(theta, k) ** fam.alpha
            c[k], se[k] = _mean_with_se(draws[k])
    return c, se, draws


def pushforward_constant(A, base, codomain, n_mc=None, rng=None):
    """Tail constant of the operator image: c = E ||A Theta||^alpha, Theta ~ angle law.

    Closed form (stderr 0) when the angle law has finite support or the
    operator is a scaled isometry; otherwise a Monte Carlo average over
    ``n_mc`` angle draws with its standard error.
    """
    fam = OperatorFamily({0: A}, base.space, codomain, base.alpha)
    c, se, _ = _tail_constants(fam, base, n_mc, rng)
    return float(c[0]), float(se[0])


@dataclass(frozen=True)
class SeriesConstants:
    """Per-lag tail constants c_n and the mixture probabilities p_n = c_n / sum c,
    each with its Monte Carlo standard error (0 for closed forms)."""

    indices: tuple
    c: np.ndarray
    p: np.ndarray
    c_total: float
    stderr: np.ndarray
    p_stderr: np.ndarray


def series_constants(fam, base, n_mc=None, rng=None):
    """Tail constants of every family member, sharing one angle sample set.

    Common random numbers across lags reduce the variance of the p_n
    ratios; lags with a closed form are exact regardless.  The stderr of
    p_n is the delta-method one of the ratio of means over the shared draws.
    """
    c, se, draws = _tail_constants(fam, base, n_mc, rng)
    total = float(c.sum())
    if total <= 0:
        raise DomainError("degenerate operator family: all tail constants vanish")
    p, p_se = c / total, np.zeros(len(c))
    if draws:
        s = sum(draws.values())
        for k in range(len(c)):
            p_se[k] = _mean_with_se(draws.get(k, 0.0) - p[k] * s)[1] / total
    return SeriesConstants(tuple(fam.indices), c, p, total, se, p_se)


class PushforwardAngle(SpectralSampler):
    """Spectral measure of an operator image, sampled by rejection.

    Draw Theta from the base angle law and an independent uniform U;
    accept when U <= (||A Theta|| / bound)^alpha and return the unit
    vector A Theta / ||A Theta||.  ``bound`` must be an upper bound on the
    essential supremum of ||A Theta||; a larger one only lowers the
    acceptance rate.  The default, ``op_norm_bound``, is exact or certified;
    a drawn proposal above a caller-supplied ``bound`` raises SamplingError.
    """

    def __init__(self, base, operator, codomain, bound=None, max_trials=DEFAULT_MAX_TRIALS):
        if operator.in_dim != base.space.dim:
            raise DimensionError("operator does not accept the base angle dimension")
        if bound is None:
            bound = op_norm_bound(operator, base.space, codomain).value
        if bound <= 0:
            raise DomainError("operator image is degenerate at zero")
        self.base = base
        self.operator = operator
        self.bound = float(bound)
        self.alpha = base.alpha
        self.space = codomain
        self.max_trials = max_trials

    def sample(self, n, rng):
        def propose(m, rng):
            theta = self.base.angle.sample(m, rng)
            image = self.operator.apply(theta)
            v = self.space.norm(image)
            return _tilt_accept(v, self.bound, self.alpha, rng), (image, v)

        image, v = _rejection_collect(
            n, propose, rng, self.max_trials, "pushforward angle sampler"
        )
        return image / v[:, None]


class LinearProcessSpectral:
    """Window sampler for the spectral process of X_t = sum_i T_i Z_{t-i}.

    One joint rejection draws the mixture sum_n p_n kappa_n exactly: propose
    lag N with probability proportional to B_N^alpha (its norm bound) and theta
    from the base angle law, accept when U <= (||T_N theta|| / B_N)^alpha, and
    emit Theta_t = T_{N+t} theta / ||T_N theta||; lags outside the family act
    as zero.  ``consts`` (the c_n) are targets and diagnostics only.  Windows
    of an embedding family come in axis form.
    """

    def __init__(self, fam, base, rng=None, max_trials=DEFAULT_MAX_TRIALS):
        if base.space.dim != fam.domain.dim:
            raise DimensionError("innovation angle dimension does not match family domain")
        self.fam = fam
        self.base = base
        self.alpha = fam.alpha
        self.space = fam.codomain
        self.max_trials = max_trials
        self.consts = series_constants(fam, base, _N_MC_CONSTANTS, rng)
        self._bounds = np.array([fam.norm_bound(lag).value for lag in fam.indices])
        self._lag_p = self._bounds**self.alpha / np.sum(self._bounds**self.alpha)
        # rng.choice(p=_lag_p) draws searchsorted(cdf, U); built once, not per round
        self._lag_cdf = self._lag_p.cumsum()
        self._lag_cdf /= self._lag_cdf[-1]
        self.backward_extent = self.forward_extent = fam.extent

    def _window_family(self, top):
        """A family holding every lag a window can reach, up to lag ``top``."""
        return self.fam

    def sample(self, n, back, fwd, rng):
        """n windows Theta_{-back} .. Theta_{fwd}; in axis form for an embedding family."""

        def propose(m, rng):
            pos = self._lag_cdf.searchsorted(rng.random(m), side="right")
            theta = self.base.angle.sample(m, rng)
            v = self.fam.norms(theta, pos)
            return _tilt_accept(v, self._bounds[pos], self.alpha, rng), (pos, theta, v)

        pos, theta, denom = _rejection_collect(n, propose, rng, self.max_trials, "window sampler")
        picks = self.fam.lags[pos]
        fam = self._window_family(int(picks.max(initial=0)) + fwd)
        # per origin lag and slot: the slot lag's position in fam.lags, and whether it is one
        lag = self.fam.lags[:, None] + np.arange(-back, fwd + 1)
        at = np.minimum(np.searchsorted(fam.lags, lag), len(fam.lags) - 1)
        has = fam.lags[at] == lag
        if fam.kind == "embedding":
            scale = theta[:, 0] / denom  # theta / ||T_N theta|| of each window
            del theta, denom
            return WindowBatch.from_axes(
                np.where(has[pos], scale[:, None], 0.0), np.where(has, fam.stack[at], -1)[pos],
                back, fwd, self.space, origin=picks,
            )
        out = np.zeros((n, lag.shape[1], self.space.dim))
        for j in np.flatnonzero(has.any(axis=0)):
            img = fam.images(theta, at[:, j][pos])
            img /= denom[:, None]  # T(theta / denom) would round differently
            out[:, j] = np.where(has[:, j][pos][:, None], img, 0.0)
        return WindowBatch(out, back, fwd, self.space, origin=picks)

    def acceptance_rates(self):
        """Per-lag acceptance probabilities c_n / B_n^alpha, which the joint
        rejection meets exactly given the proposed lag (diagnostic)."""
        return {lag: float(c / b**self.alpha) if b > 0 else 0.0
                for lag, c, b in zip(self.consts.indices, self.consts.c, self._bounds)}


class AR1Spectral(LinearProcessSpectral):
    """Window sampler for the spectral process of X_t = T X_{t-1} + Z_t.

    This is the linear-process sampler over the power family T_n = T^n
    (0 <= n <= ``horizon``) of a ``ContractionCertificate``, which requires
    ||T^m|| < 1 for some m <= horizon; the mixture mass of lags past the
    horizon, at most ``cert.tail(horizon, alpha)``, is dropped.  Forward lags
    past the horizon use T^n itself, so backward slots below the picked lag
    are exactly zero and the forward recursion Theta_{t+1} = T Theta_t holds
    on every sample.
    """

    def __init__(self, T, base, horizon, **kwargs):
        """``kwargs`` (rng, max_trials) go to LinearProcessSpectral."""
        cert = ContractionCertificate(T, base.space, horizon)
        super().__init__(OperatorFamily.powers(cert, base.alpha), base, **kwargs)
        self.T = T
        self.horizon = cert.horizon
        self.forward_extent = None  # geometric decay, never exactly zero in general

    def _window_family(self, top):
        if top <= self.horizon:
            return self.fam
        # Not cached: sample() runs on worker threads and the family stays read-only.
        ops = {n: self.fam.ops.get(n) or op_power(self.T, n) for n in range(top + 1)}
        return OperatorFamily(ops, self.space, self.space, self.alpha)

    sample = LinearProcessSpectral.sample  # own entry: bench/tracer.py wraps per class


class TransformedSpectral:
    """Spectral process of the operator image (A X_t) of a base time series.

    Accepts a base window when U <= (||A Theta_0|| / bound)^alpha and emits
    the normalized image window (A Theta_t / ||A Theta_0||).  The default
    ``bound``, ``op_norm_bound``, is exact or certified; a drawn
    ||A Theta_0|| above a caller-supplied one raises SamplingError.
    """

    def __init__(self, base_sampler, A, codomain, bound=None):
        if A.in_dim != base_sampler.space.dim:
            raise DimensionError("operator does not accept base window dimension")
        if bound is None:
            bound = op_norm_bound(A, base_sampler.space, codomain).value
        if bound <= 0:
            raise DomainError("operator image of the spectral process is degenerate")
        self.base = base_sampler
        self.A = A
        self.bound = float(bound)
        self.alpha = base_sampler.alpha
        self.space = codomain
        self.backward_extent = getattr(base_sampler, "backward_extent", None)
        self.forward_extent = getattr(base_sampler, "forward_extent", None)

    def sample(self, n, back, fwd, rng):
        def propose(m, rng):
            wb = self.base.sample(m, back, fwd, rng)
            image = self.A.apply(wb.values)
            a0 = self.space.norm(image[:, back, :])
            accept = _tilt_accept(a0, self.bound, self.alpha, rng)
            origin = wb.origin if wb.origin is not None else np.zeros(m, dtype=int)
            return accept, (image, a0, origin)

        image, a0, origin = _rejection_collect(
            n, propose, rng, DEFAULT_MAX_TRIALS, "transformed window sampler"
        )
        return WindowBatch(
            image / a0[:, None, None], back, fwd, self.space, origin=origin
        )


def tail_windows(sampler, n, back, fwd, rng):
    """Attach an independent Pareto(alpha) radius Y to sampled spectral windows."""
    wb = sampler.sample(n, back, fwd, rng)
    y = pareto_sample(sampler.alpha, rng, n)
    return TailBatch(y, wb)


def cluster_windows(sampler, lookback, fwd, n, rng):
    """Tail windows conditioned on no exceedance in the strict past.

    Resamples until sup_{-lookback <= t <= -1} ||Y_t|| <= 1.  ``lookback``
    must cover every lag where the spectral process can be nonzero, which
    finite operator families guarantee.
    """
    extent = getattr(sampler, "backward_extent", None)
    if extent is not None and lookback < extent:
        raise DomainError(
            f"lookback {lookback} does not cover the backward extent {extent}"
        )

    def propose(m, rng):
        wb = sampler.sample(m, lookback, fwd, rng)
        y = pareto_sample(sampler.alpha, rng, m)
        if lookback == 0:
            accept = np.ones(m, dtype=bool)
        else:
            past = wb.norms()[:, :lookback]
            accept = np.max(past, axis=1) * y <= 1.0
        origin = wb.origin if wb.origin is not None else np.zeros(m, dtype=int)
        return accept, (wb.values, y, origin)

    values, y, origin = _rejection_collect(
        n, propose, rng, DEFAULT_MAX_TRIALS, "cluster window sampler"
    )
    return TailBatch(y, WindowBatch(values, lookback, fwd, sampler.space, origin=origin))


def _check_vanishing_on_zero_lead(f, back, fwd, space):
    # Contract: f must vanish whenever the leading slot Theta_{-back} is zero.
    k = back + fwd + 1
    probes = np.zeros((2, k, space.dim))
    probes[1, 1:, 0] = 1.0
    batch = WindowBatch(probes, back, fwd, space)
    vals = np.asarray(f(batch), dtype=float)
    if np.any(vals != 0.0):
        raise DomainError(
            "time-change functional must vanish when the leading slot is zero"
        )


def _time_change_integrands(wb, fs, back, alpha):
    """Column j is f_j(Theta_0/||Theta_s||, ..., Theta_{t+s}/||Theta_s||) *
    ||Theta_s||^alpha, s = back, over one forward batch ``wb`` (Theta_0 ..
    Theta_{t+s}), divided once for all functionals; zero where ||Theta_s|| = 0.
    Each f must vanish when its leading slot is zero (checked on probes)."""
    for f in fs:
        _check_vanishing_on_zero_lead(f, back, wb.fwd - back, wb.space)
    ns = wb.norm_at(back)
    nz = ns > 0
    out = np.zeros((len(wb), len(fs)))
    if np.any(nz):
        shifted = wb.divided(nz, ns[nz], back)
        weight = ns[nz] ** alpha
        for j, f in enumerate(fs):
            out[nz, j] = np.asarray(f(shifted), dtype=float) * weight
    return out


def time_change_rhs_samples(sampler, f, back, fwd, n, rng):
    """Per-sample integrand of the time-change right-hand side: n forward
    windows Theta_0 .. Theta_{back+fwd}, then ``_time_change_integrands``."""
    wb = sampler.sample(n, 0, back + fwd, rng)
    return _time_change_integrands(wb, [f], back, sampler.alpha)[:, 0]


def time_change_rhs(sampler, f, back, fwd, n, rng):
    """Monte Carlo estimate (mean, stderr) of the time-change right-hand side."""
    return _mean_with_se(time_change_rhs_samples(sampler, f, back, fwd, n, rng))


def limit_measure_samples(sampler, k, thresholds, n, rng):
    """Per-sample contributions to the k-lag limit-measure mass of a product
    of norm-threshold events.

    ``thresholds`` gives one lower norm threshold per coordinate (None for
    unconstrained); at least one must be strictly positive so the event
    stays away from the origin.  The radial integral is evaluated in closed
    form per sample: for each alignment of the exceedance block the event
    is an interval (r_min, infinity) in the radius, contributing
    r_min^(-alpha).
    """
    alpha = sampler.alpha
    if k < 1 or len(thresholds) != k:
        raise DomainError("need one threshold per coordinate")
    finite = [z for z in thresholds if z is not None]
    if any(z < 0 for z in finite):
        raise DomainError("thresholds must be nonnegative")
    if not any(z > 0 for z in finite):
        raise DomainError("event must be bounded away from the origin")

    wb = sampler.sample(n, k - 1, k - 1, rng)
    norms = wb.norms()
    center = k - 1
    total = np.zeros(n)
    for j in range(1, k + 1):
        # Coordinates 1..j-1 hold exact zeros; any constrained one kills the term.
        if any(thresholds[m - 1] is not None for m in range(1, j)):
            continue
        if j >= 2:
            live = np.all(norms[:, center - (j - 1) : center] == 0.0, axis=1)
        else:
            live = np.ones(n, dtype=bool)
        r_min = np.zeros(n)
        for m in range(j, k + 1):
            z = thresholds[m - 1]
            if z is None:
                continue
            nm = norms[:, center + (m - j)]
            live &= nm > 0
            r_min = np.maximum(r_min, np.where(nm > 0, z / np.maximum(nm, 1e-300), np.inf))
        if not np.any(live):
            continue
        if np.any(r_min[live] <= 0):
            raise DomainError("event not bounded away from the origin on some sample")
        total[live] += r_min[live] ** (-alpha)
    return total


def limit_measure_mass(sampler, k, thresholds, n, rng):
    """Monte Carlo estimate (mean, stderr) of the k-lag limit-measure mass."""
    return _mean_with_se(limit_measure_samples(sampler, k, thresholds, n, rng))
