"""Empirical counterparts of the limit functionals, computed on sample paths.

Conditional-on-exceedance spectral statistics, the empirical tail
dependence of the first coordinate and the extremal index, the Hill
tail-index diagnostic, and the paired single-big-jump checks for finite
operator sums, estimated by conditional Monte Carlo over the largest
term's Pareto radius.  Overlapping exceedance windows are kept (dropping
them biases cluster functionals) and their serial dependence is absorbed
into block-bootstrap standard errors.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spaces import DomainError
from .spectral import _tail_constants
from .windows import WindowBatch

__all__ = [
    "ExceedanceSet",
    "EstimateResult",
    "collect_exceedances",
    "empirical_spectral_stat",
    "empirical_tail_dependence",
    "blocks_extremal_index",
    "hill_alpha",
    "BigJumpResult",
    "big_jump_paired",
    "threshold_sweep",
]

_BOOT_SEED = 0xE57
_N_BOOT = 200
# Time steps per bootstrap block of the empirical tail dependence.
_TD_BLOCK_LEN = 100
# Stacked rows per batch of bootstrap replicates (see _block_bootstrap_se).
# On 1000-row replicates, batches of 2^14 rows ran no faster and raised the
# peak memory of `verify --suite all` on ar1_scalar by 1.5 MB against 0.4 MB.
_BOOT_BATCH_ROWS = 1 << 12
# Values per big_jump_paired chunk, the unit of its draws: a chunk of rows x
# lags terms holds about six (terms, dim) image arrays and twenty arrays of
# one value per term, so it takes _BIG_JUMP_VALUES // max(dim, 4) terms and
# its arrays stay near 1 MB (256 KB per array of scalars).
_BIG_JUMP_VALUES = 1 << 17


# (workers, executor) of the enclosing _shared_worker_pool block, if any.
_SHARED_POOL = contextvars.ContextVar("heavytail_shared_pool", default=None)


@contextlib.contextmanager
def _shared_worker_pool(workers):
    """Serve every ``_worker_pool(workers)`` inside the block from one pool of
    ``workers`` threads, shut down (its threads joined) when the block ends."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        token = _SHARED_POOL.set((workers, pool))
        try:
            yield
        finally:
            _SHARED_POOL.reset(token)


@contextlib.contextmanager
def _worker_pool(workers):
    """An executor of ``workers`` threads: the shared one of the enclosing
    ``_shared_worker_pool`` block if it has that size, else a new one that is
    shut down on exit."""
    shared = _SHARED_POOL.get()
    if shared is not None and shared[0] == workers:
        yield shared[1]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


class EstimationError(RuntimeError):
    """Not enough usable data to produce an estimate."""


@dataclass(frozen=True)
class EstimateResult:
    value: float
    stderr: float
    n_effective: int

    def __post_init__(self):
        if self.n_effective <= 0:
            raise EstimationError("estimate reported with no effective samples")


@dataclass
class ExceedanceSet:
    """Anchors with ||X_t|| > u and their normalized surrounding windows."""

    windows: WindowBatch  # values X_{t+j} / ||X_t||, j in [-back, fwd]
    anchors: np.ndarray  # 0-based anchor times into the path

    def __len__(self):
        return len(self.anchors)


def collect_exceedances(path, u, back, fwd):
    """All full windows around times where the path norm exceeds u.

    ``u`` must sit above the path median; anchors too close to the path
    edges for a full window are dropped.  Overlapping windows are kept.
    """
    norms = path.norms()
    if _at_most_median(u, norms):
        raise DomainError("threshold must exceed the path median")
    anchors = np.flatnonzero(norms > u)
    anchors = anchors[(anchors >= back) & (anchors <= len(path) - 1 - fwd)]
    offsets = np.arange(-back, fwd + 1)
    rows = anchors[:, None] + offsets[None, :]
    values = path.values[rows] / norms[anchors, None, None]
    wb = WindowBatch(values, back, fwd, path.space)
    return ExceedanceSet(wb, anchors)


def _at_most_median(u, x):
    """``u <= np.median(x)`` for finite ``x``, by counting instead of partitioning.

    With a = #(x >= u) and n = len(x), the median is at least u iff 2a > n,
    unless 2a == n > 0: then it is the mean of max(x < u) and min(x >= u),
    formed as ``np.median`` forms it.  (An empty x has a nan median.)
    """
    above = x >= u
    twice = 2 * int(np.count_nonzero(above))
    if twice != len(x) or twice == 0:
        return twice > len(x)
    lo = np.max(x, where=~above, initial=-np.inf)
    hi = np.min(x, where=above, initial=np.inf)
    return bool(u <= (lo + hi) / 2)


def _block_bootstrap_se(anchor_times, per_anchor, block_len, n_boot, rng, stat):
    """SE of ``stat`` (a function of stacked per-anchor rows) by resampling
    disjoint time blocks of anchors.

    The rows are sorted by block (stably, so a block keeps its rows' order).
    Each replicate draws ``nb`` block picks, and ``stat`` sees the picked
    blocks' rows stacked in pick order.  Replicates go in batches of about
    ``_BOOT_BATCH_ROWS`` stacked rows: one (k, nb) draw, which equals k
    successive nb-draws, and one gather for the whole batch.
    """
    ids = anchor_times // block_len
    order = np.argsort(ids, kind="stable")
    rows = per_anchor[order]
    _, starts, counts = np.unique(ids[order], return_index=True, return_counts=True)
    nb = len(starts)
    if nb < 2:
        return float("nan")
    reps = np.empty(n_boot)
    batch = max(1, _BOOT_BATCH_ROWS // len(rows))
    for first in range(0, n_boot, batch):
        pick = rng.integers(0, nb, size=(min(batch, n_boot - first), nb)).ravel()
        lens = counts[pick]
        ends = np.cumsum(lens)
        index = np.arange(ends[-1]) + np.repeat(starts[pick] - (ends - lens), lens)
        stacked = rows[index]
        lo = 0
        for r, hi in enumerate(ends[nb - 1 :: nb], first):
            reps[r] = stat(stacked[lo:hi])
            lo = hi
    return float(np.std(reps, ddof=1))


def empirical_spectral_stat(exc, f, rng=None):
    """Mean of a bounded window functional over normalized exceedance windows.

    Standard error by block bootstrap with block length twice the window
    width, absorbing the overlap between nearby anchors.
    """
    if len(exc) == 0:
        raise EstimationError("no exceedances collected")
    rng = rng if rng is not None else np.random.default_rng(_BOOT_SEED)
    values = np.asarray(f(exc.windows), dtype=float)
    width = exc.windows.back + exc.windows.fwd + 1
    se = _block_bootstrap_se(
        exc.anchors, values, 2 * width, _N_BOOT, rng, lambda v: v.mean()
    )
    if not np.isfinite(se):
        se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return EstimateResult(float(values.mean()), se, len(values))


def empirical_tail_dependence(path, u, h, rng=None):
    """Empirical Pr(X_h,0 > u | X_0,0 > u) of the first coordinate.

    Ratio of joint to marginal exceedance counts, block-bootstrap standard
    error over blocks of ``_TD_BLOCK_LEN`` time steps.
    """
    h = int(h)
    score = path.values[:, 0]
    lo, hi = max(0, -h), len(path) - max(0, h)
    base = score[lo:hi]
    lagged = score[lo + h : hi + h]
    marg = base > u
    if not np.any(marg):
        raise EstimationError("no exceedances at the requested threshold")
    joint = marg & (lagged > u)
    times = np.arange(lo, hi)
    per = np.column_stack([joint[marg], np.ones(int(marg.sum()))])
    rng = rng if rng is not None else np.random.default_rng(_BOOT_SEED)
    se = _block_bootstrap_se(
        times[marg], per, _TD_BLOCK_LEN, _N_BOOT, rng,
        lambda v: v[:, 0].sum() / v[:, 1].sum(),
    )
    value = float(joint.sum() / marg.sum())
    if not np.isfinite(se):
        se = float(np.sqrt(value * (1 - value) / marg.sum()))
    return EstimateResult(value, se, int(marg.sum()))


def blocks_extremal_index(path, u, block_len, method="blocks", runs_gap=None, rng=None):
    """Blocks estimator (#blocks with an exceedance)/(#exceedances) with
    block-resampling standard error; the runs estimator is available behind
    ``method="runs"`` for cross-checking."""
    if block_len < 2:
        raise DomainError("block length must be >= 2")
    extent = path.meta.get("family_extent")
    if extent is not None and block_len < 2 * max(int(extent), 1):
        raise DomainError(
            f"block length {block_len} shorter than twice the family extent {extent}"
        )
    exceed = path.norms() > u
    total = int(exceed.sum())
    if total == 0:
        raise EstimationError("no exceedances at the requested threshold")
    rng = rng if rng is not None else np.random.default_rng(_BOOT_SEED)
    if method == "runs":
        gap = int(runs_gap) if runs_gap is not None else max(int(extent or 1), 1)
        ok = np.ones(len(path) - gap, dtype=bool)
        for j in range(1, gap + 1):
            ok &= ~exceed[j : len(path) - gap + j]
        starts = exceed[: len(path) - gap] & ok
        value = float(starts.sum() / total)
        se = float(np.sqrt(value * (1 - value) / total))
        return EstimateResult(value, se, total)
    nb = len(path) // block_len
    trimmed = exceed[: nb * block_len].reshape(nb, block_len)
    counts = trimmed.sum(axis=1)
    hits = (counts > 0).astype(float)
    value = float(hits.sum() / counts.sum())
    reps = np.empty(_N_BOOT)
    for r in range(_N_BOOT):
        pick = rng.integers(0, nb, size=nb)
        c = counts[pick].sum()
        reps[r] = hits[pick].sum() / c if c > 0 else np.nan
    se = float(np.nanstd(reps, ddof=1))
    return EstimateResult(value, se, total)


def hill_alpha(path, k):
    """Hill tail-index estimate from the top k order statistics of the norms.

    Diagnostic only: the reported stderr alpha_hat / sqrt(k) is the iid
    asymptotic value.
    """
    norms = np.sort(path.norms())[::-1]
    if not 1 <= k < len(norms) // 10:
        raise DomainError("order-statistic count k must satisfy 1 <= k < n/10")
    ref = norms[k]
    if ref <= 0:
        raise EstimationError("nonpositive order statistic in the Hill window")
    logs = np.log(norms[:k]) - np.log(ref)
    h = logs.mean()
    if h <= 0:
        raise EstimationError("degenerate (tied) order statistics in the Hill window")
    value = 1.0 / h
    return EstimateResult(value, value / np.sqrt(k), int(k))


@dataclass(frozen=True)
class BigJumpResult:
    """Normalized tail ratios and single-big-jump discrepancy at one threshold."""

    x: float
    ratio_sum_norm: float  # Pr(||sum_i T_i Z_i|| > x) / V(x)
    ratio_norm_sum: float  # Pr(sum_i ||T_i Z_i|| > x) / V(x)
    discrepancy: float  # E|1(||sum|| > x) - sum_i 1(||T_i Z_i|| > x)| / V(x)
    target: float  # sum_i c_i
    stderr_sum_norm: float
    stderr_norm_sum: float
    # paired stderr of this discrepancy minus the next threshold's (0.0 at the last)
    stderr_discrepancy_drop: float
    n_mc: int


def _leave_one_out(a, op, identity):
    """out[i] = op over a[j], j != i, along axis 0: an exclusive prefix
    combined with an exclusive suffix, never the total less a[i]."""
    pre, suf = np.empty((2,) + a.shape)
    pre[0] = suf[-1] = identity
    for i in range(1, len(a)):  # faster than op.accumulate along axis 0
        op(pre[i - 1], a[i - 1], out=pre[i])
        op(suf[-i], a[-i], out=suf[-i - 1])
    return op(pre, suf, out=pre)


def _big_jump_terms(fam, innov, xs, tails, z, radius):
    """Per-draw conditional values of one chunk, shape (4 * len(xs) - 1, m).

    Rows: ``ratio_sum_norm`` at each threshold, then ``ratio_norm_sum``, then
    ``discrepancy`` (each over its tail V(x)), then each discrepancy less the
    next threshold's.  ``z`` holds lag k's innovations at rows
    k * m .. (k + 1) * m - 1, and ``radius`` their norms.  Lag i adds the
    probability over its radius R alone that ||R T_i Theta_i|| is the largest
    image norm and that the event holds; a lag with b = ||T_i Theta_i|| = 0
    adds 0 and is left out.
    """
    nlags, nx = len(fam.lags), len(xs)
    m = len(z) // nlags
    img = fam.images(z, np.repeat(np.arange(nlags), m))  # T_i Z_i
    nrm = fam.codomain.norm(img)
    v = _leave_one_out(img.reshape(nlags, m, -1), np.add, 0.0)
    top = _leave_one_out(nrm.reshape(nlags, m), np.maximum, 0.0)  # M
    u = _leave_one_out(nrm.reshape(nlags, m), np.add, 0.0)
    live = np.flatnonzero(nrm > 0)
    draw = live % m
    w = img[live] / radius[live, None]  # T_i Theta_i
    b = nrm[live] / radius[live]
    v = v.reshape(len(z), -1)[live]
    top, u = top.ravel()[live], u.ravel()[live]

    def tail(t):  # P(R > t) for t >= scale
        return (t / innov.scale) ** -innov.alpha

    low = np.maximum(top / b, innov.scale)  # lag i is the largest iff R > low
    p_low = tail(low)
    values = np.empty((4 * nx - 1, m))
    los, his = fam.codomain.ball_interval(w, v, xs)
    for i, (x, lo, hi) in enumerate(zip(xs, los, his)):

        def beyond(t, p_t):  # P(R > t, ||R w + v|| > x), [lo, hi] as above
            return (p_t - tail(np.maximum(lo, t))) + tail(np.maximum(hi, t))

        over = (nrm > x).reshape(nlags, m)
        n_other = over.sum(axis=0)[draw] - over.ravel()[live]
        g = beyond(low, p_low)
        t_x = np.maximum(low, x / b)
        p_t = tail(t_x)
        disc = np.where(n_other > 0, (n_other + 1) * p_low - g,
                        g + p_t - 2.0 * beyond(t_x, p_t))
        for row, term in zip((i, nx + i, 2 * nx + i),
                             (g, tail(np.maximum(low, (x - u) / b)), disc)):
            values[row] = np.bincount(draw, weights=term, minlength=m) / tails[i]
    values[3 * nx:] = values[2 * nx : 3 * nx - 1] - values[2 * nx + 1 : 3 * nx]
    return values


def big_jump_paired(fam, innov, xs, n_mc, rng, workers=1):
    """Single-big-jump checks at several thresholds from one shared stream.

    Conditional Monte Carlo (Asmussen & Kroese 2006): per draw, one
    innovation Z_j = R_j Theta_j per family lag, and the same draws feed every
    threshold, so comparisons across thresholds are paired.  For each lag i the
    draw conditions on every Z_j with j != i and on Theta_i, and integrates the
    Pareto radius R_i in closed form over the event that lag i has the largest
    image norm: with b = ||T_i Theta_i||, v = sum_{j != i} T_j Z_j,
    M = max_{j != i} ||T_j Z_j|| and [lo, hi] = {r : ||r T_i Theta_i + v|| <= x}
    (``NormSpec.ball_interval``), each quantity is a difference of Pareto tails.
    The lags' values sum to the draw's value, and each stderr is the sample SD of
    the per-draw values over sqrt(n_mc); the discrepancy drop's is that of the
    per-draw differences.  The target sum(c_n) takes its 100 000 angle draws
    (where it needs any) from ``rng`` first.  A drawn radius that is not finite
    (alpha too small for float64) raises DomainError.

    The innovations come from ``rng`` on the calling thread, one
    ``innov.sample`` of rows x lags per chunk (``_BIG_JUMP_VALUES``), lag by
    lag; each is split into its radius (its norm) and angle.  ``workers`` threads evaluate the
    chunks (inside ``verify.run_suite``, on the run's shared pool); each writes
    its sums and centred sums of squares to its own slot, and the slots are
    reduced in chunk order at the end, so the results do not depend on
    ``workers``, and memory stays O(chunk) at any ``n_mc``.
    """
    xs = [float(x) for x in xs]
    if any(not innov.scale <= x < np.inf for x in xs):
        raise DomainError("thresholds must be finite and at least the innovation scale")
    tails = [innov.tail_prob(x) for x in xs]
    if min(tails) <= 0:
        raise DomainError("marginal tail probability vanishes at the threshold")
    c, _, _ = _tail_constants(fam, innov, 100_000, rng)
    nlags = len(fam.lags)
    rows = max(1, _BIG_JUMP_VALUES // max(fam.codomain.dim, 4) // nlags)
    sizes = np.array([min(rows, n_mc - start) for start in range(0, n_mc, rows)])
    sums, squares = np.zeros((2, len(sizes), 4 * len(xs) - 1))

    def evaluate(k, z, radius):
        with np.errstate(over="ignore"):  # an overflow to inf is the right limit
            values = _big_jump_terms(fam, innov, xs, tails, z, radius)
        if not np.isfinite(values).all():
            raise DomainError(f"big-jump values are not finite at alpha={innov.alpha:g}")
        sums[k] = values.sum(axis=1)
        squares[k] = ((values - (sums[k] / sizes[k])[:, None]) ** 2).sum(axis=1)

    with _worker_pool(workers) as pool:
        pending = deque()
        for k, m in enumerate(sizes):
            with np.errstate(over="ignore", invalid="ignore"):
                z = innov.sample(m * nlags, rng)
                radius = innov.space.norm(z)
            if not np.isfinite(radius).all():
                raise DomainError(
                    f"drawn Pareto radius is not finite: at alpha={innov.alpha:g} "
                    "(1-U)**(-1/alpha) overflows float64")
            pending.append(pool.submit(evaluate, k, z, radius))
            if len(pending) > workers:  # bounds the chunks drawn ahead
                pending.popleft().result()
        for job in pending:
            job.result()
    mean = sums.sum(axis=0) / n_mc
    between = sizes[:, None] * (sums / sizes[:, None] - mean) ** 2
    se = np.sqrt((squares.sum(axis=0) + between.sum(axis=0)) / max(n_mc - 1, 1) / n_mc)
    nx = len(xs)
    return [
        BigJumpResult(
            x=x,
            ratio_sum_norm=float(mean[i]),
            ratio_norm_sum=float(mean[nx + i]),
            discrepancy=float(mean[2 * nx + i]),
            target=float(c.sum()),
            stderr_sum_norm=float(se[i]),
            stderr_norm_sum=float(se[nx + i]),
            stderr_discrepancy_drop=float(se[3 * nx + i]) if i + 1 < nx else 0.0,
            n_mc=n_mc,
        )
        for i, x in enumerate(xs)
    ]


def threshold_sweep(path, stat, quantiles=(0.99, 0.995, 0.999, 0.9995)):
    """Evaluate a threshold-based estimator over a grid of quantile levels.

    ``stat(path, u) -> EstimateResult``.  The limits hold as the threshold
    grows; the sweep displays the finite-threshold convergence instead of
    picking a level adaptively.  Returns (quantile, threshold, result) rows.
    """
    norms = path.norms()
    rows = []
    for q in quantiles:
        u = float(np.quantile(norms, q))
        rows.append((float(q), u, stat(path, u)))
    return rows
