"""Empirical counterparts of the limit functionals, computed on sample paths.

Conditional-on-exceedance spectral statistics, the empirical tail
dependence of the first coordinate and the extremal index, the Hill
tail-index diagnostic, and the paired single-big-jump checks for finite
operator sums.  Overlapping exceedance windows are kept (dropping them
biases cluster functionals) and their serial dependence is absorbed into
block-bootstrap standard errors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spaces import DomainError
from .spectral import series_constants
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
# Draws per big_jump_paired chunk: the unit of its innovation blocks.
_BIG_JUMP_CHUNK = 1 << 20
# Rows per slice in which big_jump_paired adds, norms and counts each lag's
# block and norms the running sum: a slice's norms and counts stay in cache
# from one pass to the next, and the temporaries stay small next to the
# running sum.
_NORM_BLOCK_ROWS = 1 << 16


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
    if u <= np.median(norms):
        raise DomainError("threshold must exceed the path median")
    anchors = np.flatnonzero(norms > u)
    anchors = anchors[(anchors >= back) & (anchors <= len(path) - 1 - fwd)]
    offsets = np.arange(-back, fwd + 1)
    rows = anchors[:, None] + offsets[None, :]
    values = path.values[rows] / norms[anchors, None, None]
    wb = WindowBatch(values, back, fwd, path.space)
    return ExceedanceSet(wb, anchors)


def _block_bootstrap_se(anchor_times, per_anchor, block_len, n_boot, rng, stat):
    """SE of ``stat`` (a function of stacked per-anchor rows) by resampling
    disjoint time blocks of anchors."""
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


def _prefetched(draw, sizes, workers):
    """Yield ``draw(m)`` for each m in ``sizes``, in order.

    With ``workers > 1`` one helper thread computes the next draw while the
    caller works on the current one.  At most one draw is in flight and the
    calls run in the given order, so a shared random stream is consumed
    exactly as in the sequential loop.
    """
    if workers <= 1 or len(sizes) < 2:
        for m in sizes:
            yield draw(m)
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, sizes[0])
        for m in sizes[1:]:
            current = pending.result()
            pending = pool.submit(draw, m)
            yield current
        yield pending.result()


def big_jump_paired(fam, innov, xs, n_mc, rng, workers=1):
    """Single-big-jump checks at several thresholds from one shared stream.

    Plain Monte Carlo (no importance sampling): per draw, one innovation per
    family lag; the same draws feed every threshold so comparisons across
    thresholds are paired.  Innovation blocks are drawn from ``rng`` as one
    sequential stream, chunk by chunk of ``_BIG_JUMP_CHUNK`` draws (the last
    one ragged) and lag by lag; sign innovations of one sign draw no
    uniforms and advance the stream past them (``Rademacher``).
    ``workers > 1`` only overlaps drawing the next block on a helper thread
    with counting the current one, so the results do not depend on
    ``workers``.  The counting runs slice by slice of ``_NORM_BLOCK_ROWS``
    rows: ``OperatorFamily.accumulate`` adds the lag's image to the running
    sum and returns its norm (an embedding touches one column), which joins
    the sum of norms and each threshold's integer count of single-lag
    exceedances; the running sum is normed in the same slices once every lag
    is in.  The per-draw discrepancies |1(||sum|| > x) - N_x| enter integer
    sums of squares and of products with the next threshold's, for the
    paired stderr of each drop in discrepancy.  A chunk of m draws needs
    O(m * (d + #thresholds)) memory.
    """
    xs = [float(x) for x in xs]
    if any(x < innov.scale for x in xs):
        raise DomainError("thresholds must be at least the innovation scale")
    consts = series_constants(fam, innov, n_mc=min(n_mc, 100_000), rng=rng)
    nx = len(xs)
    cnt_sum_norm, cnt_norm_sum, disc = np.zeros((3, nx))
    disc_sq, disc_next = np.zeros((2, nx), dtype=np.int64)  # disc_next[-1] stays 0
    chunk = _BIG_JUMP_CHUNK
    sizes = [min(chunk, n_mc - done) for done in range(0, n_mc, chunk)]
    # counts of at most len(lags), signed so that hit - count cannot wrap
    count_dtype = np.min_scalar_type(-len(fam.lags) - 1)
    blocks = _prefetched(lambda m: innov.sample(m, rng),
                         [m for m in sizes for _ in fam.lags], workers)
    for m in sizes:
        vec_sum = np.zeros((m, fam.codomain.dim))
        norm_sum = np.zeros(m)
        n_single = np.zeros((nx, m), dtype=count_dtype)
        row_blocks = [slice(lo, lo + _NORM_BLOCK_ROWS) for lo in range(0, m, _NORM_BLOCK_ROWS)]
        for k in range(len(fam.lags)):
            z = next(blocks)
            for rows in row_blocks:
                nrm = fam.accumulate(vec_sum[rows], k, z[rows])
                norm_sum[rows] += nrm
                for i, x in enumerate(xs):
                    n_single[i, rows] += nrm > x
        for rows in row_blocks:
            total_norm = fam.codomain.norm(vec_sum[rows])
            prev = None
            for i, x in enumerate(xs):
                hit = total_norm > x
                cnt_sum_norm[i] += hit.sum()
                cnt_norm_sum[i] += (norm_sum[rows] > x).sum()
                d = np.abs(hit - n_single[i, rows])
                disc[i] += d.sum()
                disc_sq[i] += np.multiply(d, d, dtype=np.int64).sum()
                if prev is not None:
                    disc_next[i - 1] += np.multiply(prev, d, dtype=np.int64).sum()
                prev = d
    tails = [innov.tail_prob(x) for x in xs]
    if min(tails) <= 0:
        raise DomainError("marginal tail probability vanishes at the threshold")
    results = []
    for i, (x, v) in enumerate(zip(xs, tails)):
        p1 = cnt_sum_norm[i] / n_mc
        p2 = cnt_norm_sum[i] / n_mc
        drop_se = 0.0
        if i + 1 < nx:  # a draw adds d_i / v - d_{i+1} / w to the drop
            w = tails[i + 1]
            mean = (disc[i] / v - disc[i + 1] / w) / n_mc
            second = (disc_sq[i] / v**2 - 2 * disc_next[i] / (v * w)
                      + disc_sq[i + 1] / w**2) / n_mc
            drop_se = float(np.sqrt(max(second - mean**2, 0.0) / n_mc))
        results.append(
            BigJumpResult(
                x=x,
                ratio_sum_norm=float(p1 / v),
                ratio_norm_sum=float(p2 / v),
                discrepancy=float(disc[i] / n_mc / v),
                target=float(consts.c_total),
                stderr_sum_norm=float(np.sqrt(p1 * (1 - p1) / n_mc) / v),
                stderr_norm_sum=float(np.sqrt(p2 * (1 - p2) / n_mc) / v),
                stderr_discrepancy_drop=drop_se,
                n_mc=n_mc,
            )
        )
    return results


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
