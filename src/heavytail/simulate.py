"""Stationary sample paths for linear processes, AR(1) recursions, and the
lagged-innovation sequence-space model.

Innovations are indexed absolutely by time and drawn in one vectorized
block in increasing time order, so the moving-average and autoregressive
representations of the same model consume identical innovation values
whenever their index ranges coincide (burn_in == truncation).  Identical
(config, seed) inputs reproduce paths bit for bit.

AR(1) with a scalar or diagonal operator runs through ``lfilter``; any
other operator runs a blocked recursion on its matrix (see
``_ar1_recursion``).  Its values differ from a per-step loop only by
floating-point rounding, within 1e-13 relative to the row's max-norm on
well-conditioned operators (1.3e-14 on a 3x3 dense operator over 1e6
steps), and they too are a function of (config, seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    ContractionCertificate,
    DiagonalOp,
    DimensionError,
    DomainError,
    ScalarOp,
    weighted_l1_norm,
)

__all__ = [
    "PathConfig",
    "Path",
    "simulate_linear",
    "simulate_ar1",
    "simulate_sequence_space",
    "write_path_csv",
    "read_path_csv",
    "write_csv_rows",
]

# Stream tag mixed into the innovation generator seed so path innovations
# are decoupled from other derived streams of the same master seed.
_INNOV_STREAM = 0x1A

# Steps per block of the blocked matrix AR(1) recursion.
_AR1_BLOCK = 1024

# Rows formatted per string operation by write_csv_rows.
_CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class PathConfig:
    """Length, warm-up, series truncation horizon, and master seed of a path."""

    length: int
    burn_in: int
    truncation: int
    seed: int

    def __post_init__(self):
        if self.length < 1:
            raise DomainError("path length must be >= 1")
        if self.burn_in < 0 or self.truncation < 0:
            raise DomainError("burn_in and truncation must be nonnegative")


@dataclass
class Path:
    """Simulated values X_1 .. X_L (rows) with config echo and error bounds."""

    values: np.ndarray  # (length, dim)
    space: "NormSpec"
    meta: dict
    _norms: np.ndarray | None = field(default=None, repr=False)

    def __len__(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]

    def norms(self):
        if self._norms is None:
            self._norms = self.space.norm(self.values)
        return self._norms


def _innovation_block(innov, count, seed):
    """Innovations for ``count`` consecutive time indices, one fixed stream."""
    rng = np.random.default_rng([int(seed), _INNOV_STREAM])
    return innov.sample(count, rng)


def simulate_linear(fam, innov, cfg):
    """Path of X_t = sum_{i in window} T_i Z_{t-i}, t = 1..length.

    Every emitted value uses a full innovation window, so the path is
    exactly stationary; the truncation error bound is zero for a finite
    family.
    """
    if innov.space.dim != fam.domain.dim:
        raise DimensionError("innovation dimension does not match family domain")
    if cfg.truncation < max(abs(fam.n_min), abs(fam.n_max)):
        raise DomainError("truncation horizon smaller than the family window")
    if cfg.burn_in < cfg.truncation:
        raise DomainError("burn_in must be at least the truncation horizon")
    length = cfg.length
    j_lo = 1 - fam.n_max
    j_hi = length - fam.n_min
    innovations = _innovation_block(innov, j_hi - j_lo + 1, cfg.seed)
    out = np.zeros((length, fam.codomain.dim))
    for i in fam.indices:
        start = (1 - i) - j_lo
        out += fam.ops[i].apply(innovations[start : start + length])
    meta = {
        "model": "linear",
        "seed": cfg.seed,
        "length": length,
        "family_extent": fam.extent,
        "truncation_error_bound": 0.0,
        "summability": fam.summability(),
    }
    return Path(out, fam.codomain, meta)


def _ar1_recursion(T, innovations):
    """X_t = T X_{t-1} + Z_t for t = 0..n-1 from X_{-1} = 0.

    Scalar and diagonal operators use ``lfilter`` per coordinate.  Any other
    operator works on M = T.as_matrix() in blocks of ``_AR1_BLOCK`` steps:
    first the zero-start recursion runs in all blocks at once (one vectorised
    step per offset k), then each block's last state s is carried into the
    next block as T^(k+1) s via the stacked powers T^1..T^B.  A ragged tail
    is one short block.  The result equals the per-step loop up to rounding
    (within 1e-13 of each row's max-norm on well-conditioned operators) and
    depends only on T and the innovations.
    """
    if isinstance(T, (ScalarOp, DiagonalOp)):
        # Imported here: scipy.signal costs about 1 s, which every CLI start
        # would otherwise pay.
        from scipy.signal import lfilter

        if isinstance(T, ScalarOp):
            return lfilter([1.0], [1.0, -T.a], innovations, axis=0)
        out = np.empty_like(innovations)
        for j, c in enumerate(T.entries):
            out[:, j] = lfilter([1.0], [1.0, -c], innovations[:, j])
        return out
    n, d = innovations.shape
    out = np.empty((n, d))  # C order, so the reshapes below are views
    m = T.as_matrix()
    full = n - n % _AR1_BLOCK
    # (blocks, steps, d) views of innovations and output.
    parts = []
    if full:
        parts.append((innovations[:full].reshape(-1, _AR1_BLOCK, d),
                      out[:full].reshape(-1, _AR1_BLOCK, d)))
    if n > full:
        parts.append((innovations[full:][None], out[full:][None]))
    for zb, yb in parts:
        yb[:, 0] = zb[:, 0]
        for k in range(1, yb.shape[1]):
            np.matmul(yb[:, k - 1], m.T, out=yb[:, k])
            yb[:, k] += zb[:, k]
    # Rows k*d .. k*d+d-1 hold T^(k+1), so one matvec carries a state.
    powers = np.empty((min(n, _AR1_BLOCK), d, d))
    power = np.eye(d)
    for k in range(len(powers)):
        power = powers[k] = m @ power
    powers = powers.reshape(-1, d)
    state = None
    for _, yb in parts:
        steps = yb.shape[1]
        for block in yb:
            if state is not None:
                block += (powers[: steps * d] @ state).reshape(steps, d)
            state = block[-1]
    return out


def simulate_ar1(T, innov, cfg, horizon=64):
    """Path of the recursion X_t = T X_{t-1} + Z_t from a zero initial state.

    Requires some power of T with norm bound < 1 within ``horizon`` (a
    ``ContractionCertificate``); the emitted path (after burn_in steps)
    approximates the stationary series solution, and the metadata reports
    the certificate's bound on sum_{n > burn_in} ||T^n|| as the truncation
    error bound.
    """
    space = innov.space
    cert = ContractionCertificate(T, space, horizon)
    m, q, lead = cert.lag, cert.q, cert.lead
    # Burn-in needed to push the geometric factor below 1e-12, for reporting.
    if q == 0.0:
        mixing_len = m
    else:
        mixing_len = m * int(np.ceil(np.log(1e-12 / (lead * m / (1.0 - q))) / np.log(q)))

    count = cfg.length + cfg.burn_in
    innovations = _innovation_block(innov, count, cfg.seed)
    series = _ar1_recursion(T, innovations)
    out = series[cfg.burn_in :]
    # Effective dependence length: first lag where the operator power has
    # decayed to 1% of identity.  Governs block/run lengths downstream.
    effective = next(
        (j for j in range(1, horizon + 1) if cert.bounds[j].value <= 0.01), horizon
    )
    meta = {
        "model": "ar1",
        "seed": cfg.seed,
        "length": cfg.length,
        "family_extent": effective,
        "truncation_horizon": horizon,
        "contraction_lag": m,
        "truncation_error_bound": cert.tail(cfg.burn_in),
        "recommended_burn_in": max(int(mixing_len), 1),
    }
    return Path(out, space, meta)


def simulate_sequence_space(weights, innov, cfg):
    """Path holding the lagged innovation vector X_t = (z_t, z_{t-1}, ...).

    ``weights`` define the weighted-l1 norm of the truncated sequence
    space; coordinates are the raw innovations, so X_t[k] = X_{t-1}[k-1].
    """
    if innov.space.dim != 1:
        raise DimensionError("sequence-space model needs scalar innovations")
    space = weighted_l1_norm(weights)
    d = space.dim
    count = cfg.length + d - 1
    z = _innovation_block(innov, count, cfg.seed)[:, 0]
    windows = np.lib.stride_tricks.sliding_window_view(z, d)[: cfg.length]
    values = np.ascontiguousarray(windows[:, ::-1])
    w = space.weight_array
    meta = {
        "model": "seqspace",
        "seed": cfg.seed,
        "length": cfg.length,
        "family_extent": d - 1,
        "truncation_dim": d,
        # Norm error of dropping coordinates >= d, per unit of innovation norm,
        # if the weight sequence continued at the observed tail ratio.
        "truncation_error_bound": float(
            w[-1] * (w[-1] / w[-2]) / (1.0 - w[-1] / w[-2])
            if d >= 2 and w[-1] < w[-2]
            else 0.0
        ),
    }
    return Path(values, space, meta)


def write_csv_rows(stream, row_fmt, *columns):
    """Write ``row_fmt % row`` for each row of the side-by-side ``columns``.

    Each column is a (n,) or (n, k) array.  Rows are formatted
    ``_CSV_CHUNK_ROWS`` at a time, so only one chunk is ever stacked.  The
    chunk is float64, so integer columns must stay below 2**53 and use
    ``%d``; the bytes equal ``np.savetxt`` with the same per-column formats.
    """
    for lo in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        chunk = np.column_stack([c[lo : lo + _CSV_CHUNK_ROWS] for c in columns])
        stream.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_path_csv(path, stream):
    """CSV with header t,x0,...,x{d-1}; floats use round-trip %.17g formatting."""
    d = path.dim
    header = "t," + ",".join(f"x{j}" for j in range(d))
    stream.write(header + "\n")
    row_fmt = "%d" + ",%.17g" * d + "\n"
    write_csv_rows(stream, row_fmt, np.arange(1, len(path) + 1), path.values)


def read_path_csv(stream, space):
    data = np.loadtxt(stream, delimiter=",", skiprows=1, ndmin=2)
    values = data[:, 1:]
    if values.shape[1] != space.dim:
        raise DimensionError("CSV column count does not match the space dimension")
    return Path(values, space, {"model": "csv", "length": values.shape[0]})
