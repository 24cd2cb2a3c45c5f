"""Stationary sample paths for linear processes, AR(1) recursions, and the
lagged-innovation sequence-space model.

Innovations are indexed absolutely by time and drawn in one vectorized
block in increasing time order, so the moving-average and autoregressive
representations of the same model consume identical innovation values
whenever their index ranges coincide (burn_in == truncation).  Identical
(config, seed) inputs reproduce paths bit for bit.

Every AR(1) path, whatever its operator, comes from one blocked recursion
on the operator's matrix (see ``_ar1_recursion``).  Its values differ from
a per-step loop only by floating-point rounding, within 1e-13 relative to
the row's max-norm on well-conditioned operators (1.3e-14 on a 3x3 dense
operator over 1e6 steps), and they too are a function of (config, seed)
alone.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    ContractionCertificate,
    DimensionError,
    DomainError,
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

# Steps per steps-major tile of that recursion's zero-start pass.  Two
# (tile, blocks, d) buffers take 1.5 MB on a 3-dim path of 1e6 rows.
_AR1_TILE = 32

# Rows formatted per NumPy pass by write_csv_rows.  A pass's byte buffer
# (one row per output byte position) then stays within a 2 MB L2 cache for
# rows of up to about 250 bytes; 16384-row passes made the 165-byte rows of
# an axis-form window CSV half again as slow.
_CSV_CHUNK_ROWS = 8192

# Fewest rows write_csv_rows gives one process.  A fork, its reaping and the
# copy back of its file cost about 3 ms plus 0.7 ns per byte (a 91 MB
# process on 2 vCPUs), while formatting takes 0.6 us per path row of 66
# bytes: a slice pays for its fork from about 5500 rows.
_CSV_MIN_SLICE_ROWS = 8192


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
    """Innovations for ``count`` consecutive time indices, one fixed stream.

    A radius that overflows float64 (alpha too small) raises DomainError.
    """
    rng = np.random.default_rng([int(seed), _INNOV_STREAM])
    with np.errstate(over="ignore", invalid="ignore"):  # inf radius, or inf * 0
        z = innov.sample(count, rng)
    if not np.isfinite(z).all():
        raise DomainError(
            f"simulated path is not finite: at alpha={innov.alpha:g} the Pareto radius "
            "(1-U)**(-1/alpha) overflows float64")
    return z


def simulate_linear(fam, innov, cfg):
    """Path of X_t = sum_{i in window} T_i Z_{t-i}, t = 1..length.

    Every emitted value uses a full innovation window, so the path is
    exactly stationary; the truncation error bound is zero for a finite
    family.
    """
    if innov.space.dim != fam.domain.dim:
        raise DimensionError("innovation dimension does not match family domain")
    if cfg.truncation < max(abs(fam.indices[0]), abs(fam.indices[-1])):
        raise DomainError("truncation horizon smaller than the family window")
    if cfg.burn_in < cfg.truncation:
        raise DomainError("burn_in must be at least the truncation horizon")
    length = cfg.length
    j_lo = 1 - fam.indices[-1]
    j_hi = length - fam.indices[0]
    innovations = _innovation_block(innov, j_hi - j_lo + 1, cfg.seed)
    out = np.zeros((length, fam.codomain.dim))
    for k, i in enumerate(fam.indices):
        start = (1 - i) - j_lo
        fam.accumulate(out, k, innovations[start : start + length])
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

    Every operator, scalar and diagonal ones included, works on
    M = T.as_matrix() in blocks of ``_AR1_BLOCK`` steps: first the zero-start
    recursion runs in all blocks at once (one vectorised step per offset k,
    on steps-major tiles of ``_AR1_TILE`` offsets copied out of and back into
    the (blocks, steps, d) layout, so that each step works on a contiguous
    (blocks, d) slab; the products and sums are those of the strided steps),
    then each block's last state s is carried into the next block as
    T^(k+1) s via the stacked powers T^1..T^B.  A ragged tail is one short
    block.  The result equals the per-step loop up to rounding (within 1e-13
    of each row's max-norm on well-conditioned operators) and depends only
    on T and the innovations.
    """
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
        steps = yb.shape[1]
        # (tile steps, blocks, d) buffers: every step reads and writes one
        # contiguous slab; only the last tile of a part can be short.
        y = np.empty((min(steps, _AR1_TILE), len(yb), d))
        z = np.empty_like(y)
        for lo in range(0, steps, len(y)):
            t = min(len(y), steps - lo)
            z[:t] = zb[:, lo : lo + t].swapaxes(0, 1)
            if lo == 0:
                y[0] = z[0]
            for k in range(lo == 0, t):  # y[k - 1] is y[-1] at k = 0: the last full tile's end
                np.matmul(y[k - 1], m.T, out=y[k])
                y[k] += z[k]
            yb[:, lo : lo + t] = y[:t].swapaxes(0, 1)
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
        # if the weight sequence continued at the observed tail ratio.  An
        # extrapolation, not a bound: the weights past d are not known.
        "truncation_error_estimate": float(
            w[-1] * (w[-1] / w[-2]) / (1.0 - w[-1] / w[-2])
            if d >= 2 and w[-1] < w[-2]
            else 0.0
        ),
    }
    return Path(values, space, meta)


def _csv_processes():
    """Usable CPUs, or 1 where this process cannot fork safely.

    Forking is left to POSIX hosts and to processes running no other Python
    thread, since a thread holding a lock at the fork would leave the child
    stuck on it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _write_rows(stream, rows, lo, hi):
    """Rows lo..hi-1 of the ``CsvRows`` ``rows``, ``_CSV_CHUNK_ROWS`` at a time."""
    for start in range(lo, hi, _CSV_CHUNK_ROWS):
        stream.write(rows.text(start, min(start + _CSV_CHUNK_ROWS, hi)))


def write_csv_rows(stream, row_fmt, *columns, fmt_index=None):
    """Write ``row_fmt % row`` for each row of the side-by-side ``columns``.

    Each column is a (n,) or (n, k) array.  With ``fmt_index`` (n,) ints,
    ``row_fmt`` is a table of row formats and row i is written with
    ``row_fmt[fmt_index[i]]``, so that cells every row of a kind shares (say
    the zeros of a window slot with one nonzero coordinate) are literal
    text instead of formatted values.  A row format may convert only with
    ``%d`` and ``%.17g`` (and write ``%%``), and the formats of a table must
    have the same sequence of cells; anything else raises ``ValueError``
    before a byte is written.

    The cells are formatted in NumPy (``_csvformat``), ``_CSV_CHUNK_ROWS``
    rows at a time, byte for byte as Python's ``%`` formats them: ``%d``
    takes any integer column exactly (int64 included) and truncates floats
    toward zero; ``%.17g`` computes the 17 digits of finite |v| in
    [1e-4, 1e16) exactly and hands every other value (zeros, subnormals,
    tiny, huge and non-finite ones) to Python's own ``'%.17g'``.  The rows
    are cut into one contiguous slice per usable CPU (no slice below
    ``_CSV_MIN_SLICE_ROWS`` rows).  On POSIX, one forked child per slice
    after the first formats it into a temporary file while this process
    writes slice 0 to ``stream``; the children's files then follow in slice
    order, and a child that fails raises ``OSError`` here.  The bytes equal
    each row formatted on its own (``np.savetxt`` with the same per-column
    formats, for one ``row_fmt``), whatever the number of processes.
    """
    # imported here, so that commands writing no CSV neither compile nor build it
    from ._csvformat import CsvRows

    rows = CsvRows(row_fmt, columns, fmt_index)
    n = len(columns[0])
    procs = max(1, min(_csv_processes(), n // _CSV_MIN_SLICE_ROWS))
    bounds = [n * k // procs for k in range(procs + 1)]
    files, pids = [], []
    try:
        if procs > 1:  # no byte buffered for stream is ever in two processes
            stream.flush()
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            pid = os.fork()
            if pid == 0:  # child: never return into the caller
                code = 1
                try:
                    _write_rows(files[-1], rows, lo, hi)
                    files[-1].flush()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        _write_rows(stream, rows, bounds[0], bounds[1])
        for fh in files:
            _, status = os.waitpid(pids[0], 0)
            pid, code = pids.pop(0), os.waitstatus_to_exitcode(status)
            if code != 0:
                raise OSError(f"CSV formatting process {pid} exited with status {code}")
            fh.seek(0)
            shutil.copyfileobj(fh, stream)
    finally:
        for pid in pids:  # only left when unwinding: stop and reap the rest
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for fh in files:
            fh.close()


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
