"""Heavy-tailed distributions built by exact polar decomposition.

A draw is ``scale * Y * Theta`` with ``Y`` standard Pareto(alpha) and
``Theta`` an independent unit vector from a spectral sampler.  Because the
radial law is exactly Pareto (no slowly varying correction), tail ratios,
exceedance laws, and angle/radius independence hold as finite-sample
identities rather than asymptotics, which is what makes the downstream
verification harnesses sharp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import DimensionError, DomainError, NormSpec, max_norm

__all__ = [
    "pareto_sample",
    "SpectralSampler",
    "Rademacher",
    "SphereUniform",
    "Atomic",
    "RegVarDist",
]

UNIT_TOL = 1e-9


def pareto_sample(alpha, rng, size=None):
    """Standard Pareto(alpha) draws via inverse CDF: (1 - U)^(-1/alpha), U ~ U[0,1)."""
    if alpha <= 0:
        raise DomainError(f"pareto index must be positive, got {alpha}")
    y = rng.random(size)
    if size is None:
        return (1.0 - y) ** (-1.0 / alpha)
    np.subtract(1.0, y, out=y)  # in place: the same values, no second block to fault in
    y **= -1.0 / alpha
    return y


class SpectralSampler:
    """Sampler of unit vectors on the sphere of ``space``.

    Subclasses implement ``sample(n, rng) -> (n, dim) array`` of unit
    vectors, a new array the caller may overwrite; finite-support samplers
    also expose their atoms so callers can evaluate sphere integrals in
    closed form.
    """

    space: NormSpec

    def sample(self, n, rng):
        raise NotImplementedError

    def atoms(self):
        """Return (points, weights) for finite-support samplers, else None."""
        return None


class Rademacher(SpectralSampler):
    """Signs on the 1-d sphere: +1 with probability p_plus, else -1.

    Row i takes sign -1 when its uniform u_i >= p_plus: one uniform per row,
    also at p_plus 0 and 1.
    """

    def __init__(self, p_plus=0.5):
        if not 0.0 <= p_plus <= 1.0:
            raise DomainError("p_plus must be a probability")
        self.p_plus = float(p_plus)
        self.space = max_norm(1)

    def sample(self, n, rng):
        return np.where(rng.random(n) < self.p_plus, 1.0, -1.0)[:, None]

    def atoms(self):
        return np.array([[1.0], [-1.0]]), np.array([self.p_plus, 1.0 - self.p_plus])


class SphereUniform(SpectralSampler):
    """Gaussian direction projected to the unit sphere of the chosen norm.

    The resulting law depends on the norm but is fixed and documented:
    it is the push-forward of the rotation-invariant direction through
    x -> x / ||x||.
    """

    def __init__(self, space):
        self.space = space

    def sample(self, n, rng):
        g = rng.standard_normal((n, self.space.dim))
        norms = self.space.norm(g)
        # A zero Gaussian vector has probability zero; resample defensively.
        while np.any(norms == 0.0):
            bad = norms == 0.0
            g[bad] = rng.standard_normal((int(bad.sum()), self.space.dim))
            norms = self.space.norm(g)
        g /= norms[:, None]
        return g


class Atomic(SpectralSampler):
    """Discrete spectral measure on finitely many unit vectors."""

    def __init__(self, points, weights, space):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != space.dim:
            raise DimensionError("atoms must be a (k, dim) array")
        norms = space.norm(pts)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise DomainError("atoms must lie on the unit sphere")
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],) or np.any(w < 0):
            raise DomainError("weights must be nonnegative, one per atom")
        total = w.sum()
        if not np.isclose(total, 1.0, atol=1e-9):
            raise DomainError("atom weights must sum to 1")
        self.points = pts
        self.weights = w / total
        self.space = space

    def sample(self, n, rng):
        idx = rng.choice(len(self.weights), size=n, p=self.weights)
        return self.points[idx]

    def atoms(self):
        return self.points.copy(), self.weights.copy()


@dataclass(frozen=True)
class RegVarDist:
    """Regularly varying law: radius ``scale * Pareto(alpha)`` times spectral angle.

    Satisfies Pr(||X|| > u) = (u / scale)^(-alpha) exactly for u >= scale,
    with the angle X/||X|| distributed per ``angle`` independently of ||X||.
    """

    alpha: float
    scale: float
    angle: SpectralSampler

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")
        if self.scale <= 0:
            raise DomainError("scale must be positive")

    @property
    def space(self):
        return self.angle.space

    def sample(self, n, rng):
        return self.sample_exceedance(self.scale, n, rng)

    def sample_exceedance(self, u, n, rng):
        """Draw from L(X | ||X|| > u): radius u * Pareto(alpha), independent angle.

        Exact (not asymptotic) under the Pareto radial law.
        """
        if u < self.scale:
            raise DomainError(f"threshold {u} below scale {self.scale}")
        radius = pareto_sample(self.alpha, rng, n)
        radius *= u  # in place: the same values, one temporary fewer
        x = self.angle.sample(n, rng)
        x *= radius[:, None]
        return x

    def tail_prob(self, x):
        """Pr(||X|| > x): (x/scale)^(-alpha) above scale, 1 below."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("tail threshold must be positive")
        out = np.where(x >= self.scale, (x / self.scale) ** (-self.alpha), 1.0)
        return float(out) if out.ndim == 0 else out
