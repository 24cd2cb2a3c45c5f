"""Finite-dimensional normed vector spaces and bounded linear operators.

A space is a coordinate dimension together with one of three norms:
max, l^p (p >= 1), or a weighted l^1 norm with strictly positive weights
(w_0 normalized to 1).  Vectors are plain float64 arrays; every routine
accepts a single vector of shape ``(dim,)`` or a batch ``(n, dim)`` and
norms/operators act along the last axis.

Operators are small structured matrices (scalar multiples of the
identity, diagonal, dense, coordinate shifts, coordinate embeddings, and
compositions) with computable norm bounds.  Every bound is exact or
certified: where a closed form exists it is the norm itself, otherwise the
domain's dual norm of the column norms, which no unit vector can exceed.
``ContractionCertificate`` bounds the powers of an operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "DomainError",
    "NormSpec",
    "max_norm",
    "lp_norm",
    "weighted_l1_norm",
    "Operator",
    "ScalarOp",
    "DiagonalOp",
    "DenseOp",
    "ShiftPowerOp",
    "EmbeddingOp",
    "ChainOp",
    "identity_op",
    "op_power",
    "ContractionCertificate",
    "OperatorNormBound",
    "op_norm_bound",
    "restricted_norm_bound",
]

# Largest dimension for which exact sign-pattern enumeration of the
# max-norm unit ball is attempted before falling back to the certified bound.
_CORNER_ENUM_LIMIT = 16


class DimensionError(ValueError):
    """Vector, operator, or subspace shapes do not line up."""


class DomainError(ValueError):
    """Argument outside the operation's domain (zero vector, bad index, ...)."""


@dataclass(frozen=True)
class NormSpec:
    """A dimension plus a norm: one of ``max``, ``lp``, ``weighted_l1``."""

    kind: str
    dim: int
    p: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        if self.kind == "max":
            pass
        elif self.kind == "lp":
            if self.p is None or self.p < 1:
                raise DomainError(f"lp norm requires p >= 1, got {self.p}")
        elif self.kind == "weighted_l1":
            if self.weights is None or len(self.weights) != self.dim:
                raise DimensionError("weighted_l1 needs one weight per coordinate")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w <= 0):
                raise DomainError("weighted_l1 weights must be strictly positive")
            if abs(w[0] - 1.0) > 1e-12:
                raise DomainError("weighted_l1 normalization requires w_0 = 1")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        else:
            raise DomainError(f"unknown norm kind {self.kind!r}")

    @property
    def weight_array(self):
        return np.asarray(self.weights, dtype=float)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"vector has last dimension {x.shape[-1]}, space has dim {self.dim}"
            )
        return x

    def norm(self, x):
        """Norm of a vector or batch of vectors (last axis = coordinates)."""
        x = self._check(x)
        if self.kind == "max":
            return np.max(np.abs(x), axis=-1)
        if self.kind == "lp":
            if self.p == 1.0:
                return np.sum(np.abs(x), axis=-1)
            if self.p == 2.0:
                return np.sqrt(np.sum(x * x, axis=-1))
            return np.sum(np.abs(x) ** self.p, axis=-1) ** (1.0 / self.p)
        return np.abs(x) @ self.weight_array

    def unit(self, x):
        """Project onto the unit sphere: x / ||x||.  Zero vectors are a DomainError."""
        x = self._check(x)
        n = self.norm(x)
        if np.any(n == 0.0):
            raise DomainError("cannot project the zero vector onto the sphere")
        return x / np.expand_dims(n, -1)

    def unit_vector_norms(self):
        """Norms of the coordinate unit vectors e_0 .. e_{d-1}."""
        if self.kind == "weighted_l1":
            return self.weight_array.copy()
        return np.ones(self.dim)

    def axis_norms(self, v, index):
        """``norm`` of v * e_index (broadcast), exactly, from the one nonzero entry."""
        a = np.abs(v)
        if self.kind == "lp" and self.p != 1.0:
            a = np.sqrt(a * a) if self.p == 2.0 else (a**self.p) ** (1.0 / self.p)
        return a * self.unit_vector_norms()[index]

    def dual_norm(self, coeffs):
        """Norm of the linear functional x -> sum(coeffs * x) on this space."""
        b = np.asarray(coeffs, dtype=float)
        if b.shape != (self.dim,):
            raise DimensionError("functional coefficient length must match dim")
        if self.kind == "max":
            return float(np.sum(np.abs(b)))
        if self.kind == "weighted_l1":
            return float(np.max(np.abs(b) / self.weight_array))
        if self.p == 1.0:
            return float(np.max(np.abs(b)))
        q = self.p / (self.p - 1.0)
        return float(np.sum(np.abs(b) ** q) ** (1.0 / q))


def max_norm(dim):
    return NormSpec("max", dim)


def lp_norm(dim, p):
    return NormSpec("lp", dim, p=float(p))


def weighted_l1_norm(weights):
    w = tuple(float(x) for x in weights)
    return NormSpec("weighted_l1", len(w), weights=w)


class Operator:
    """Bounded linear map between coordinate spaces; subclasses fill in apply()."""

    in_dim: int
    out_dim: int

    def apply(self, x):
        raise NotImplementedError

    def as_matrix(self):
        raise NotImplementedError

    def isometry_scale(self, domain, codomain):
        """Return s with ||Ax|| = s ||x|| for all x, or None if not that shape."""
        return None

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"operator expects inputs of dim {self.in_dim}, got {x.shape[-1]}"
            )
        return x


class ScalarOp(Operator):
    """a * Identity on a d-dimensional space."""

    def __init__(self, a, dim):
        self.a = float(a)
        self.in_dim = self.out_dim = int(dim)

    def apply(self, x):
        return self.a * self._check(x)

    def as_matrix(self):
        return self.a * np.eye(self.in_dim)

    def isometry_scale(self, domain, codomain):
        if domain == codomain:
            return abs(self.a)
        return None

    def __repr__(self):
        return f"ScalarOp({self.a}, dim={self.in_dim})"


class DiagonalOp(Operator):
    def __init__(self, entries):
        self.entries = np.asarray(entries, dtype=float)
        self.in_dim = self.out_dim = len(self.entries)

    def apply(self, x):
        return self._check(x) * self.entries

    def as_matrix(self):
        return np.diag(self.entries)

    def isometry_scale(self, domain, codomain):
        a = np.abs(self.entries)
        if domain == codomain and np.all(a == a[0]):
            return float(a[0])
        return None

    def __repr__(self):
        return f"DiagonalOp({self.entries.tolist()})"


class DenseOp(Operator):
    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError("dense operator needs a 2-d matrix")
        self.matrix = m
        self.out_dim, self.in_dim = m.shape

    def apply(self, x):
        return self._check(x) @ self.matrix.T

    def as_matrix(self):
        return self.matrix.copy()

    def __repr__(self):
        return f"DenseOp({self.out_dim}x{self.in_dim})"


class ShiftPowerOp(Operator):
    """m-fold coordinate shift on a truncated sequence space.

    Sends (x_0, x_1, ...) to (0, ..., 0, x_0, x_1, ...); entries shifted
    past the truncation dimension are dropped.
    """

    def __init__(self, m, dim):
        if m < 0:
            raise DomainError("shift power must be nonnegative")
        self.m = int(m)
        self.in_dim = self.out_dim = int(dim)

    def apply(self, x):
        x = self._check(x)
        out = np.zeros_like(x)
        if self.m < self.in_dim:
            out[..., self.m :] = x[..., : self.in_dim - self.m]
        return out

    def as_matrix(self):
        mat = np.zeros((self.out_dim, self.in_dim))
        if self.m < self.in_dim:
            idx = np.arange(self.in_dim - self.m)
            mat[idx + self.m, idx] = 1.0
        return mat

    def __repr__(self):
        return f"ShiftPowerOp(m={self.m}, dim={self.in_dim})"


class EmbeddingOp(Operator):
    """Embed a scalar onto coordinate ``index``: z -> z * e_index."""

    def __init__(self, index, out_dim):
        if not 0 <= index < out_dim:
            raise DimensionError("embedding index out of range")
        self.index = int(index)
        self.in_dim = 1
        self.out_dim = int(out_dim)

    def apply(self, x):
        x = self._check(x)
        out = np.zeros(x.shape[:-1] + (self.out_dim,))
        out[..., self.index] = x[..., 0]
        return out

    def as_matrix(self):
        mat = np.zeros((self.out_dim, 1))
        mat[self.index, 0] = 1.0
        return mat

    def isometry_scale(self, domain, codomain):
        # Any admissible 1-d domain norm gives |z| (weighted_l1 has w_0 = 1).
        return float(codomain.unit_vector_norms()[self.index])

    def __repr__(self):
        return f"EmbeddingOp(index={self.index}, out_dim={self.out_dim})"


class ChainOp(Operator):
    """Composition of operators, applied in list order (parts[0] first)."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise DimensionError("chain needs at least one operator")
        for a, b in zip(parts, parts[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionError("chained operator dimensions do not match")
        self.parts = parts
        self.in_dim = parts[0].in_dim
        self.out_dim = parts[-1].out_dim

    def apply(self, x):
        x = self._check(x)
        for part in self.parts:
            x = part.apply(x)
        return x

    def as_matrix(self):
        mat = self.parts[0].as_matrix()
        for part in self.parts[1:]:
            mat = part.as_matrix() @ mat
        return mat

    def isometry_scale(self, domain, codomain):
        if all(isinstance(p, ScalarOp) for p in self.parts) and domain == codomain:
            return abs(float(np.prod([p.a for p in self.parts])))
        return None

    def __repr__(self):
        return f"ChainOp({self.parts!r})"


def identity_op(dim):
    return ScalarOp(1.0, dim)


def op_power(op, n):
    """n-th power of a square operator, preserving structure where possible."""
    if op.in_dim != op.out_dim:
        raise DimensionError("powers need a square operator")
    if n < 0:
        raise DomainError("operator power must be nonnegative")
    if n == 0:
        return identity_op(op.in_dim)
    if n == 1:
        return op
    if isinstance(op, ScalarOp):
        return ScalarOp(op.a**n, op.in_dim)
    if isinstance(op, DiagonalOp):
        return DiagonalOp(op.entries**n)
    if isinstance(op, ShiftPowerOp):
        return ShiftPowerOp(op.m * n, op.in_dim)
    return DenseOp(np.linalg.matrix_power(op.as_matrix(), n))


@dataclass(frozen=True)
class OperatorNormBound:
    """Upper bound on sup ||A theta|| over the domain unit sphere: the norm
    itself when ``exact``, otherwise a certified upper bound."""

    value: float
    exact: bool


def _corner_max(matrix, codomain):
    # Max-norm unit ball is the cube; a convex function attains its sup at
    # a sign pattern.  Exact for small dimension.
    k = matrix.shape[1]
    signs = np.array(
        [[1.0 if (i >> j) & 1 else -1.0 for j in range(k)] for i in range(2**k)]
    )
    return float(np.max(codomain.norm(signs @ matrix.T)))


def op_norm_bound(op, domain, codomain):
    """Operator norm of ``op`` viewed as a map domain -> codomain, exact or certified.

    Exact for: scaled isometries, any operator out of an l^1-type domain
    (weighted l^1, l^1 or 1-dimensional), max -> max, max -> anything in
    small dimension, l^2 -> l^2, and diagonal-like operators between
    identical lp spaces.  Otherwise flagged inexact, with the certified
    value ||(||A e_j||)_j||_*, the domain's dual norm of the column norms:
    ||Ax|| <= sum_j |x_j| ||A e_j|| <= ||x|| ||(||A e_j||)_j||_* (triangle
    inequality, then Holder).
    """
    if op.in_dim != domain.dim or op.out_dim != codomain.dim:
        raise DimensionError("operator does not map domain into codomain")

    s = op.isometry_scale(domain, codomain)
    if s is not None:
        return OperatorNormBound(float(s), exact=True)

    m = op.as_matrix()
    if domain.kind == "weighted_l1" or domain.dim == 1 or domain.p == 1.0:
        # The unit ball is the hull of +-e_j / ||e_j||; the sup sits at one of them.
        cols = codomain.norm(m.T) / domain.unit_vector_norms()
        return OperatorNormBound(float(np.max(cols)), exact=True)

    if domain.kind == "max":
        if codomain.kind == "max":
            return OperatorNormBound(float(np.max(np.sum(np.abs(m), axis=1))), exact=True)
        if domain.dim <= _CORNER_ENUM_LIMIT:
            return OperatorNormBound(_corner_max(m, codomain), exact=True)

    if (
        domain.kind == "lp"
        and codomain.kind == "lp"
        and codomain.p == domain.p
        and isinstance(op, (ScalarOp, DiagonalOp, ShiftPowerOp))
    ):
        if isinstance(op, ShiftPowerOp):
            value = 1.0 if op.m < domain.dim else 0.0
        elif isinstance(op, ScalarOp):
            value = abs(op.a)
        else:
            value = float(np.max(np.abs(op.entries)))
        return OperatorNormBound(value, exact=True)

    if domain.p == codomain.p == 2.0:
        return OperatorNormBound(float(np.linalg.norm(m, 2)), exact=True)

    return OperatorNormBound(domain.dual_norm(codomain.norm(m.T)), exact=False)


def restricted_norm_bound(op, subspace, domain, codomain):
    """Norm bound of ``op`` restricted to the span of coordinates ``subspace``.

    The coordinate projection onto the span has norm 1 in these norms, so the
    bound of ``op`` after it bounds the restriction; it is capped by the
    bound of ``op`` itself (then flagged inexact).
    """
    cols = sorted(set(int(i) for i in subspace))
    if not cols:
        raise DomainError("subspace must be nonempty")
    if cols[0] < 0 or cols[-1] >= domain.dim:
        raise DimensionError("subspace index out of range")
    if op.in_dim != domain.dim or op.out_dim != codomain.dim:
        raise DimensionError("operator does not map domain into codomain")
    mask = np.zeros(domain.dim)
    mask[cols] = 1.0
    part = op_norm_bound(ChainOp([DiagonalOp(mask), op]), domain, codomain)
    full = op_norm_bound(op, domain, codomain)
    return part if part.value <= full.value else OperatorNormBound(full.value, exact=False)


class ContractionCertificate:
    """Powers T^0..T^h of a square operator on ``space`` with their norm
    bounds; ``lag`` is the first m with ||T^m|| < 1, ``q`` that bound and
    ``lead`` the largest bound below it (DomainError if no power contracts).
    """

    def __init__(self, T, space, horizon):
        if T.in_dim != T.out_dim or T.in_dim != space.dim:
            raise DimensionError("operator must be square on the space")
        if horizon < 1:
            raise DomainError("horizon must be >= 1")
        self.space = space
        self.horizon = int(horizon)
        self.powers = [op_power(T, j) for j in range(self.horizon + 1)]
        self.bounds = [op_norm_bound(p, space, space) for p in self.powers]
        values = [b.value for b in self.bounds]
        lag = next((m for m in range(1, self.horizon + 1) if values[m] < 1.0), None)
        if lag is None:
            raise DomainError(
                f"no power of the operator has norm bound < 1 within horizon "
                f"{self.horizon}; cannot certify a stationary solution"
            )
        self.lag = lag
        self.q = values[lag]
        self.lead = max(values[:lag]) if lag > 1 else 1.0

    def tail(self, after, exponent=1.0):
        """Upper bound on sum_{n > after} ||T^n||^exponent, from
        ||T^n|| <= lead * q^floor(n / lag) (submultiplicativity)."""
        m, q, e = self.lag, self.q, exponent
        return float(m * self.lead**e * q ** (e * ((after + 1) // m)) / (1.0 - q**e))
