"""Finite stretches of spectral and tail processes.

A window holds the values Theta_{-back} .. Theta_{fwd} of one spectral
process draw; a batch stacks many windows into a single array so that
window functionals can be evaluated vectorized.  Slot 0 always carries a
unit vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WindowBatch", "TailBatch"]


class WindowBatch:
    """Stack of n spectral windows sharing the same index range."""

    def __init__(self, values, back, fwd, space, origin=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != back + fwd + 1:
            raise ValueError("window batch must have shape (n, back+fwd+1, dim)")
        self.values = values
        self.back = int(back)
        self.fwd = int(fwd)
        self.space = space
        self.origin = None if origin is None else np.asarray(origin)
        self._norms = None

    def __len__(self):
        return self.values.shape[0]

    def slot(self, t):
        """Values at time offset t, shape (n, dim)."""
        if not -self.back <= t <= self.fwd:
            raise IndexError(f"offset {t} outside window [-{self.back}, {self.fwd}]")
        return self.values[:, self.back + t, :]

    def norms(self):
        """Per-slot norms, shape (n, back+fwd+1); cached."""
        if self._norms is None:
            self._norms = self.space.norm(self.values)
        return self._norms

    def norm_at(self, t):
        return self.norms()[:, self.back + t]

    def subwindow(self, back, fwd):
        """Restrict every window to the offsets [-back, fwd]."""
        if back > self.back or fwd > self.fwd:
            raise IndexError("subwindow exceeds available offsets")
        lo = self.back - back
        hi = self.back + fwd + 1
        return WindowBatch(self.values[:, lo:hi, :], back, fwd, self.space, self.origin)


class TailBatch:
    """Batch of tail windows: Y_t = radius * Theta_t with shared per-row radius."""

    def __init__(self, radii, windows):
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (len(windows),):
            raise ValueError("one radius per window required")
        self.radii = radii
        self.windows = windows

    def __len__(self):
        return len(self.windows)

    def values_at(self, t):
        return self.radii[:, None] * self.windows.slot(t)

    def norm_at(self, t):
        return self.radii * self.windows.norm_at(t)

