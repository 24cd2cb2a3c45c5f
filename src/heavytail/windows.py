"""Finite stretches of spectral and tail processes.

A window holds the values Theta_{-back} .. Theta_{fwd} of one spectral
process draw; a batch stacks many windows so that window functionals can
be evaluated vectorized.  Slot 0 always carries a unit vector.

A batch comes in one of two forms.  The dense form is one
(n, back+fwd+1, dim) array.  The axis form holds windows whose every slot
has at most one nonzero coordinate, as spectral windows of coordinate
embeddings do: a coefficient and a coordinate per slot, with the exact slot
norms.  Its dense array is built only when a caller reads ``values`` or
``slot``, and it equals the dense form byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WindowBatch", "TailBatch"]


class WindowBatch:
    """Stack of n spectral windows sharing the same index range.

    Dense form: ``values`` of shape (n, back+fwd+1, dim).  Axis form (see
    ``from_axes``): slot t of window i is ``coef[i, t] * e_coord[i, t]``, with
    ``coord`` -1 and ``coef`` +0.0 on a zero slot; ``values`` is then built on
    first use.  ``coef`` and ``coord`` are None in the dense form.
    """

    def __init__(self, values, back, fwd, space, origin=None, norms=None):
        """``norms``, if given, equals ``space.norm(values)`` and seeds ``norms()``."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != back + fwd + 1:
            raise ValueError("window batch must have shape (n, back+fwd+1, dim)")
        self._values = values
        self.coef = self.coord = None
        self.back = int(back)
        self.fwd = int(fwd)
        self.space = space
        self.origin = None if origin is None else np.asarray(origin)
        self._norms = norms

    @classmethod
    def from_axes(cls, coef, coord, back, fwd, space, origin=None):
        """Axis-form batch from (n, back+fwd+1) coefficients and coordinates.

        The slot norms come from ``space.axis_norms``, which equals
        ``space.norm`` of the dense slots bit for bit.
        """
        if coef.shape != coord.shape or coef.ndim != 2 or coef.shape[1] != back + fwd + 1:
            raise ValueError("axis-form coefficients and coordinates must have shape "
                             "(n, back+fwd+1)")
        # built through __init__ on an empty dense placeholder, then switched to the axes
        wb = cls(np.empty((0, back + fwd + 1, 0)), back, fwd, space, origin,
                 space.axis_norms(coef, np.maximum(coord, 0)))
        wb._values = None
        wb.coef, wb.coord = coef, coord
        return wb

    def __len__(self):
        return self._norms.shape[0] if self._values is None else self._values.shape[0]

    @property
    def values(self):
        """Dense windows, shape (n, back+fwd+1, dim); built once from the axis form."""
        if self._values is None:
            out = np.zeros(self.coef.shape + (self.space.dim,))
            # a zero slot writes its +0.0 over the +0.0 at coordinate 0
            np.put_along_axis(out, np.maximum(self.coord, 0)[..., None],
                              self.coef[..., None], axis=-1)
            self._values = out
        return self._values

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

    def divided(self, rows, c, back):
        """The windows at ``rows`` (an index or mask array), window i divided by
        ``c[i]``, re-indexed so that their slot ``back`` (counted from the left)
        is offset 0.  The result has the same form, and its norms are those of
        the divided values."""
        fwd = self.back + self.fwd - back
        origin = None if self.origin is None else self.origin[rows]
        if self.coord is None:
            values = self._values[rows]  # a copy: divide in place
            values /= c[:, None, None]
            return WindowBatch(values, back, fwd, self.space, origin)
        return WindowBatch.from_axes(self.coef[rows] / c[:, None], self.coord[rows],
                                     back, fwd, self.space, origin)


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
