"""CSV rows in NumPy, byte for byte as Python's printf ``%`` formats them.

Row formats may convert only with ``%d`` and ``%.17g``.  Every cell of a
batch of rows is written into a uint8 buffer with one row per output byte
position and one column per CSV row, NUL wherever a cell is shorter than
its slot; the transposed buffer loses its NULs in one ``bytes.translate``.

A ``%.17g`` cell of finite |v| in [1e-4, 1e16), where ``%g`` uses fixed
notation, gets its 17 significant digits D = round(|v| * 10**(16 - k)),
k = floor(log10 |v|), from the exact product hi + lo of Dekker's
two-product (Dekker 1971); rounding hi + rint(lo) is dtoa's round half to
even.  Every other value (zeros, subnormal, tiny, huge and non-finite ones)
goes through Python's own ``'%.17g'``.  A ``%d`` cell takes integers exactly
and truncates floats toward zero.
"""

from __future__ import annotations

import re

import numpy as np

# A printf conversion: '%', flags, width and precision, then a letter or '%'.
_CONVERSION = re.compile(r"%[^A-Za-z%]*[A-Za-z%]")

# ASCII digits of 0000..9999, four to a uint32 with the first digit in the
# low byte, and the number of trailing decimal zeros of 0..9999 (4 for 0).
_G4 = np.arange(10000, dtype=np.uint32)
_DIGITS4 = ((_G4 // 1000 + 48) | (_G4 // 100 % 10 + 48) << 8
            | (_G4 // 10 % 10 + 48) << 16 | (_G4 % 10 + 48) << 24)
_ZEROS4 = ((_G4 % 10 == 0).astype(np.int8) + (_G4 % 100 == 0) + (_G4 % 1000 == 0)
           + (_G4 == 0))

# 10**0 .. 10**22, every one an exact double, with Dekker's split of each.
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_DEKKER = 134217729.0  # 2**27 + 1
_POW10_HI = _DEKKER * _POW10 - (_DEKKER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# 10**1 .. 10**18: the int64 digit counts are 1 + searchsorted.
_INT_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)

# Row numbers of a cell's byte positions, as a column.
_ROWS = np.arange(24, dtype=np.int8)[:, None]


def _parse_row_formats(row_fmts):
    """The cell kinds ('d' or 'g') shared by the printf ``row_fmts`` and, per
    literal between cells, a (bytes, formats) uint8 table of its UTF-8 text in
    each format, NUL padded; one column where every format has the same text.

    Only ``%d``, ``%.17g`` and ``%%`` may appear; anything else raises
    ``ValueError``, and so do formats whose cells differ.
    """
    kinds, texts = None, []
    for fmt in row_fmts:
        cells, parts, pos = [], [""], 0
        for match in _CONVERSION.finditer(fmt):
            spec = match.group()
            parts[-1] += fmt[pos:match.start()]
            pos = match.end()
            if spec == "%%":
                parts[-1] += "%"
            elif spec in ("%d", "%.17g"):
                cells.append(spec[-1])
                parts.append("")
            else:
                raise ValueError(f"row format {fmt!r}: conversion {spec!r} is not "
                                 "supported (only %d and %.17g)")
        parts[-1] += fmt[pos:]
        if "%" in fmt[pos:] or "\0" in fmt:
            raise ValueError(f"row format {fmt!r}: incomplete conversion or NUL character")
        if kinds is None:
            kinds = cells
        elif cells != kinds:
            raise ValueError(f"row formats differ in their cells: {row_fmts[0]!r} "
                             f"and {fmt!r}")
        texts.append([part.encode() for part in parts])
    literals = []
    for column in zip(*texts):
        table = np.zeros((max(map(len, column)), len(column)), np.uint8)
        for j, text in enumerate(column):
            table[: len(text), j] = np.frombuffer(text, np.uint8)
        literals.append(table[:, :1] if (table == table[:, :1]).all() else table)
    return kinds, literals


def _with_texts(out, cols, texts):
    """``out`` with the ASCII ``texts`` in columns ``cols``, NUL padded; rows
    are added at the bottom when a text is longer than ``out``."""
    width = max(len(out), max(map(len, texts)))
    if width > len(out):
        out = np.vstack([out, np.zeros((width - len(out), out.shape[1]), np.uint8)])
    out[:, cols] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width).T
    return out


def _digit_groups(v, count):
    """The last 4 * count decimal digits of nonnegative int64 ``v`` as
    ``count`` groups 0..9999, most significant first, and what is left above."""
    groups = []
    for _ in range(count):
        q = v // 10000
        groups.append(v - q * 10000)
        v = q
    return groups[::-1], v


def _put_digits(rows, groups):
    """Write the ASCII digits of ``groups`` (arrays of 0..9999), four rows
    per group, into the uint8 ``rows``."""
    for j, g in enumerate(groups):
        packed = _DIGITS4[g]
        for i in range(4):
            rows[4 * j + i] = packed >> 8 * i  # keeps the low byte


def _scaled(a, k):
    """a * 10**(16 - k) exactly, as hi + lo (Dekker's two-product)."""
    p = 16 - k
    hi = a * _POW10[p]
    ah = _DEKKER * a
    ah -= ah - a
    al = a - ah
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    return hi, lo


def _g_cells(x):
    """``'%.17g' % v`` for each float64 v of ``x``: ASCII with NULs anywhere,
    one row per byte position and one column per value.

    Finite |v| in [1e-4, 1e16) are printed in fixed notation from the 17
    digits D = round(|v| * 10**(16 - k)), k = floor(log10 |v|), computed
    exactly; every other value goes through Python's own ``'%.17g'``.
    """
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    slow = np.flatnonzero(~fast)
    a[slow] = 1.0
    # log10 can be one off next to a power of ten: the exact product shows it
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(below | above)
    if len(fix):
        k[fix] += above[fix].astype(np.intp) - below[fix]
        hi[fix], lo[fix] = _scaled(a[fix], k[fix])
    # hi is an even integer >= 2**53 and |lo| <= 8, so rint rounds the exact
    # product half to even, as dtoa does; 10**17 carries into k
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    groups, lead = _digit_groups(d, 4)
    tz = _ZEROS4[groups[3]]  # trailing zeros of D (at most 16: lead >= 1)
    run = groups[3] == 0
    for g in groups[2::-1]:
        tz += run * _ZEROS4[g]
        run &= g == 0
    # rows 1..17 hold the digits of D, rows 0 and 18 NUL
    dig = np.zeros((19, n), np.uint8)
    np.add(lead, ord("0"), out=dig[1], casting="unsafe")
    _put_digits(dig[2:], groups)
    # Layout: sign row, then for k < 0 five prefix rows "0.000" (the zeros
    # only as needed), then the body: the digits with the point after digit
    # e = k, or with a NUL slot first (e = -1) when the point is in the
    # prefix, cut after the last nonzero fraction digit.
    k = k.astype(np.int8)
    small = k < 0
    e = np.maximum(k, -1)
    frac = 16 - e - tz
    length = e + 1 + (frac > 0) * (1 + frac)
    length[slow] = 0
    width = int(length.max())
    pre = 5 if small.any() else 0
    out = np.zeros((1 + pre + width, n), np.uint8)
    np.multiply(x < 0, np.uint8(ord("-")), out=out[0])
    if pre:
        np.multiply(small, np.uint8(ord("0")), out=out[1])
        np.multiply(small, np.uint8(ord(".")), out=out[2])
        for q in range(3):
            np.multiply(k < -1 - q, np.uint8(ord("0")), out=out[3 + q])
    body = out[1 + pre:]
    # Body rows up to min(e) hold digit p for every value, rows past
    # max(e) + 1 digit p - 1; each row in between picks one of the two or
    # the point (NUL for k < 0).
    lo_rows, hi_rows = min(int(e.min()) + 1, width), min(int(e.max()) + 2, width)
    body[:lo_rows] = dig[1: lo_rows + 1]
    body[hi_rows:] = dig[hi_rows:width]
    if lo_rows < hi_rows:
        rows = _ROWS[lo_rows:hi_rows]
        cur, prev = dig[lo_rows + 1: hi_rows + 1], dig[lo_rows:hi_rows]
        mid = prev + (cur - prev) * (rows <= e)
        point = np.multiply(~small, np.uint8(ord(".")))
        mid += (rows == e + 1) * (point - mid)
        body[lo_rows:hi_rows] = mid
    shortest = int(np.min(length, where=fast, initial=width))
    body[shortest:] *= _ROWS[shortest:width] < length
    if len(slow):
        out = _with_texts(out, slow, ["%.17g" % v for v in x[slow].tolist()])
    return out


def _d_cells(v):
    """``'%d' % v`` for each entry of ``v`` (integers, or floats truncated
    toward zero), laid out as ``_g_cells`` lays out its values: a sign row,
    then the digits right-aligned with NULs for leading zeros."""
    if v.dtype.kind == "f" or v.dtype == np.uint64:
        ok = np.abs(v) < 2.0 ** 63
        iv = np.where(ok, v, 0).astype(np.int64)
    else:
        iv = v.astype(np.int64)
        ok = iv != np.iinfo(np.int64).min
    slow = np.flatnonzero(~ok)
    iv[slow] = 0
    neg = iv < 0
    mag = np.abs(iv)
    nd = 1 + np.searchsorted(_INT_POW10, mag, side="right")
    width = int(nd.max())
    count = (width + 3) // 4
    dig = np.empty((4 * count, len(v)), np.uint8)
    _put_digits(dig, _digit_groups(mag, count)[0])
    lead = 4 * count - int(nd.min())  # rows that hold a leading zero somewhere
    dig[:lead] *= _ROWS[:lead] >= 4 * count - nd
    sign = int(neg.any())
    out = np.empty((sign + width, len(v)), np.uint8)
    if sign:
        np.multiply(neg, np.uint8(ord("-")), out=out[0])
    out[sign:] = dig[4 * count - width:]
    if len(slow):
        out = _with_texts(out, slow, ["%d" % x for x in v[slow].tolist()])
    return out


class CsvRows:
    """Side-by-side (n,) or (n, k) ``columns`` under printf row formats.

    ``row_fmt`` is one format or, with ``fmt_index`` (n,) ints, a table of
    formats, row i taking ``row_fmt[fmt_index[i]]``.  The formats may
    convert only with ``%d`` and ``%.17g`` (and write ``%%``), and those of
    a table must have the same sequence of cells; anything else raises
    ``ValueError``.
    """

    def __init__(self, row_fmt, columns, fmt_index=None):
        self.kinds, self.literals = _parse_row_formats(
            [row_fmt] if fmt_index is None else row_fmt)
        self.columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
        self.sources = [(c, j) for c, col in enumerate(self.columns)
                        for j in range(col.shape[1])]
        if len(self.sources) != len(self.kinds):
            raise ValueError(f"{len(self.kinds)} cells in a row format, "
                             f"{len(self.sources)} columns given")
        self.fmt_index = fmt_index

    def _cell(self, i, start, stop):
        c, j = self.sources[i]
        return self.columns[c][start:stop, j]

    def text(self, start, stop):
        """Rows start..stop-1, each ``row_fmt % row``: every %.17g cell of
        the rows formatted in one pass, each %d cell on its own, the literals
        gathered from their tables."""
        r = stop - start
        cells = [None] * len(self.kinds)
        g_cells = [i for i, kind in enumerate(self.kinds) if kind == "g"]
        if g_cells:
            values = np.empty((len(g_cells), r))
            for row, i in enumerate(g_cells):
                values[row] = self._cell(i, start, stop)
            text = _g_cells(values.ravel()).reshape(-1, len(g_cells), r)
            for row, i in enumerate(g_cells):
                cells[i] = text[:, row]
        for i, kind in enumerate(self.kinds):
            if kind == "d":
                cells[i] = _d_cells(self._cell(i, start, stop))
        parts = []
        for i, table in enumerate(self.literals):
            if table.shape[1] > 1:
                parts.append(np.take(table, self.fmt_index[start:stop], axis=1))
            elif len(table):
                parts.append(np.broadcast_to(table, (len(table), r)))
            parts += cells[i:i + 1]
        return np.concatenate(parts).T.tobytes().translate(None, b"\0").decode()
