"""simulate's CSV sample lines: every cell as %.17g writes it, most of them written by numpy.

A cell x with 10^k <= |x| < 10^(k+1), k in [-4, 16], that keeps its exponent when rounded to 17
significant digits is printed by %.17g in fixed notation: its digits are D = x * 10^(16-k)
rounded half to even.  10^(16-k) <= 10^20 is an exact double, and Dekker's two-product (with
Veltkamp's split by 2^27 + 1) gives x * 10^(16-k) exactly as p + e, where p >= 10^16 > 2^53 is
an integer; so D, and with it the text, is exact.  A row holding any other cell (a signed zero,
exponent notation, inf or NaN, or one whose exponent changes in rounding) is written by the
template ROW % tuple(row) instead, to the same text.

Imported only by a run that writes a CSV, so other runs do not compile it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CELLS", "ROW", "sample_lines"]

CELLS = 11
# a sample line: its numeric cells, then the divergence flag 0
ROW = ",".join(["%.17g"] * CELLS) + ",0\n"

# most rows formatted in one numpy pass, which keeps its arrays in cache and its memory small
_PASS_ROWS = 512
# bytes a cell may take: sign, "0.000" and 17 digits at k = -4, the comma, and room for the
# row's closing "0\n" after its last cell; unused bytes are NUL and dropped at the end
_WIDTH = 26
_FIX_MIN, _FIX_MAX = -4, 16
# 10^j for j in 0..20, exact, and Veltkamp's split of each into two 26-bit halves
_POW10 = np.array([float(10**j) for j in range(21)])
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_D_MAX = 10**17


def _digits(x: np.ndarray):
    """(k, D, ok) of the cells x: the decimal exponent, the 17-digit integer and whether both are proved.

    Outside ok, k and D are meaningless but bounded: k in [-4, 16] and 0 < D < 2^31 * 10^9.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    # a misplaced k shows below as a scaled value outside [10^16, 10^17)
    k = np.clip(np.floor(np.log10(a)), _FIX_MIN, _FIX_MAX).astype(np.intp)
    j = _FIX_MAX - k
    scale, s_hi, s_lo = _POW10[j], _POW10_HI[j], _POW10_LO[j]
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * scale
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # p + e is a * 10^(16-k) exactly; at least 10^16 only if k is the exponent of a
    ok &= (p > 1e16) | ((p == 1e16) & (e >= 0.0))
    floor_e = np.floor(e)
    frac = e - floor_e
    d = p.astype(np.int64) + floor_e.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))
    # D >= 10^17: log10 fell below the exponent of a (numpy's log10 need not be correctly
    # rounded), or rounding carried into the next power of ten
    ok &= d < _D_MAX
    return k, d, ok


def _chars(d: np.ndarray) -> np.ndarray:
    """ASCII digits of each 17-digit D, NUL in place of its trailing zeros; shape (17, n)."""
    # the first 8 digits (after a leading 0) and the last 9, side by side in int32
    part = np.empty((2, len(d)), dtype=np.int32)
    part[0] = d // 10**9
    part[1] = d - part[0] * np.int64(10**9)
    digits = np.empty((2, 9, len(d)), dtype=np.int32)
    for i in range(8, -1, -1):
        quot = part // 10
        digits[:, i] = part - 10 * quot
        part = quot
    digits = digits.reshape(18, len(d))[1:]
    # keep[i]: some digit from i on is not 0
    keep = digits != 0
    for i in range(15, -1, -1):
        keep[i] |= keep[i + 1]
    chars = digits.astype(np.uint8)
    chars += ord("0")
    chars *= keep
    return chars


def _pass(rows: np.ndarray) -> str:
    """Lines of at most _PASS_ROWS rows."""
    x = rows.ravel()
    k, d, ok = _digits(x)
    # cells grouped by k, so that each group is written with the same slices
    order = np.argsort(k.astype(np.int8), kind="stable")
    k_sorted = k[order]
    chars = _chars(d[order])
    text = np.zeros((len(x), _WIDTH), dtype=np.uint8)
    bounds = np.searchsorted(k_sorted, np.arange(_FIX_MIN, _FIX_MAX + 2))
    for kk in range(_FIX_MIN, _FIX_MAX + 1):
        lo, hi = bounds[kk - _FIX_MIN], bounds[kk - _FIX_MIN + 1]
        if lo == hi:
            continue
        group, cell = chars[:, lo:hi].T, text[lo:hi]
        if kk < 0:
            # 0.000ddd: the point, -k-1 zeros, then all 17 digits
            cell[:, 1] = ord("0")
            cell[:, 2] = ord(".")
            cell[:, 3 : 2 - kk] = ord("0")
            cell[:, 2 - kk : 19 - kk] = group
        else:
            # k+1 digits (| 48 writes a trailing zero there as "0"), the point unless every
            # digit after it is a trailing zero, then the rest
            cell[:, 1 : kk + 2] = group[:, : kk + 1] | ord("0")
            if kk < _FIX_MAX:
                cell[:, kk + 2] = np.where(group[:, kk + 1] == 0, 0, ord("."))
                cell[:, kk + 3 : 19] = group[:, kk + 1 :]
    # back to the order of x: cell i is row i of text sorted by k
    sorted_at = np.empty_like(order)
    sorted_at[order] = np.arange(len(order))
    cells = text.take(sorted_at, axis=0)
    cells[:, 0] = np.where(x < 0, ord("-"), 0)
    cells[:, _WIDTH - 3] = ord(",")
    line_ends = cells.reshape(len(rows), CELLS, _WIDTH)[:, -1]
    line_ends[:, -2] = ord("0")
    line_ends[:, -1] = ord("\n")
    lines = cells.reshape(len(rows), CELLS * _WIDTH)
    proved = ok.reshape(len(rows), CELLS).all(axis=1)
    if proved.all():
        return lines.tobytes().translate(None, b"\0").decode("ascii")
    pieces, start = [], 0
    for r in np.flatnonzero(~proved).tolist():
        pieces.append(lines[start:r].tobytes().translate(None, b"\0").decode("ascii"))
        pieces.append(ROW % tuple(rows[r].tolist()))
        start = r + 1
    pieces.append(lines[start:].tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


def sample_lines(rows: np.ndarray):
    """The CSV lines of an (n, 11) float array, ROW % tuple(row) for each row, byte for byte:
    yields one string per pass of at most _PASS_ROWS rows."""
    for start in range(0, len(rows), _PASS_ROWS):
        yield _pass(rows[start : start + _PASS_ROWS])
