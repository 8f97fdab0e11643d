"""simulate's CSV sample lines: every cell as %.17g writes it, most of them written by numpy.

A cell x with 10^k <= |x| < 10^(k+1), k in [-4, 16], that keeps its exponent when rounded to 17
significant digits is printed by %.17g in fixed notation: its digits are D = x * 10^(16-k)
rounded half to even.  10^(16-k) <= 10^20 is an exact double, and Dekker's two-product (with
Veltkamp's split by 2^27 + 1) gives x * 10^(16-k) exactly as p + e, where p >= 10^16 > 2^53 is
an integer; so D, and with it the text, is exact.  A row holding any other cell (a signed zero,
exponent notation, inf or NaN, or one whose exponent changes in rounding) is written by the
template ROW % tuple(row) instead, to the same text.

Imported only by a run that writes a CSV: simulate binds it with its engine, so other commands do
not compile it.
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
# row's closing "0\n" after its last cell; unused bytes are NUL and dropped at the end.  A
# template line fits the row's 11 * 26 bytes: 11 cells of at most 24, 10 commas and ",0\n"
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
    a[~ok] = 1.0
    # a misplaced k shows below as a scaled value outside [10^16, 10^17)
    k = np.clip(np.floor(np.log10(a)), _FIX_MIN, _FIX_MAX).astype(np.int8)
    # j = 16 - k as intp, which _scaled's three lookups index with as it is
    p, e = _scaled(a, _FIX_MAX - k.astype(np.intp))
    # p + e is a * 10^(16-k) exactly; at least 10^16 only if k is the exponent of a
    ok &= (p > 1e16) | ((p == 1e16) & (e >= 0.0))
    floor_e = np.floor(e)
    d = p.astype(np.int64)
    d += floor_e.astype(np.int64)
    frac = np.subtract(e, floor_e, out=e)
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))
    # D >= 10^17: log10 fell below the exponent of a (numpy's log10 need not be correctly
    # rounded), or rounding carried into the next power of ten
    ok &= d < _D_MAX
    return k, d, ok


def _scaled(a: np.ndarray, j: np.ndarray):
    """(p, e) with p = fl(a * 10^j) and p + e = a * 10^j exactly; a is overwritten.

    Dekker's two-product with each term in place, in the order of
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo.
    """
    a_hi = 134217729.0 * a
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    p = _POW10[j]
    p *= a
    e = np.multiply(a_hi, _POW10_HI[j], out=a)
    e -= p
    e += np.multiply(a_hi, _POW10_LO[j], out=a_hi)
    e += np.multiply(a_lo, _POW10_HI[j], out=a_hi)
    e += np.multiply(a_lo, _POW10_LO[j], out=a_lo)
    return p, e


def _chars(d: np.ndarray) -> np.ndarray:
    """ASCII digits of each 17-digit D, NUL in place of its trailing zeros; shape (17, n)."""
    # the first 8 digits (after a leading 0) and the last 9, side by side in int32
    part = np.empty((2, len(d)), dtype=np.int32)
    part[0] = d // 10**9
    part[1] = d - part[0] * np.int64(10**9)
    digits = np.empty((2, 9, len(d)), dtype=np.uint8)
    for i in range(8, -1, -1):
        quot = part // 10
        digits[:, i] = part - 10 * quot
        part = quot
    chars = digits.reshape(18, len(d))[1:]
    # keep[i]: some digit from i on is not 0; == and ~ are kernels the pass runs anyway, where !=
    # on uint8 would page in 64 KB more of numpy's code
    keep = chars == 0
    np.invert(keep, out=keep)
    for i in range(15, -1, -1):
        keep[i] |= keep[i + 1]
    chars |= ord("0")
    chars *= keep
    return chars


def _layout(chars: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Bytes of cells sorted by their exponents k, from their digits chars: one row of _WIDTH per
    cell, NUL in place of the sign, the comma and what the cell leaves unused."""
    text = np.zeros((len(k), _WIDTH), dtype=np.uint8)
    bounds = np.searchsorted(k, np.arange(_FIX_MIN, _FIX_MAX + 2))
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
    return text


def _pass(rows: np.ndarray) -> str:
    """Lines of at most _PASS_ROWS rows.

    Each array is dropped once it has been used, so that the pass holds one copy of its cells at
    a time: their digits, then their bytes sorted by k, then those in the order of rows, then the
    text.
    """
    x = rows.ravel()
    k, d, ok = _digits(x)
    # cells grouped by k, so that each group is written with the same slices
    order = np.argsort(k, kind="stable")
    d = d[order]
    chars = _chars(d)
    del d
    text = _layout(chars, k[order])
    del chars
    # back to the order of x: cell i is row i of text
    sorted_at = np.empty_like(order)
    sorted_at[order] = np.arange(len(order))
    del order
    cells = text.take(sorted_at, axis=0)
    del text, sorted_at
    cells[:, 0] = (x < 0) * np.uint8(ord("-"))
    cells[:, _WIDTH - 3] = ord(",")
    lines = cells.reshape(len(rows), CELLS * _WIDTH)
    lines[:, -2] = ord("0")
    lines[:, -1] = ord("\n")
    # a row holding an unproved cell is the template's line, NUL-padded to the same width
    for r in np.flatnonzero(~ok.reshape(len(rows), CELLS).all(axis=1)).tolist():
        line = (ROW % tuple(rows[r].tolist())).encode("ascii")
        lines[r] = np.frombuffer(line.ljust(CELLS * _WIDTH, b"\0"), dtype=np.uint8)
    raw = cells.tobytes()
    del cells, lines
    kept = raw.translate(None, b"\0")
    del raw
    return kept.decode("ascii")


def sample_lines(rows: np.ndarray):
    """The CSV lines of an (n, 11) float array, ROW % tuple(row) for each row, byte for byte:
    yields one string per pass of at most _PASS_ROWS rows."""
    for start in range(0, len(rows), _PASS_ROWS):
        yield _pass(rows[start : start + _PASS_ROWS])
