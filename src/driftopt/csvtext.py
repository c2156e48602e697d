"""The trace CSV's text: every number exactly as ``b"%.17g" % v`` prints it,
made by numpy.

Digits.  For 1e-40 <= |v| <= 1e40, let X = floor(log10 |v|) and
y = |v|·10^(16−X); the 17 digits are D = round(y).  A table holds
10^(16−X) as hi + lo: hi is the double nearest it and lo the double nearest
the rest, both from Python ints, and hi is split in 26-bit halves.  A
Veltkamp split of |v| and Dekker's two-product (1971) give |v|·hi = s + e
exactly, and y ≈ s + t with t = e + |v|·lo.  Only lo, |v|·lo and that sum
are rounded, so |s + t − y| < 2^-104·y, below 1e-14 for y < 1e17.  s is an
integer once y > 1e16 (every double above 2^53 is), so
D = s + floor(t) + (frac(t) >= 1/2) is exact in int64.

Decision.  A cell is decided when 1e16 < D < 1e17, so that X is the
exponent ``%.17g`` prints and D its digits, and frac(t) is more than 1e-9
from 1/2, so that D rounds y the way ``%.17g`` rounds |v| (it breaks an
exact tie to even; D above breaks it up).  Zeros are decided too.  Every
other cell is ``b"%.17g" % v`` itself, spliced in: a value out of the
range, a decade edge where log10 rounds up (1e-16 prints as
9.9999999999999998e-17), a tie (2^-25 prints as 2.9802322387695312e-08),
inf and nan.  As in Grisu (Loitsch, PLDI 2010), fixed-width arithmetic
with an error bound decides almost every cell and the exact slow path
takes the rest.

Text.  Per cell, 32 bytes hold D's digits (a table of 4-digit groups gives
them four at a time), the sign, ".", "0", the exponent ("e-05") and the
column's separator.  A table of gather offsets, keyed by the form (fixed
for X in −4..16, otherwise scientific) and by the count of digits left once
trailing zeros go, lists a cell's bytes in print order, with a NUL byte
where nothing is printed (no sign, or a point with no digit after it); one
``take`` makes the text.  The tables are built by the first call, not at
import.

Reuse.  Equal bits print equal text, so in each slice of rows only the
heads are formatted: the cells whose bits differ from the cell above
them, and the slice's first row.  Bits, not values: 0.0 and -0.0 are
equal and print apart.  A second ``take`` gives every cell the 26 bytes
of the last head at or above it, and ``bytes.translate`` drops the NULs
(faster than ``np.compress`` on a mask).  A dense dpp-shifted trace
repeats its window average on every odd row and its dual columns past
the queue's fixed point: 40-71% of its cells.
"""

from __future__ import annotations

import functools

import numpy as np

_X_MIN, _X_MAX = -41, 40  # the exponents of 1e-40 <= |v| <= 1e40
# Rows formatted at once.  On dense_trace (8-9 columns, 30 s runs, 3 seeds)
# 1,024-row slices raised peak_rss_mb by 4.8-5.1 MiB over the %-formatting
# loop and 256-row ones by 0.3-1.3 MiB; 1,024 rows were about 10% faster.
# A test bounds the peak on the dense num_6_1 trace (tracemalloc): 2.1 MiB
# with 256 rows, 3.5 MiB with 1,024.
_ROWS = 256

# Byte offsets in a cell's 32 bytes: digit k of D at 3 + k (the groups are
# "000d", "dddd" x 4), then sign, ".", "0", NUL, the exponent at 24..27 and
# the separator at 28..29.
_SIGN, _POINT, _ZERO, _NUL, _EXP, _SEP = 20, 21, 22, 23, 24, 28
_BODY = 24  # the longest number, "-2.2250738585072014e-308", is 24 bytes


@functools.cache
def _tables() -> tuple:
    tens = []
    for x in range(_X_MIN, _X_MAX + 1):
        e = 16 - x
        if e >= 0:
            hi = float(10 ** e)
            lo = float(10 ** e - int(hi))
        else:
            d = 10 ** -e
            hi = 1 / d  # int / int is correctly rounded
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (den * d)
        tens.append((hi, lo))
    hi, lo = np.array(tens).T
    c = hi * 134217729.0  # Veltkamp: hi = hh + (hi - hh), 26 bits each
    hh = c - (c - hi)
    powers = hi, hh, hi - hh, lo

    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    zero = (ascii == ord("0")).astype(np.intp)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000" .. "9999"
    trailing = np.zeros((10, 10, 10, 10), np.intp)  # their trailing zeros
    for k in range(4):
        shape = (-1,) + (1,) * (3 - k)
        digits[..., k] = ascii.reshape(shape)
        trailing = zero.reshape(shape) * (1 + trailing)
    groups = digits.reshape(-1, 4).view("=u4")[:, 0]

    signs = np.frombuffer(b"\0.0\0-.0\0", "=u4")
    exps = np.frombuffer(b"".join(b"e%+03d\0\0\0\0" % x for x in range(_X_MIN, _X_MAX + 1)),
                         "=u8")

    # A cell's bytes in print order, for each form (X + 4 for fixed X in
    # -4..16, then scientific), and the digits before its point.
    layouts, lead = [], []
    for x in range(-4, 18):
        if x == 17:
            body, before = [3, _POINT, *range(4, 20), *range(_EXP, _EXP + 4)], 1
        elif x >= 0:
            body, before = [*range(3, 4 + x), _POINT, *range(4 + x, 20)], x + 1
        else:
            body, before = [_ZERO, _POINT, *[_ZERO] * (-x - 1), *range(3, 20)], 0
        layouts.append([_SIGN, *body, *[_NUL] * (_BODY - 1 - len(body)), _SEP, _SEP + 1])
        lead.append(before)
    layouts = np.array(layouts)[:, None, :]
    lead = np.array(lead)[:, None, None]
    # for each count of significant digits, 1..17: a digit past both that
    # count and the point is not printed, nor a point with no digit after it
    count = np.arange(1, 18)[:, None]
    digit = np.where((layouts >= 3) & (layouts < 20), layouts - 3, -1)
    hidden = (digit >= np.maximum(count, lead)) | ((layouts == _POINT) & (count <= lead))
    offsets = np.where(hidden, _NUL, layouts).reshape(-1, _BODY + 2)
    # by X's row: the key of its form with 17 digits, from which a cell takes
    # off its trailing zeros
    x = np.arange(_X_MIN, _X_MAX + 1)
    keys = np.where((x >= -4) & (x <= 16), x + 4, 21) * 17 + 16
    return powers, groups, trailing.ravel(), signs, exps, keys, offsets


def format_rows(block: np.ndarray, seps: list[bytes]) -> bytes:
    """The CSV lines of ``block``, a float array with one row per column:
    each cell as ``b"%.17g" % v`` prints it, followed by its column's
    separator in ``seps`` (one or two bytes, such as b"," or b"\\r\\n")."""
    tables = _tables()
    sep = np.frombuffer(b"".join(b"\0" * 4 + s.ljust(4, b"\0") for s in seps), "=u8")
    return b"".join(_reuse(block[:, i:i + _ROWS], sep, tables)
                    for i in range(0, block.shape[1], _ROWS))


def _reuse(cols: np.ndarray, sep: np.ndarray, tables: tuple) -> bytes:
    # the heads counted in column order give each cell the last head at or
    # above it: every column starts with one
    bits = cols.view(np.int64)
    heads = np.ones(cols.shape, bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=heads[:, 1:])
    text = _format(cols[heads], np.repeat(sep, heads.sum(1)), tables)
    head = (np.cumsum(heads) - 1).reshape(heads.shape)
    return text.take(head.T, axis=0).tobytes().translate(None, b"\0")


def _format(v: np.ndarray, sep: np.ndarray, tables: tuple) -> np.ndarray:
    (hi, hh, hl, lo), groups, trailing, signs, exps, keys, offsets = tables
    a = np.abs(v)
    inside = (a >= 1e-40) & (a <= 1e40)
    a[~inside] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) - _X_MIN  # X's row in the tables
    c = a * 134217729.0  # Veltkamp: a = ah + al, 26 bits each
    ah = c - (c - a)
    al = a - ah
    bh, bl = hh.take(row), hl.take(row)
    s = a * hi.take(row)
    t = (((ah * bh - s) + ah * bl + al * bh) + al * bl) + a * lo.take(row)
    whole = np.floor(t)
    frac = t - whole
    d = s.astype(np.int64) + whole.astype(np.int64) + (frac >= 0.5)
    decided = inside & (d > 10 ** 16) & (d < 10 ** 17) & (np.abs(frac - 0.5) > 1e-9)
    d[~decided] = 0  # a zero prints D = 0 at X = 0
    decided |= v == 0

    high = d // 10 ** 8
    low = d - high * 10 ** 8
    g0 = high // 10 ** 8
    mid = high - g0 * 10 ** 8
    g1 = mid // 10 ** 4
    g3 = low // 10 ** 4
    g2, g4 = mid - g1 * 10 ** 4, low - g3 * 10 ** 4
    cell = np.empty(v.shape + (8,), np.uint32)
    for k, g in enumerate((g0, g1, g2, g3, g4)):
        cell[..., k] = groups.take(g)
    cell[..., 5] = signs.take(np.signbit(v).view(np.int8))
    cell.view(np.uint64)[..., 3] = exps.take(row) | sep

    zeros = trailing.take(g1)
    for g in (g2, g3, g4):
        zeros = np.where(g == 0, zeros + 4, trailing.take(g))
    idx = offsets.take(keys.take(row) - zeros, axis=0)
    idx += np.arange(0, 32 * len(idx), 32)[:, None]
    text = cell.view(np.uint8).take(idx)

    undecided = np.flatnonzero(~decided)
    if len(undecided):
        raw = b"".join((b"%.17g" % f).ljust(_BODY, b"\0")
                       for f in v[undecided].tolist())
        text[undecided, :_BODY] = np.frombuffer(raw, np.uint8).reshape(-1, _BODY)
    return text
