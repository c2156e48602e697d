"""The trace file: ``solve`` writes it (``write_trace``), and ``audit``
and ``fit`` read it back (``read_trace``) bit for bit.

Layout.  The columns are ``IterateTrace.columns``, with CRLF line ends, as
``csv.writer`` writes them.  A None column is blank before the last column
that is not (``f_err`` without a reference) and absent after it (the dual
columns).  Every number is exactly as ``b"%.17g" % v`` prints it, so it
reads back to the same double (``t``, an integer <= 2**53, prints as with
``"%d"``); numpy makes the text, as below.  The file is written in place
(``rewrite``), in chunks: the header, then each ``_ROWS``-row slice's text.
In one process, a read compares a file with the chunks of the last trace
written, one at a time, and takes that trace's columns where they match.

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
where nothing is printed (no sign, or a point with no digit after it); a
``take`` per _PIECE cells makes the text.  The tables are built by the
first call, not at import.

Memory.  Each stage's arrays go when it ends: the double-double stage's
(``_digits``) once D is known, the digit groups (``_put_digits``) once
the cells and their layout keys are, and the gather's index (8 bytes a
byte of text) piece by piece.

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

import collections
import functools
import io
import os
from pathlib import Path

import numpy as np

from .core import IterateTrace, _check_t

_X_MIN, _X_MAX = -41, 40  # the exponents of 1e-40 <= |v| <= 1e40
# Rows formatted at once, and a chunk of the trace file.  More rows cost
# fewer numpy calls a cell and more memory.  Formatting the dense num_6_1
# trace (9 x 10,001 cells, 1.67 MiB of text) peaks at 2.05 MiB
# (tracemalloc) with 512 rows and 2.17 with 1,024; a 14 x 360 slice in
# which every cell is a head peaks at 0.83 MiB.  With every stage's arrays
# alive to the end, 256 rows peaked at 2.07 MiB; 512 rows, at that peak
# now, raise dense_trace iters_per_s 1.08-1.17x (harness medians).
_ROWS = 512
_PIECE = 1024  # heads gathered at once: an index of 208 KiB

# Byte offsets in a cell's 32 bytes: digit k of D at 3 + k (the groups are
# "000d", "dddd" x 4), then sign, ".", "0", NUL, the exponent at 24..27 and
# the separator at 28..29.
_SIGN, _POINT, _ZERO, _NUL, _EXP, _SEP = 20, 21, 22, 23, 24, 28
_BODY = 24  # the longest number, "-2.2250738585072014e-308", is 24 bytes

# The trace this process wrote last: its chunks, and its read-only float
# columns by header name (None for a blank one), bitwise what a parse gives,
# as "%.17g" round-trips a double and t is core._check_t's integer.
_last_written: tuple[list[bytes], dict] | None = None


def write_trace(path: Path, trace: IterateTrace) -> None:
    """Write the trace's ``columns`` to ``path`` in the layout above;
    once the file is closed, its chunks and columns are ``_last_written``."""
    global _last_written
    _last_written = None
    cols = trace.columns()
    names, at = list(cols), [j for j, col in enumerate(cols.values()) if col is not None]
    header, present = names[:at[-1] + 1], [names[j] for j in at]
    # a present column's cell ends with a comma for itself and each blank after it
    seps = [b"," * (k - j) for j, k in zip(at, at[1:])] + [b"\r\n"]
    block = np.array([cols[name] for name in present], dtype=float)  # one row per column
    block.flags.writeable = False
    chunks = [(",".join(header) + "\r\n").encode(), *format_rows(block, seps)]
    rewrite(path, chunks)
    _last_written = chunks, {**dict.fromkeys(header), **dict(zip(present, block))}


def rewrite(path: Path, chunks) -> None:
    """Write ``chunks`` to ``path`` from offset 0, leaving the bytes that
    ``open(path, "wb")`` leaves, without its truncation to zero: ext4
    starts the writeback of a file truncated to zero when it is closed,
    which made a 1.24 MB rewrite 1.93 ms against 0.58 ms in place (2-core
    x86-64, rewrites 0.3 s apart).  Nothing is fsynced.

    A new file gets the mode ``open`` gives it; an old one keeps its inode,
    mode and owner, and a symlink or hard link still leads to it.  Only
    where the old file was longer is it cut at the written length, also
    after a write that raises, so it holds exactly the bytes that reached
    it.  A FIFO or a device reports size 0, so it is never asked for its
    position, which a pipe cannot give.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        old_size = os.fstat(fd).st_size
        try:
            fh.writelines(chunks)
        finally:
            if old_size and fh.tell() < old_size:
                fh.truncate()


def read_trace(path: Path, columns) -> dict:
    """Read the columns of a trace file whose names satisfy ``columns``.

    Returns {name: read-only float array} in header order; a column whose
    first data cell is blank (``f_err`` without a reference) maps to None.
    A seekable file is compared with the chunks this process wrote last,
    one at a time; if it holds them and nothing more, it takes the columns
    in ``_last_written``.  A file that differs, or a pipe, is parsed as
    UTF-8 from the same handle.  A header that repeats a column name, a
    row whose field count differs from the header's, a blank, non-numeric
    or non-finite cell in a parsed column, or a ``t`` that
    ``core._check_t`` refuses raises ValueError.
    """
    written, entry = _last_written or ((), None)
    with open(path, "rb") as fh:
        compared = entry is not None and fh.seekable()
        if compared and all(fh.read(len(c)) == c for c in written) and not fh.read(1):
            cols = {name: col for name, col in entry.items() if columns(name)}
        else:
            if compared:
                fh.seek(0)
            cols = _parse_trace(fh, columns)
    for name, col in cols.items():
        if col is not None and not np.isfinite(col).all():
            raise ValueError(f"trace CSV column {name!r} holds a non-finite number")
    if cols.get("t") is not None:
        _check_t(cols["t"], "trace CSV column 't'")
    return cols


def _parse_trace(fh, columns) -> dict:
    # read as open(path, encoding="utf-8") would: lines end at \r\n, \n or \r
    with io.TextIOWrapper(fh, encoding="utf-8") as text:
        lines = [line.rstrip("\n") for line in text]
    if not lines:
        raise ValueError("trace CSV is empty")
    header, data = lines[0].split(","), lines[1:]
    repeated = [name for name, n in collections.Counter(header).items() if n > 1]
    if repeated:
        raise ValueError(f"trace CSV repeats the column '{repeated[0]}'")
    if not data:
        raise ValueError("trace CSV has no data rows")
    commas = len(header) - 1
    if any(line.count(",") != commas for line in data):
        raise ValueError("trace CSV is malformed (ragged rows)")
    first = data[0].split(",")
    cols = {name: None for name in header if columns(name)}
    usecols = [j for j, name in enumerate(header) if name in cols and first[j]]
    if usecols:
        parsed = np.loadtxt(data, delimiter=",", usecols=usecols, ndmin=2,
                            comments=None).T.copy()
        parsed.flags.writeable = False
        cols.update(zip([header[j] for j in usecols], parsed))
    return cols


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


def format_rows(block: np.ndarray, seps: list[bytes]) -> list[bytes]:
    """The CSV lines of ``block``, a float array with one row per column, in
    texts of ``_ROWS`` rows: each cell as ``b"%.17g" % v`` prints it, then
    its column's separator in ``seps`` (1-2 bytes, such as b"," or b"\\r\\n")."""
    tables = _tables()
    sep = np.frombuffer(b"".join(b"\0" * 4 + s.ljust(4, b"\0") for s in seps), "=u8")
    return [_reuse(block[:, i:i + _ROWS], sep, tables)
            for i in range(0, block.shape[1], _ROWS)]


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
    powers, groups, trailing, signs, exps, keys, offsets = tables
    row, d, decided = _digits(v, powers)
    cell = np.empty(v.shape + (8,), np.uint32)
    cell[..., 5] = signs.take(np.signbit(v).view(np.int8))
    cell.view(np.uint64)[..., 3] = exps.take(row) | sep
    key = keys.take(row) - _put_digits(d, cell, groups, trailing)
    del row, d

    text = np.empty((len(v), _BODY + 2), np.uint8)
    base = np.arange(0, 32 * _PIECE, 32)[:, None]
    for i in range(0, len(v), _PIECE):
        idx = offsets.take(key[i:i + _PIECE], axis=0)
        idx += base[:len(idx)]
        cell[i:i + _PIECE].view(np.uint8).take(idx, out=text[i:i + _PIECE])

    undecided = np.flatnonzero(~decided)
    if len(undecided):
        raw = b"".join((b"%.17g" % f).ljust(_BODY, b"\0")
                       for f in v[undecided].tolist())
        text[undecided, :_BODY] = np.frombuffer(raw, np.uint8).reshape(-1, _BODY)
    return text


def _digits(v: np.ndarray, powers: tuple) -> tuple:
    # X's row in the tables, D, and whether D and X are what %.17g prints
    hi, hh, hl, lo = powers
    a = np.abs(v)
    inside = (a >= 1e-40) & (a <= 1e40)
    a[~inside] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) - _X_MIN
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
    return row, d, decided


def _put_digits(d: np.ndarray, cell: np.ndarray, groups: np.ndarray,
                trailing: np.ndarray) -> np.ndarray:
    # D's digits into each cell's first 20 bytes; returns D's trailing zeros
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    g0 = high // 10 ** 8
    mid = high - g0 * 10 ** 8
    g1 = mid // 10 ** 4
    g3 = low // 10 ** 4
    g2, g4 = mid - g1 * 10 ** 4, low - g3 * 10 ** 4
    for k, g in enumerate((g0, g1, g2, g3, g4)):
        cell[..., k] = groups.take(g)
    zeros = trailing.take(g1)
    for g in (g2, g3, g4):
        zeros = np.where(g == 0, zeros + 4, trailing.take(g))
    return zeros
