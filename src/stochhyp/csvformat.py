"""Exact "%.17g" text of float tables, a whole chunk of values at a time.

`format_rows(rows)` returns the bytes of

    "".join(",".join("%.17g" % value for value in row) + "\\n" for row in rows)

without one string conversion per value. Each value becomes a 17-digit
integer D and a decade X with |x| = D * 10**(X - 16), rounded half-even:

- X = floor(log10|x|), moved by one where the scaled value leaves
  [1e16, 1e17);
- |x| * 10**(16 - X) is the double-double product of |x| and hi + lo, a
  power of ten from a table built at import with correctly rounded integer
  divisions; |x| * hi is expanded into exact partial products (Dekker's
  product), so the scaled value is known to within about 2**-46;
- values whose fraction lies within 2**-30 of one half, where that error
  could decide the rounding, go to Python's "%.17g", as do nan, infinities
  and magnitudes outside [1e-290, 1e290], the table's range.

The `%g` rules (fixed notation for -4 <= X < 17, trailing zeros dropped,
d.ddde+XX otherwise) then put each value's characters in fixed rows of a
uint8 array with one column per value. NUL fills the rows a value does not
use and is deleted from the joined bytes. A fast integer path that sends the
cases it cannot decide to an exact slow one is the design of Loitsch,
"Printing Floating-Point Numbers Quickly and Accurately with Integers"
(PLDI 2010).
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_SMALLEST = 1e-290
_LARGEST = 1e290
_K_MIN = 16 - 292  # 10**k for the decades of [1e-290, 1e290], and a margin either side
_K_MAX = 16 + 292
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves


def _power_table() -> np.ndarray:
    """Row k - _K_MIN: hi, head, tail, lo, with hi + lo = 10**k and head + tail = hi."""
    table = np.empty((_K_MAX - _K_MIN + 1, 4))
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        table[i] = hi, 0.0, 0.0, (num * hi_den - hi_num * den) / (den * hi_den)
    # the head keeps hi's top 26 significant bits and the tail the other 27, so
    # their products with a 26-bit half of |x| are exact
    table[:, 1] = (table[:, 0].view(np.uint64) & ~np.uint64(2**27 - 1)).view(np.float64)
    table[:, 2] = table[:, 0] - table[:, 1]
    return table


_POWERS = _power_table()

# rows of one value's column: sign, the "0.000" of fixed notation below 1,
# 18 rows of digits with the decimal point among them, the exponent "e+ddd",
# and the separator
_SIGN = 0
_PREFIX = 1
_FIELD = 6
_EXP = _FIELD + 18
_SEP = _EXP + 5
_ROWS = _SEP + 1

# "e+dd" or "e-ddd" of every decade the array path meets, NUL-padded to the
# five exponent rows, one column each, and a last column of NUL
_DECADE_MIN = 16 - _K_MAX
_EXPONENTS = np.frombuffer(
    b"".join((b"e%+03d" % d).ljust(5, b"\0") for d in range(_DECADE_MIN, 17 - _K_MIN)) + bytes(5),
    dtype=np.uint8,
).reshape(-1, 5).T.copy()
_BLANK = _EXPONENTS.shape[1] - 1

_PLACE = np.arange(18, dtype=np.uint8)[:, None]
_NO_POINT = 254  # a point index that no row reaches, nor one row past it


def _scaled(ax, decade):
    """floor and fraction of ax * 10**(16 - decade)."""
    hi, head, tail, lo = _POWERS.take(16 - _K_MIN - decade, axis=0).T
    big = _SPLIT * ax
    ax_head = big - (big - ax)
    ax_tail = ax - ax_head
    p = ax * hi
    err = ((ax_head * head - p) + ax_head * tail + ax_tail * head) + ax_tail * tail
    t = err + ax * lo
    whole = np.floor(t)
    t -= whole
    return p.astype(np.int64) + whole.astype(np.int64), t


def _decimal(x):
    """17-digit integer, decade, and the mask of values left to Python's "%.17g"."""
    ax = np.abs(x)
    fast = (ax >= _SMALLEST) & (ax <= _LARGEST)
    slow = ~fast & (ax != 0)
    ax[~fast] = 1.0
    decade = np.floor(np.log10(ax)).astype(np.int64)
    for _ in range(2):
        floor, frac = _scaled(ax, decade)
        low = floor < 10**16
        high = floor >= 10**17
        # count_nonzero, not any(): each numpy loop a process runs for the
        # first time pages in more of numpy's library, and bool reductions
        # are a loop that nothing else here runs
        if not np.count_nonzero(low | high):
            break
        decade += high
        decade -= low
    else:
        slow |= low | high
    slow |= np.abs(frac - 0.5) <= _TIE
    digits = floor + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    decade += carry
    digits[~fast] = 0  # zeros print as "0"; their decade is log10(1.0) = 0
    return digits, decade, slow


def format_rows(rows) -> bytes:
    """The "%.17g" text of a 2-D float table: values joined by ',', rows ended by '\\n'."""
    rows = np.asarray(rows, dtype=float)
    x = rows.ravel()
    n = x.size
    digits, decade, slow = _decimal(x)

    # the 17 digits, most significant first, in rows 1..17 of a buffer whose
    # rows 0 and 18 are NUL: peeled off from the right of two uint32 halves,
    # 9 digits each, into rows j and j + 9; the first half is below 10**8, so
    # its digit 0 is the NUL of row 0
    halves = np.empty((2, n), dtype=np.uint32)
    halves[0] = digits // 10**9
    halves[1] = digits - halves[0] * np.int64(10**9)
    padded = np.empty((19, n), dtype=np.uint8)
    padded[18] = 0
    for j in range(8, -1, -1):
        quotient = halves // 10
        padded[j : j + 10 : 9] = halves - quotient * 10
        halves = quotient
    digit = padded[1:18]

    count = (digit != 0).view(np.uint8)  # digits left once trailing zeros go
    count = (count * (_PLACE[:17] + 1)).max(axis=0)
    fixed = (decade >= -4) & (decade < 17)
    whole = fixed & (decade >= 0)
    below = fixed & (decade < 0)
    shown = np.maximum(count, np.where(whole, decade + 1, 0).astype(np.uint8))
    point = np.where(whole, decade, 0)
    point[below | (count <= point + 1)] = _NO_POINT
    point = point.astype(np.uint8)

    out = np.empty((_ROWS, n), dtype=np.uint8)
    out[_SIGN] = np.signbit(x).view(np.uint8) * ord("-")
    out[_PREFIX] = below.view(np.uint8) * ord("0")
    out[_PREFIX + 1] = below.view(np.uint8) * ord(".")
    for z in range(3):
        out[_PREFIX + 2 + z] = (below & (decade < -1 - z)).view(np.uint8) * ord("0")
    digit += ord("0")
    digit *= (_PLACE[:17] < shown).view(np.uint8)  # trailing zeros become NUL
    # field row r: digit r up to the point, the point, then digit r - 1; uint8
    # arithmetic wraps, so a + (b - a) * keep picks b where keep is 1
    field = out[_FIELD:_EXP]
    np.subtract(padded[1:], padded[:-1], out=field)
    field *= (_PLACE <= point).view(np.uint8)
    field += padded[:-1]
    dot = ord(".") - padded[:-1]
    dot *= (_PLACE == point + 1).view(np.uint8)
    field += dot
    # the exponent's characters, or NUL in fixed notation, from a table: one
    # take instead of the digit arithmetic of the small exponent integers
    out[_EXP:_SEP] = _EXPONENTS.take(np.where(fixed, _BLANK, decade - _DECADE_MIN), axis=1)
    out[_SEP] = ord(",")
    out[_SEP, rows.shape[1] - 1 :: rows.shape[1]] = ord("\n")

    for j in np.flatnonzero(slow):
        text = b"%.17g" % x[j]
        out[:_SEP, j] = 0
        out[: len(text), j] = np.frombuffer(text, dtype=np.uint8)
    return out.T.tobytes().translate(None, b"\0")
