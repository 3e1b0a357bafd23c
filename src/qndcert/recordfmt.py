"""Exact vectorized ``%d`` / ``%.17g`` formatting of shot-record rows.

:func:`format_rows` returns, for a block of rows, the bytes that
``("%d," + ",".join(["%.17g"] * k) + "\\n") % row`` gives row by row,
without formatting any row in Python.

For each value with ``1e-6 <= |x| < 1e17`` (decimal exponent ``X`` in
-6..16) the correctly rounded 17-digit significand
``D = round_half_even(|x| * 10**(16 - X))`` is computed exactly: the
product with the exactly representable ``10**(16 - X)`` is split into
``p + e`` by Dekker's error-free product with Veltkamp splitting (Dekker,
"A floating-point technique for extending the available precision",
Numer. Math. 18, 1971).  ``X`` starts from ``floor(log10|x|)`` and is
corrected exactly by comparing ``p + e`` with 1e16 and 1e17; since
``p >= 1e16 > 2**53`` is an integer, rounding ``e`` (ties to even on the
exact half) rounds the product.  ``D`` never rounds up to 10**17, which
would move ``X``: that needs ``|x|`` within 5e-18 (relative) below a
power of ten, and the closest double below each of 1e-6 .. 1e17 is at
least 4.5e-17 (relative) below it.

The characters of a value depend only on ``D``'s digits and on
``(X, sign, significant digits)``.  A table keyed by that triple gives,
per output position, which byte of a per-value source row (the 17 digit
characters, a few constant characters and the separator) goes there, and
how many positions are used.  A byte gather, 2048 fields at a time,
builds every field; a prefix mask per field, and a suffix mask for the
``shot`` column's right-aligned digits, compact each block into one
``bytes`` object.

Zero, subnormals, ``|x| < 1e-6`` and ``|x| >= 1e17`` are formatted one
by one with ``'%.17g' % v`` and spliced into their field.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

# The longest '%.17g' text, -4.9406564584124654e-324, and a separator
_FIELD = 25
_MIN_X, _MAX_X = -6, 16  # fixed notation for X >= -4, exponent notation below
_POW10 = 10.0 ** np.arange(_MAX_X - _MIN_X + 1)  # exact: 5**22 < 2**53
_VELTKAMP = 134217729.0  # 2**27 + 1
# Fields gathered at a time: bounds the byte-index array at 400 kB.
_GATHER = 2048

# A value's source row, 32 bytes: a 4-digit word holding the leading digit
# in its last byte, four 4-digit words, then the constants and separator.
_DIGIT0 = 3
_CONSTANTS = b"-.0e56"
_CONST0 = _DIGIT0 + 17
_SEPARATOR = _CONST0 + len(_CONSTANTS)
_MINUS, _POINT, _ZERO, _E = (_CONST0 + _CONSTANTS.index(c) for c in b"-.0e")
_SOURCE = 32
_CONSTANT_ROW = np.frombuffer(_CONSTANTS.ljust(_SOURCE - _CONST0, b"\0"),
                              np.uint8)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each 4-digit group, 0000 to 9999, as one native word of digit
    characters, and its count of trailing zeros."""
    group = np.arange(10000)
    chars = np.stack([group // 10 ** (3 - j) % 10 for j in range(4)], axis=1)
    words = (chars.astype(np.uint8) + ord("0")).view(np.uint32).ravel()
    trailing = sum((group % 10 ** j == 0).astype(np.int8) for j in range(1, 5))
    return words, trailing


_WORD4, _TRAILING4 = _group_tables()
_PREFIX = np.arange(_FIELD) < np.arange(_FIELD + 1)[:, None]


def _layout(x: int, negative: bool, digits: int) -> list[int]:
    """The source bytes of a value's ``%.17g`` text and separator, for
    decimal exponent ``x`` and ``digits`` significant digits."""
    digit = list(range(_DIGIT0, _DIGIT0 + 17))
    out = [_MINUS] if negative else []
    if x >= 0:
        out += digit[:x + 1]
        if digits > x + 1:
            out += [_POINT] + digit[x + 1:digits]
    elif x >= -4:
        out += [_ZERO, _POINT] + [_ZERO] * (-x - 1) + digit[:digits]
    else:
        out += digit[:1] + ([_POINT] + digit[1:digits] if digits > 1 else [])
        out += [_E, _MINUS, _ZERO, _CONST0 + _CONSTANTS.index(b"%d" % -x)]
    return out + [_SEPARATOR]


def _key(x, negative, digits):
    """Pattern-table row: by exponent, then sign, then significant digits,
    the order in which :func:`_pattern_table` lists the layouts."""
    return ((x - _MIN_X) * 2 + negative) * 17 + digits - 1


def _pattern_table() -> tuple[np.ndarray, np.ndarray]:
    """Source byte per output position, and the field length, by key."""
    patterns, lengths = [], []
    for x in range(_MIN_X, _MAX_X + 1):  # in _key order
        for negative in (False, True):
            for digits in range(1, 18):
                source = _layout(x, negative, digits)
                lengths.append(len(source))
                patterns.append(source + [0] * (_FIELD - len(source)))
    return np.array(patterns, np.int16), np.array(lengths)


_PATTERNS, _LENGTHS = _pattern_table()


def _two_product(a: np.ndarray, b: np.ndarray):
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly."""
    p = a * b
    c = _VELTKAMP * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _VELTKAMP * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal exponent ``X`` and significand ``D`` (10**16 <= D < 10**17)
    of ``%.17g`` for each ``a`` from 10**-6 up to 1e17."""
    x = np.clip(np.floor(np.log10(a)), _MIN_X, _MAX_X).astype(np.int64)
    p, e = _two_product(a, _POW10[_MAX_X - x])
    shift = (((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64)
             - ((p < 1e16) | ((p == 1e16) & (e < 0))))
    moved = np.flatnonzero(shift)
    if moved.size:
        x[moved] += shift[moved]
        p[moved], e[moved] = _two_product(a[moved], _POW10[_MAX_X - x[moved]])
    floor = np.floor(e)
    d = p.astype(np.int64) + floor.astype(np.int64)
    rest = e - floor
    d += (rest > 0.5) | ((rest == 0.5) & (d % 2 == 1))
    return x, d


def _shot_column(first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-aligned digit characters of ``first .. first + n - 1`` and
    the mask of the ones ``%d`` prints."""
    shots = np.arange(first, first + n, dtype=np.int64)
    width = len(str(first + n - 1))
    groups = -(-width // 4)
    words = np.empty((n, groups), np.uint32)
    rest = shots
    for column in range(groups - 1, -1, -1):
        rest, group = np.divmod(rest, 10000)
        words[:, column] = _WORD4[group]
    chars = words.view(np.uint8)[:, 4 * groups - width:]
    blank = np.full(n, width - 1)
    for power in range(1, width):
        blank -= shots >= 10 ** power
    suffix = np.arange(width) >= np.arange(width)[:, None]
    return chars, suffix.take(blank, axis=0)


def _source_rows(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each significand's 32-byte source row, with the separator of its
    column, and its count of significant digits."""
    top, low = np.divmod(d, 10 ** 16)
    high, low = np.divmod(low, 10 ** 8)
    groups = np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4)
    words = np.empty((d.size, _SOURCE // 4), np.uint32)
    words[:, 0] = _WORD4[top]
    trailing = np.zeros(d.size, np.int64)
    zero = np.ones(d.size, bool)
    for column in range(4, 0, -1):
        group = groups[column - 1]
        words[:, column] = _WORD4[group]
        trailing += zero * _TRAILING4[group]
        zero &= group == 0
    chars = words.view(np.uint8)
    chars[:, _CONST0:] = _CONSTANT_ROW
    by_column = chars.reshape(-1, k, _SOURCE)
    by_column[:, :, _SEPARATOR] = ord(",")
    by_column[:, -1, _SEPARATOR] = ord("\n")
    return chars, 17 - trailing


def format_rows(rows: np.ndarray, first_shot: int) -> bytes:
    """``("%d," + ",".join(["%.17g"] * k) + "\\n") % row`` for each row of
    the (n, k) float array ``rows``, the shot column counting from
    ``first_shot``, as one ``bytes`` object."""
    rows = np.ascontiguousarray(rows, dtype=float)
    n, k = rows.shape
    values = rows.ravel()
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)  # the double 1e-6 lies below 10**-6
    x, d = _significands(a if fast.all() else np.where(fast, a, 1.0))
    chars, digits = _source_rows(d, k)
    key = _key(x, np.signbit(values), digits)

    fields = np.empty((values.size, _FIELD), np.uint8)
    flat = chars.ravel()
    for start in range(0, values.size, _GATHER):
        pattern = _PATTERNS.take(key[start:start + _GATHER], axis=0)
        index = (np.arange(start, start + len(pattern)) * _SOURCE)[:, None]
        fields[start:start + _GATHER] = flat.take(index + pattern)
    lengths = _LENGTHS.take(key)
    for i in np.flatnonzero(~fast):
        text = b"%.17g" % values[i] + (b"\n" if i % k == k - 1 else b",")
        fields[i, :len(text)] = np.frombuffer(text, np.uint8)
        lengths[i] = len(text)

    shot_chars, shot_mask = _shot_column(first_shot, n)
    width = shot_chars.shape[1]
    line = np.empty((n, width + 1 + k * _FIELD), np.uint8)
    mask = np.empty(line.shape, bool)
    line[:, :width] = shot_chars
    mask[:, :width] = shot_mask
    line[:, width] = ord(",")
    mask[:, width] = True
    line[:, width + 1:] = fields.reshape(n, k * _FIELD)
    mask[:, width + 1:] = _PREFIX.take(lengths, axis=0).reshape(n, k * _FIELD)
    return line[mask].tobytes()
