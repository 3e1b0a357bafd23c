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
corrected exactly by comparing ``p + e`` with 1e16 and 1e17.  Since
``p >= 1e16 > 2**53`` is an even integer, ``D = p + rint(e)``: ``rint``
rounds the exact half to even, and so rounds the product.  ``D`` never
rounds up to 10**17, which would move ``X``: that needs ``|x|`` within
5e-18 (relative) below a power of ten, and the closest double below each
of 1e-6 .. 1e17 is at least 4.5e-17 (relative) below it.

The characters of a value depend only on ``D``'s digits and on
``(X, sign, significant digits)``.  Each value has a 28-byte slot in its
row of the block's output lines.  The slot first holds the value's
source bytes: the 17 digit characters, written four at a time as native
words, a few constant characters, the separator and a NUL.  A table keyed
by that triple gives, per slot position, which source byte goes there,
the NUL past the text's end; a byte gather, ``_GATHER`` fields at a time,
puts every field's text in place, and dropping the NULs, and the ones
left of the ``shot`` column's right-aligned digits, compacts the block.

Every other step is one numpy pass over the whole block, so a block of a
few thousand rows costs a few dozen numpy calls, and two threads that
format side by side seldom wait for each other's interpreter work.
Memory, per row of ``k`` values: the lines, ``28 k`` bytes and 8 to 16
for the ``shot`` column; the significands' float temporaries, six
doubles and an index per value, the peak of the first steps, freed
before the lines are made; the digit groups as int32; and at the end the
mask and the compacted text.  That is about 250 bytes a row at
``k = 3``, of which the text itself is about 63, plus the gather's fixed
460 kB.

Zero, subnormals, ``|x| < 1e-6`` and ``|x| >= 1e17`` are formatted one
by one with ``'%.17g' % v`` and written to their slot, which the gather
leaves as it is.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_MIN_X, _MAX_X = -6, 16  # fixed notation for X >= -4, exponent notation below
# 10**s at s = 16 - X: exact, since 5**22 < 2**53
_POW10 = 10.0 ** np.arange(_MAX_X - _MIN_X + 1)
_VELTKAMP = 134217729.0  # 2**27 + 1

# A value's slot, seven native words: a word holding the leading digit in
# its last byte, four 4-digit words, then the constants, the separator and
# a NUL.  The gather turns it into the value's text, NUL padded.
_FIELD = 28
_DIGIT0 = 3
_CONSTANTS = b"-.0e56"
_CONST0 = _DIGIT0 + 17
_SEPARATOR = _CONST0 + len(_CONSTANTS)
_NUL = _SEPARATOR + 1
_MINUS, _POINT, _ZERO, _E = (_CONST0 + _CONSTANTS.index(c) for c in b"-.0e")
# The slot's last two words, for an inner and for the last column.
_TAIL = np.frombuffer(b"".join(_CONSTANTS + separator + b"\0"
                               for separator in (b",", b"\n")),
                      np.uint32).reshape(2, 2)
_COMMA = np.frombuffer(b",\0\0\0", np.uint32)[0]


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each 4-digit group, 0000 to 9999, as one native word of digit
    characters, and its count of trailing zeros."""
    group = np.arange(10000)
    chars = np.stack([group // 10 ** (3 - j) % 10 for j in range(4)], axis=1)
    words = (chars.astype(np.uint8) + ord("0")).view(np.uint32).ravel()
    trailing = sum((group % 10 ** j == 0).astype(np.int8) for j in range(1, 5))
    return words, trailing


_WORD4, _TRAILING4 = _group_tables()


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


def _pattern_table() -> tuple[np.ndarray, np.ndarray]:
    """Source byte per slot position by key, and the key of each
    (s = 16 - X, sign) at 17 significant digits.  A key lists the layouts
    by exponent, then sign, then significant digits; one more key, the
    last, leaves a slot as it is."""
    patterns = []
    for x in range(_MIN_X, _MAX_X + 1):
        for negative in (False, True):
            for digits in range(1, 18):
                source = _layout(x, negative, digits)
                patterns.append(source + [_NUL] * (_FIELD - len(source)))
    patterns.append(list(range(_FIELD)))
    s = np.arange(_MAX_X - _MIN_X + 1)[:, None]
    keys = ((_MAX_X - _MIN_X - s) * 2 + np.arange(2)) * 17 + 16
    return np.array(patterns, np.intp), keys.astype(np.int16)


_PATTERNS, _KEYS = _pattern_table()
_VERBATIM = len(_PATTERNS) - 1
# Fields gathered at a time: bounds the byte-index array at 460 kB.
_GATHER = 2048


def _two_product(a: np.ndarray, b: np.ndarray):
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly;
    ``a`` and ``b`` are overwritten."""
    p = a * b
    a_hi = a * _VELTKAMP
    t = a_hi - a
    a_hi -= t  # c - (c - a)
    a -= a_hi  # a_lo
    b_hi = b * _VELTKAMP
    np.subtract(b_hi, b, out=t)
    b_hi -= t
    b -= b_hi  # b_lo
    # ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in that order
    e = np.multiply(a_hi, b_hi, out=t)
    e -= p
    a_hi *= b
    e += a_hi
    b_hi *= a
    e += b_hi
    a *= b
    e += a
    return p, e


def _significands(values: np.ndarray):
    """``s = 16 - X`` and ``D`` of ``%.17g`` for each value, and the mask of
    the values in the range that has them (None when all are)."""
    a = np.abs(values)
    fast = None
    if not (a.min() > 1e-6 and a.max() < 1e17):  # 1e-6 lies below 10**-6
        fast = (a > 1e-6) & (a < 1e17)
        a[~fast] = 1.0
    t = np.log10(a)
    np.floor(t, out=t)
    np.clip(t, _MIN_X, _MAX_X, out=t)
    np.subtract(_MAX_X, t, out=t)
    s = t.astype(np.intp)
    p, e = _two_product(a, np.take(_POW10, s, out=t))
    if p.max() >= 1e17 or p.min() <= 1e16:
        shift = (((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
                 - ((p < 1e16) | ((p == 1e16) & (e < 0))))
        moved = np.flatnonzero(shift)
        if moved.size:
            s[moved] -= shift[moved]
            p[moved], e[moved] = _two_product(np.abs(values[moved]),
                                              _POW10[s[moved]])
    np.rint(e, out=e)
    d = p.astype(np.int64)
    d += e.astype(np.int64)
    return s, d, fast


def _digit_groups(d: np.ndarray) -> np.ndarray:
    """Each significand's leading digit and four 4-digit groups, as an
    (n, 5) int32 array."""
    groups = np.empty((d.size, 5), np.int32)
    high, low = np.empty(d.size, np.int32), np.empty(d.size, np.int32)
    np.divmod(d, 10 ** 8, out=(high, low))
    np.divmod(high, 10 ** 8, out=(groups[:, 0], high))
    np.divmod(high, 10 ** 4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(low, 10 ** 4, out=(groups[:, 3], groups[:, 4]))
    return groups


def _trailing_zeros(groups: np.ndarray) -> np.ndarray:
    """Each significand's count of trailing zeros: from its last group,
    and from the groups before only where the ones after are zero."""
    trailing = _TRAILING4[groups[:, 4]]
    deeper = np.flatnonzero(groups[:, 4] == 0)
    for column in (3, 2, 1):  # the leading digit is never 0
        if not deeper.size:
            break
        group = groups[deeper, column]
        trailing[deeper] += _TRAILING4[group]
        deeper = deeper[group == 0]
    return trailing


def _lines(first: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The block's (n, width) output lines, each holding the ``shot``
    column's right-aligned digits, NUL on their left, and its comma, and
    each value slot's last two words; and the (n, k, 7) words of the value
    slots."""
    width = len(str(first + n - 1))
    groups = -(-width // 4)
    template = np.zeros(groups + 1 + k * _FIELD // 4, np.uint32)
    template[groups] = _COMMA
    template[groups + 1:].reshape(k, -1)[:, 5:] = _TAIL[[0] * (k - 1) + [1]]
    line = np.empty((n, 4 * template.size), np.uint8)
    words = line.view(np.uint32)
    words[...] = template  # one pass: a row copied to every row
    rest = np.arange(first, first + n, dtype=np.int64)
    for column in range(groups - 1, -1, -1):
        rest, group = np.divmod(rest, 10000)
        words[:, column] = _WORD4[group]
    for digits in range(1, width + 1):  # the rows whose shot has `digits`
        low = max(first, 10 ** (digits - 1) if digits > 1 else 0) - first
        high = min(first + n, 10 ** digits) - first
        if low < high:
            line[low:high, :4 * groups - digits] = 0
    return line, words[:, groups + 1:].reshape(n, k, _FIELD // 4)


def format_rows(rows: np.ndarray, first_shot: int) -> memoryview:
    """``("%d," + ",".join(["%.17g"] * k) + "\\n") % row`` for each row of
    the (n, k) float array ``rows``, the shot column counting from
    ``first_shot``, as one bytes-like object: a memoryview of the
    compacted lines, which ``hashlib`` and files take without a copy."""
    rows = np.ascontiguousarray(rows, dtype=float)
    n, k = rows.shape
    if not rows.size:
        return memoryview(b"")
    values = rows.ravel()
    # each temporary is deleted once spent, so the peak is one step's
    s, d, fast = _significands(values)
    key = _KEYS[s, np.signbit(values).view(np.uint8)]
    del s
    groups = _digit_groups(d)
    del d
    key -= _trailing_zeros(groups)
    line, slots = _lines(first_shot, n, k)
    slots[:, :, :5] = _WORD4[groups.reshape(n, k, 5)]
    del groups
    fields = slots.view(np.uint8)
    if fast is not None:
        for i in np.flatnonzero(~fast):
            text = b"%.17g" % values[i] + (b"\n" if i % k == k - 1 else b",")
            field = fields[i // k, i % k]
            field[:len(text)] = np.frombuffer(text, np.uint8)
            field[len(text):] = 0
            key[i] = _VERBATIM
    flat, step = line.ravel(), max(1, _GATHER // k)  # rows per gather
    bases = np.arange(0, line.size, line.shape[1])[:, None] + (
        line.shape[1] - _FIELD * np.arange(k, 0, -1))
    for row in range(0, n, step):
        index = _PATTERNS.take(key[row * k:(row + step) * k], axis=0)
        index += bases[row:row + step].reshape(-1, 1)
        fields[row:row + step] = flat.take(index).reshape(-1, k, _FIELD)
        del index
    del key, bases
    return memoryview(line[line != 0])
