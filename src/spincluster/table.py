"""The one CSV writer; every CSV output of the package goes through it.

A float is written as ``"%.17g" % v`` writes it, byte for byte, a block at
a time in numpy: its 17 digits come from Dekker's exact product (Numer.
Math. 18, 1971) of |x| and the double nearest 10**(16 - X).  Only |x| >=
1e17 or < 1e-43, subnormals, inf, nan and the rare value whose exponent
estimate is off or whose rounding is too close to call go through ``%``."""

import numpy as np

_BLOCK = 1024  # rows of five float columns formatted and yielded at a time

# A float field is NUL-padded: the sign, the "0.000" prefix, 18 slots for
# 17 digits and the decimal point, and the "e-XX" suffix.
_WIDTH, _SIGN, _PREFIX, _DIGITS, _SUFFIX = 28, 0, 1, 6, 24

_X_LOW, _X_HIGH = -43, 16  # 10**(16 - X) for X in range is P + R below
_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp: a double as two 26-bit halves


def _split(a):  # (high, low): a = high + low exactly, 26 bits each
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


# Per k = 16 - X: P, the double nearest 10**k, in Veltkamp's halves, and R,
# the double nearest 10**k - P (0 while 10**k is a double, k <= 22)
_POWERS = np.array([*_split(np.array([float(10 ** k) for k in range(60)])),
                    [float(10 ** k - int(float(10 ** k))) for k in range(60)]])
# 0000..9999 as four ASCII bytes (one uint32), and their trailing zeros
_QUAD = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                             indexing="ij"), axis=-1).reshape(10000, 4)
_QUAD_ZEROS = sum(np.arange(10000) % 10 ** p == 0 for p in range(1, 5)).astype(np.uint8)
# column -X: the "0.000" prefix of X in [-4, -1] (rows 0-4), or the "e-XX"
# suffix of X in [-43, -5] (rows 5-8)
_AFFIXES = np.array(["0." + "0" * (j - 1) if j <= 4 else "\0" * 5 + "e-%02d" % j
                     for j in range(44)], "S9")[:, None].view(np.uint8).T


def _significand(x):
    """(D, X, exact): where exact, D is |x| * 10**(16 - X) rounded half to
    even, an integer of exactly 17 digits; elsewhere x stands in as 1.0."""
    a = np.abs(x)
    normal = (a >= 2.2250738585072014e-308) & (a <= 1.7976931348623157e308)
    X = np.floor(np.log10(np.where(normal, a, 1.0))).astype(np.int64)
    exact = normal & (X >= _X_LOW) & (X <= _X_HIGH)
    X, a = np.where(exact, X, 0), np.where(exact, a, 1.0)
    p_high, p_low, r = _POWERS.take(16 - X, axis=1)
    # Dekker: a * P = hi + err exactly; hi >= 2**53 is an even integer, so
    # rint's ties to even round the whole sum hi + t
    hi = a * (p_high + p_low)
    a_high, a_low = _split(a)
    err = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    t = err + a * r  # off by under 5e-15 where r != 0, exact elsewhere
    whole = hi.astype(np.int64)
    D = whole + np.rint(t).astype(np.int64)
    # an estimate of X that is off leaves the integer part outside 17 digits;
    # a t that may round or floor either way takes the % path
    exact &= ((whole + np.floor(t).astype(np.int64) >= 10 ** 16) & (D < 10 ** 17)
              & ((r == 0.0) | (np.abs(2.0 * t - np.rint(2.0 * t)) >= 2.0 ** -39)))
    return D, X, exact


def _float_fields(x):
    """(_WIDTH, x.size) uint8: the NUL-padded ``"%.17g"`` bytes of x."""
    D, X, exact = _significand(x)
    # the last 16 digits, 4 at a time, from two halves in int32
    high = D // 10 ** 8
    low, high = (D - high * 10 ** 8).astype(np.int32), high.astype(np.int32)
    D = high // 10 ** 8
    high -= D * 10 ** 8
    quads = np.empty((4, x.size), np.int32)
    for j, half in ((0, high), (2, low)):
        quads[j] = half // 10 ** 4
        quads[j + 1] = half - quads[j] * 10 ** 4
    # digits shown: to the last nonzero one, and all before a fixed point
    zeros = _QUAD_ZEROS.take(quads)  # 4 for a zero quad
    trailing = zeros[0]
    for j in (1, 2, 3):
        trailing = zeros[j] + (zeros[j] == 4) * trailing
    shown = np.maximum(16 - trailing, X) + 1
    lead_in = (X < 0) & (X >= -4)
    # the point follows digit X in fixed notation and digit 0 in exponent
    # notation, if a digit follows it; 17 marks none
    point = np.maximum(X, 0)
    point[lead_in | (shown <= point + 1)] = 17

    # digits[1 + i] is digit i, NUL past the digits shown
    digits = np.zeros((19, x.size), np.uint8)
    digits[1] = D + ord("0")
    np.copyto(digits[2:18].reshape(4, 4, -1), _QUAD.view(np.uint32).take(
        quads)[..., None].view(np.uint8).transpose(0, 2, 1))
    digits[1:18] *= np.arange(17)[:, None] < shown

    out = np.zeros((_WIDTH, x.size), np.uint8)
    out[_SIGN] = (np.signbit(x) & (x == x)) * np.uint8(ord("-"))  # no "-nan"
    # slot i holds digit i up to the point, digit i - 1 after it
    out[_DIGITS:_SUFFIX] = digits[:18]
    out[_DIGITS:_SUFFIX] += (np.arange(18)[:, None] <= point) * (digits[1:] - digits[:18])
    dotted = np.flatnonzero(point < 17)
    out[_DIGITS + 1 + point[dotted], dotted] = ord(".")
    small = np.flatnonzero(lead_in)
    out[_PREFIX:_DIGITS, small] = _AFFIXES[:5, -X[small]]
    scientific = np.flatnonzero(X < -4)
    out[_SUFFIX:, scientific] = _AFFIXES[5:, -X[scientific]]

    # a zero stood in as 1.0, written "1": it is "0" or "-0"
    zero = x == 0.0
    out[_DIGITS, np.flatnonzero(zero)] = ord("0")
    # the sign stays in its slot: a negated gather sets it alone
    rest = np.flatnonzero(~(exact | zero))
    text = ("%.17g\0" * rest.size % tuple(np.abs(x[rest]).tolist())).split("\0")
    out[_SIGN + 1:, rest] = np.array(text[:-1], f"S{_WIDTH - 1}")[:, None].view(np.uint8).T
    return out


def _column(column):
    """(values, index, fields): a float array as (values, None, None), a pair
    as (float values, index, None) or as (None, index, its strings' bytes)."""
    if not isinstance(column, tuple):
        return np.asarray(column).astype(float, copy=False), None, None
    values, index = np.asarray(column[0]), np.asarray(column[1])
    if values.dtype.kind not in "SU":
        return values.astype(float, copy=False), index, None
    if index.size and index.min() < 0:
        raise ValueError("a string column's index has a negative entry")
    return None, index, values.astype("S")[:, None].view(np.uint8)


def _table(fields, values):
    """A float table's rows of bytes without the slots none of its values
    use (the sign slot kept), then those of 0.0 - values, reversed: index ~k
    gathers 0.0 - values[k], "-" where values[k] > 0 and no sign elsewhere."""
    used = fields.any(axis=1)
    used[_SIGN] = True
    rows = fields[used].T
    table = np.concatenate([rows, rows[::-1]])  # one copy of each
    table[len(rows):, _SIGN] = (values[::-1] > 0.0) * np.uint8(ord("-"))
    return table


def _block_text(columns, block):
    """Rows ``block`` as CSV text, laid out row-major; a longer float table
    is formatted over the range its rows use.  Every array made here is
    released on return, before the text is yielded."""
    ranges, parts = {}, {}  # per index: (low, high, its rows' index in range)
    for values, index, fields in columns:
        if index is None:
            parts[id(values)] = values[block]
        elif fields is None:
            if id(index) not in ranges:
                at = index[block]
                wrapped = np.maximum(at, ~at)
                low = int(wrapped.min())
                ranges[id(index)] = (low, int(wrapped.max()) + 1,
                                     np.where(at < 0, at + low, at - low))
            parts[id(values), id(index)] = values[slice(*ranges[id(index)][:2])]
    formatted = dict(zip(parts, np.split(_float_fields(np.concatenate(
        [*parts.values(), []])), np.cumsum([len(p) for p in parts.values()])[:-1], axis=1)))
    cells = []
    for values, index, fields in columns:
        if index is None:
            cells.append(formatted[id(values)].T)
        elif fields is None:
            low, high, at = ranges[id(index)]
            cells.append(_table(formatted[id(values), id(index)],
                                values[low:high]).take(at, axis=0))
        else:
            cells.append(fields.take(index[block], axis=0))
    widths = [cell.shape[1] for cell in cells]
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)  # separators
    lines = np.zeros((len(cells[0]), ends[-1]), np.uint8)
    for cell, width, end in zip(cells, widths, ends):
        lines[:, end - 1 - width:end - 1] = cell
    lines[:, ends - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def csv_pieces(header: str, columns):
    """The header line, then a block of rows per piece: row i of the
    columns joined by ``,``.  A column is a float array, written as
    ``"%.17g" % v``, or a pair ``(values, index)`` of floats or strings
    written verbatim, whose row i is ``values[index[i]]``, or for floats
    ``0.0 - values[k]`` where index[i] is ~k < 0.  A float array passed at
    several positions is formatted once; a block formats about 5 * _BLOCK
    floats of the distinct float arrays in one pass."""
    yield header + "\n"
    columns = [_column(column) for column in columns]
    rows = 5 * _BLOCK // max(1, len({id(values) for values, index, _ in columns
                                     if index is None}))
    # a float table no longer than a block is formatted once, whole
    columns = [(values, index, _table(_float_fields(values), values))
               if fields is None and index is not None and values.size <= rows
               else (values, index, fields) for values, index, fields in columns]
    count = len(columns[0][0] if columns[0][1] is None else columns[0][1])
    for start in range(0, count, rows):
        yield _block_text(columns, slice(start, start + rows))
