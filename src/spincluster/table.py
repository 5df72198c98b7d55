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
    # the sign stays in its slot: a negated ladder row sets it alone
    rest = np.flatnonzero(~(exact | zero))
    text = ("%.17g\0" * rest.size % tuple(np.abs(x[rest]).tolist())).split("\0")
    out[_SIGN + 1:, rest] = np.array(text[:-1], f"S{_WIDTH - 1}")[:, None].view(np.uint8).T
    return out


def _rows(fields, sign=False):
    """Each value's bytes as a row, without the slots none of them use; with
    sign, the sign slot is kept, first."""
    used = fields.any(axis=1)
    used[_SIGN] |= sign
    return fields[used].T


def _column(column):
    """A float array as (values, None); a pair as (its rows of bytes, index):
    a float table formatted once, whole, or a string table encoded once."""
    if not isinstance(column, tuple):
        return np.asarray(column).astype(float, copy=False), None
    values, index = np.asarray(column[0]), np.asarray(column[1])
    if index.size and index.min() < 0:
        raise ValueError("an index has a negative entry")
    if values.dtype.kind in "SU":
        return values.astype("S")[:, None].view(np.uint8), index
    return _rows(_float_fields(values.astype(float, copy=False))), index


def _layout(shape, widths):
    """(lines, cells): NUL lines of ``shape + (bytes,)``, cells of the given
    widths joined by "," and ended by a newline, and each cell's slots as a
    view to write its bytes into."""
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)  # separators
    lines = np.zeros((*shape, ends[-1]), np.uint8)
    lines[..., ends - 1] = ord(",")
    lines[..., -1] = ord("\n")
    return lines, [lines[..., end - 1 - width:end - 1] for width, end in zip(widths, ends)]


def _text(lines):  # the lines' bytes, NUL slots dropped, as text
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def _block_text(columns, block):
    """Rows ``block`` as CSV text, laid out row-major.  Every array made
    here is released on return, before the text is yielded."""
    parts = {id(values): values[block] for values, index in columns if index is None}
    formatted = dict(zip(parts, np.split(_float_fields(np.concatenate(
        [*parts.values(), []])), np.cumsum([len(p) for p in parts.values()])[:-1], axis=1)))
    cells = [formatted[id(values)].T if index is None else values.take(index[block], axis=0)
             for values, index in columns]
    lines, slots = _layout((len(cells[0]),), [cell.shape[1] for cell in cells])
    for slot, cell in zip(slots, cells):
        slot[...] = cell
    return _text(lines)


def csv_pieces(header: str, columns):
    """The header line, then a block of rows per piece: row i of the
    columns joined by ``,``.  A column is a float array, written as
    ``"%.17g" % v``, or a pair ``(values, index)`` of floats or strings
    written verbatim, whose row i is ``values[index[i]]`` (index >= 0); a
    pair's values are formatted once, whole.  A float array passed at
    several positions is formatted once; a block formats about 5 * _BLOCK
    floats of the distinct float arrays in one pass."""
    yield header + "\n"
    columns = [_column(column) for column in columns]
    rows = 5 * _BLOCK // max(1, len({id(values) for values, index in columns
                                     if index is None}))
    count = len(columns[0][0] if columns[0][1] is None else columns[0][1])
    for start in range(0, count, rows):
        yield _block_text(columns, slice(start, start + rows))


def ladder_pieces(header: str, keys, ladders):
    """The header line, then nine rows per key, whole keys to a piece: row j
    of key i is keys[i], j and, of each (n, 3) float array m in ladders,
    0.0 - m[i, 2 - j] for j < 3, 0 for j < 6 and m[i, j - 6] after, each
    float written as ``"%.17g" % v``.  A block of about 5 * _BLOCK rows
    formats its keys and ladder values in one pass, ten values a key for
    three ladders; a key's cell and a value's bytes are copied into all of
    their rows, a negated value's with "-" in its sign slot where m > 0."""
    yield header + "\n"
    keys = np.asarray(keys, dtype=float)
    step = 5 * _BLOCK // 9
    for start in range(0, keys.size, step):
        block = slice(start, start + step)
        count = keys[block].size
        key, *parts = np.split(_float_fields(np.concatenate(
            [keys[block], *(m[block].ravel() for m in ladders)])),
            count * (1 + 3 * np.arange(len(ladders))), axis=1)
        key, parts = _rows(key), [_rows(part, sign=True).reshape(count, 3, -1)
                                  for part in parts]
        lines, (key_cell, level, *cells) = _layout(
            (count, 9), [key.shape[1], 1, *(part.shape[2] for part in parts)])
        key_cell[...] = key[:, None]
        level[..., 0] = np.arange(ord("0"), ord("9"))  # "0" ... "8"
        for cell, part, m in zip(cells, parts, ladders):
            cell[:, 6:] = part
            cell[:, :3] = part[:, ::-1]
            cell[:, :3, _SIGN] = (m[block, ::-1] > 0.0) * np.uint8(ord("-"))
            cell[:, 3:6, _SIGN] = ord("0")
        yield _text(lines)
