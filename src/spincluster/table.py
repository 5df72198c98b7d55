"""The one CSV writer; every CSV output of the package goes through it.

A float is written as ``"%.17g" % v`` writes it, byte for byte, but a block
at a time in numpy: its 17 digits are computed exactly in integers, as in
Gay 1990 and Adams 2019 ("Ryu revisited").  Only |x| >= 1e17 or < 1e-43,
subnormals, inf, nan and the rare value whose decimal exponent estimate is
off go through ``%``, in one batch per block."""

import numpy as np

_BLOCK = 1024  # rows of five float columns formatted and yielded at a time

# A float field is NUL-padded: the sign, the "0.000" prefix, 18 slots for
# 17 digits and the decimal point, and the "e-XX" suffix.
_WIDTH, _SIGN, _PREFIX, _DIGITS, _SUFFIX = 28, 0, 1, 6, 24

_X_LOW, _X_HIGH, _MASK = -43, 16, 0xFFFFFFFF  # m * 5**(16 - X) < 2**191


# Per k: 5**k shifted left to exactly 138 bits, as five 32-bit limbs, and
# the right shift w = _FIVE_W[k] - biased that turns the top 64 of the 192
# bits of m * five into x * 10**k, for x = m * 2**(biased - 1075).
_SHIFTS = [138 - (5 ** k).bit_length() for k in range(60)]
_FIVE_LIMBS = np.array([[(5 ** k << s) >> (32 * j) & _MASK for k, s in
                         enumerate(_SHIFTS)] for j in range(5)], np.uint64)
_FIVE_W = np.array([s - k + 1075 - 128 for k, s in enumerate(_SHIFTS)], np.uint64)
# 0000..9999 as four ASCII bytes (one uint32), and their trailing zeros
_QUAD = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                             indexing="ij"), axis=-1).reshape(10000, 4)
_QUAD_ZEROS = sum(np.arange(10000) % 10 ** p == 0 for p in range(1, 5)).astype(np.uint8)
# column -X: the "0.000" prefix of X in [-4, -1] (rows 0-4), or the "e-XX"
# suffix of X in [-43, -5] (rows 5-8)
_AFFIXES = np.array(["0." + "0" * (j - 1) if j <= 4 else "\0" * 5 + "e-%02d" % j
                     for j in range(44)], "S9")[:, None].view(np.uint8).T


def _significand(x):
    """(D, X, exact): where exact, D is x * 10**(16 - X) rounded half to
    even, an integer of exactly 17 digits; elsewhere x stands in as 1.0."""
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    normal = (biased != 0) & (biased != 0x7FF)
    X = np.floor(np.log10(np.where(normal, np.abs(x), 1.0))).astype(np.int64)
    exact = normal & (X >= _X_LOW) & (X <= _X_HIGH)
    X[~exact], biased[~exact] = 0, 1023
    m = np.where(exact, bits & ((1 << 52) - 1), np.uint64(0)) | (1 << 52)

    # m * five, one 32-bit limb of five at a time: column j of the product
    # is whole once limb j is in; columns 0-3 only stick, 4 and 5 are kept
    k = 16 - X
    low, high = m & _MASK, m >> 32
    column, sticky = np.zeros_like(m), np.zeros_like(m)
    for j in range(5):
        five = _FIVE_LIMBS[j].take(k)
        part = five * low
        column += part & _MASK
        digit = column & _MASK
        column = (column >> 32) + (part >> 32) + five * high
        if j < 4:
            sticky |= digit
    # the top 64 bits hold the quotient and its round bit: w is 5 to 9 for
    # a right X, 1 to 13 for an estimate that is off by one
    top = (column << 32) | digit
    w = _FIVE_W[k] - biased
    q = top >> w
    half = np.uint64(1) << (w - 1)
    sticky = (sticky != 0) | (top & (half - 1) != 0)
    D = q + ((top & half != 0) & (sticky | (q & 1 == 1)))
    # an estimate of X that is off leaves q outside 17 digits; so does a D
    # rounded up to 10**17, which a log10 estimate never reaches
    exact &= (q >= 10 ** 16) & (D < 10 ** 17)
    return D, X, exact


def _float_fields(x):
    """(_WIDTH, x.size) uint8: the NUL-padded ``"%.17g"`` bytes of x."""
    if np.count_nonzero(x) < x.size:  # a zero is "0" or "-0": no digits to find
        out = np.zeros((_WIDTH, x.size), np.uint8)
        out[_SIGN], out[_DIGITS] = np.signbit(x) * np.uint8(ord("-")), ord("0")
        out[:, x != 0.0] = _float_fields(x[x != 0.0])
        return out
    D, X, exact = _significand(x)
    quads = np.empty((4, x.size), np.uint64)  # the last 16 digits, 4 at a time
    for j in (3, 2, 1, 0):
        upper = D // 10 ** 4
        quads[j] = D - upper * 10 ** 4
        D = upper
    # digits shown: to the last nonzero one, and all before a fixed point
    zeros = _QUAD_ZEROS.take(quads)
    trailing = zeros[0]
    for j in (1, 2, 3):
        trailing = np.where(quads[j] == 0, trailing + 4, zeros[j])
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
    out[_SIGN] = np.signbit(x) * np.uint8(ord("-"))
    # slot i holds digit i up to the point, digit i - 1 after it
    out[_DIGITS:_SUFFIX] = digits[:18]
    np.copyto(out[_DIGITS:_SUFFIX], digits[1:],
              where=np.arange(18)[:, None] <= point)
    dotted = np.flatnonzero(point < 17)
    out[_DIGITS + 1 + point[dotted], dotted] = ord(".")
    small = np.flatnonzero(lead_in)
    out[_PREFIX:_DIGITS, small] = _AFFIXES[:5, -X[small]]
    scientific = np.flatnonzero(X < -4)
    out[_SUFFIX:, scientific] = _AFFIXES[5:, -X[scientific]]

    rest = np.flatnonzero(~exact)
    text = ("%.17g\0" * rest.size % tuple(x[rest].tolist())).split("\0")
    out[:, rest] = np.array(text[:-1], f"S{_WIDTH}")[:, None].view(np.uint8).T
    return out


def _gathered(column):
    """(fields, per_row): a float array as (None, its values); a pair
    (values, index) as the (values, width) NUL-padded bytes of its values,
    each encoded once, and the index of each row's value."""
    if not isinstance(column, tuple):
        return None, np.asarray(column).astype(float, copy=False)
    values, index = np.asarray(column[0]), np.asarray(column[1])
    if values.dtype.kind in "SU":
        return values.astype("S")[:, None].view(np.uint8), index
    fields = _float_fields(values.astype(float, copy=False))
    return np.ascontiguousarray(fields.T), index


def csv_pieces(header: str, columns):
    """The header line, then a block of rows per piece: row i of the
    columns joined by ``,``.  A column is a float array, written as
    ``"%.17g" % v``, or a pair ``(values, index)`` of floats or strings
    written verbatim, whose row i is ``values[index[i]]``.  A float array
    passed at several positions is formatted once; a block formats about
    5 * _BLOCK floats of the distinct float arrays in one pass."""
    yield header + "\n"
    columns = [_gathered(column) for column in columns]
    widths = [_WIDTH if fields is None else fields.shape[1] for fields, _ in columns]
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)  # separators
    floats = {id(per_row): per_row for fields, per_row in columns if fields is None}
    rows = 5 * _BLOCK // max(1, len(floats))
    for start in range(0, len(columns[0][1]), rows):
        block = slice(start, start + rows)
        formatted = dict(zip(floats, np.split(_float_fields(np.concatenate(
            [per_row[block] for per_row in floats.values()])), len(floats),
            axis=1))) if floats else {}
        # row-major: each line is one contiguous run of bytes
        lines = np.zeros((len(columns[0][1][block]), ends[-1]), np.uint8)
        for (fields, per_row), width, end in zip(columns, widths, ends):
            lines[:, end - 1 - width:end - 1] = (
                formatted[id(per_row)].T if fields is None
                else fields.take(per_row[block], axis=0))
        lines[:, ends - 1] = ord(",")
        lines[:, -1] = ord("\n")
        piece = lines.tobytes().translate(None, b"\0").decode("ascii")
        del formatted, lines  # freed first: a buffer taking pieces grows in place
        yield piece
