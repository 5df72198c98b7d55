"""The one CSV writer; every CSV output of the package goes through it.

A float is written as ``"%.17g" % v`` writes it, byte for byte, but a block
at a time in numpy: its 17 digits are computed exactly in integers, as in
Gay 1990 and Adams 2019 ("Ryu revisited").  Only |x| >= 1e17 or < 1e-43,
subnormals, inf, nan and the rare value whose decimal exponent estimate is
off go through ``%``, in one batch per block."""

import numpy as np

_BLOCK = 1024  # rows formatted at a time; bounds the memory of one block
_PIECE_BLOCKS = 4  # blocks per piece of the text; see csv_text

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

    out[_DIGITS, x == 0] = ord("0")
    rest = np.flatnonzero(~exact & (x != 0))
    text = ("%.17g\0" * rest.size % tuple(x[rest].tolist())).split("\0")
    out[:, rest] = np.array(text[:-1], f"S{_WIDTH}")[:, None].view(np.uint8).T
    return out


def csv_text(header: str, columns) -> str:
    """The header line, then row i of the columns joined by ``,``: a float
    column written as ``"%.17g" % v``, a string column verbatim.  At least
    one column is a float column."""
    # a string column as rows of its NUL-padded bytes
    columns = [column.astype("S")[:, None].view(np.uint8)
               if column.dtype.kind in "SU" else column.astype(float, copy=False)
               for column in map(np.asarray, columns)]
    widths = [column.shape[1] if column.ndim == 2 else _WIDTH for column in columns]
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)  # separators
    # ~400 kB pieces, gathered in one reused buffer: smaller or newly
    # allocated ones fragment the heap, and some runs then peak higher by
    # the size of the text
    pieces, size = [header + "\n"], 0
    piece = np.empty(_PIECE_BLOCKS * _BLOCK * ends[-1], np.uint8)
    for start in range(0, len(columns[0]), _BLOCK):
        block = [column[start:start + _BLOCK] for column in columns]
        floats = [values for values in block if values.ndim == 1]
        fields = iter(np.split(_float_fields(np.concatenate(floats)),
                               len(floats), axis=1))
        # field-major: each byte of a field is one contiguous row
        lines = np.zeros((ends[-1], len(block[0])), np.uint8)
        for values, width, end in zip(block, widths, ends):
            lines[end - 1 - width:end - 1] = (
                values.T if values.ndim == 2 else next(fields))
        lines[ends - 1] = ord(",")
        lines[-1] = ord("\n")
        data = lines.T.tobytes().translate(None, b"\0")
        piece[size:size + len(data)] = np.frombuffer(data, np.uint8)
        size += len(data)
        if start // _BLOCK % _PIECE_BLOCKS == _PIECE_BLOCKS - 1 \
                or start + _BLOCK >= len(columns[0]):
            pieces.append(str(piece[:size], "ascii"))
            size = 0
    return "".join(pieces)
