"""The CSV writer against its oracle, ``"%.17g" % v`` joined by ``,`` and
``\\n``: every float it writes must be those bytes exactly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincluster import table
from spincluster.table import csv_pieces, ladder_pieces

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def csv_text(header, columns):
    """The writer's pieces, joined."""
    return "".join(csv_pieces(header, columns))


def oracle(header, columns):
    rows = zip(*(column.tolist() for column in columns))
    return header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n"
        for row in rows)


def assert_same_text(got, want):
    """got == want; a failure names the first line that differs, since
    pytest's full diff of texts this long runs for minutes."""
    if got != want:
        pairs = zip(got.splitlines() + [None], want.splitlines() + [None])
        line, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"texts differ first at line {line}: {a!r} != {b!r}")


def assert_written_as_oracle(*columns):
    columns = [np.asarray(column) for column in columns]
    assert_same_text(csv_text("h", columns), oracle("h", columns))


def near(x, steps=2):
    """x and its neighbouring doubles, `steps` on each side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def ties():
    """Doubles x with x * 10**(16 - X) exactly halfway between integers:
    x = odd / 2**(k + 1) for k = 16 - X.  They exist for X in [-7, 14]."""
    out = []
    for X in range(-7, 15):
        k = 16 - X
        odd = math.ceil(Fraction(10) ** X * 2 ** (k + 1)) | 1
        out += [(odd + 2 * i) / 2 ** (k + 1) for i in range(4)]
    return out


POWERS = [v for k in range(-45, 21) for v in near(10.0 ** k)]
EDGES = POWERS + ties() + [
    1e-5, 1e-4, 1e15, 1e16, 1e17,
    # integers above 2**53: at 17 digits they cannot tie (x >= 10**(16 + j)
    # has ulp above 2**(j - 1), and a tie needs one of exactly that)
    *(float(2 ** 53 + i) for i in range(0, 40, 2)),
    *(float(2 ** p) for p in range(53, 80)),
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
    0.5, 123.25, 100.0]


def test_edge_values_are_written_as_oracle():
    values = np.array(EDGES)
    assert_written_as_oracle(values, -values)


def test_edges_hold_rounding_carries_and_ties():
    # a carry: 17 digits of a value below 10**k round up to 10**k
    assert [v for k in range(-45, 21) for v in near(10.0 ** k)
            if Fraction(v) < Fraction(10) ** k == Fraction("%.17g" % v)]
    for x in ties():
        X = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - X)).denominator == 2


@pytest.mark.parametrize("rows", [0, 1, table._BLOCK - 1, table._BLOCK,
                                  table._BLOCK + 1, 4 * table._BLOCK + 1])
def test_any_number_of_rows(rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-50, 20, rows)
    labels = np.array(["a;b,0.5", "c,degenerate-mixed", ""])[
        rng.integers(0, 3, rows)]
    assert_indexed_as_oracle(values, (labels, np.arange(rows)), np.abs(values),
                             -values)


def test_pieces_are_the_header_then_one_per_block():
    # 4097 rows of five float columns: four whole blocks and one row
    rows = 4 * table._BLOCK + 1
    columns = [np.arange(rows) + 0.5 * j for j in range(5)]
    pieces = list(csv_pieces("h", columns))
    assert pieces[0] == "h\n"
    assert [piece.count("\n") for piece in pieces[1:]] == [table._BLOCK] * 4 + [1]
    assert "".join(pieces) == oracle("h", columns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_any_float(values):
    assert_written_as_oracle(np.array(values, dtype=float))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
def test_any_bit_pattern(patterns):
    assert_written_as_oracle(np.array(patterns, dtype=np.uint64).view(float))


def test_in_range_values_take_the_exact_path():
    rng = np.random.default_rng(7)
    values = np.exp(rng.uniform(math.log(1e-43), math.log(1e15), 100_000))
    _, _, exact = table._significand(values)
    assert exact.mean() > 0.999


# --- exact zeros: each is "0" or "-0", by its sign bit --------------------

def test_signed_zeros_beside_other_values():
    values = np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.5e-300, 5e-324, 0.0, -0.0])
    assert_written_as_oracle(values, -values, values[::-1].copy())


def test_an_all_zero_block():
    # five float columns of _BLOCK rows: one block, every field a zero
    rows = table._BLOCK
    assert_written_as_oracle(np.zeros(rows), np.full(rows, -0.0), np.zeros(rows),
                             np.full(rows, -0.0), np.zeros(rows))


@pytest.mark.parametrize("columns", [1, 3])
def test_zeros_at_block_edges(columns):
    # zeros at the first and last row of each block and on either side of
    # each block edge, of both signs, among values that need digits
    per_block = 5 * table._BLOCK // columns
    rows = 3 * per_block + 1
    rng = np.random.default_rng(columns)
    values = rng.standard_normal((columns, rows)) * 10.0 ** rng.integers(-20, 20, rows)
    edges = [0, rows - 1] + [k * per_block + d for k in (1, 2, 3) for d in (-1, 0)]
    values[:, edges] = np.where(rng.integers(0, 2, len(edges)) == 1, -0.0, 0.0)
    assert_written_as_oracle(*values)


def test_nan_and_inf_beside_zeros():
    values = np.array([math.nan, 0.0, math.inf, -0.0, -math.inf, 0.0, math.nan,
                       -0.0, 1e300, 0.0, -math.nan])
    assert_written_as_oracle(values, values[::-1].copy(), -values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats()), max_size=40))
def test_any_float_among_zeros(values):
    assert_written_as_oracle(np.array(values, dtype=float))


# --- indexed columns: (values, index) writes values[index] -----------------

def assert_indexed_as_oracle(*columns):
    """csv_text on the columns against the oracle on each pair's
    materialized ``values[index]``."""
    materialized = [np.asarray(column[0])[column[1]] if isinstance(column, tuple)
                    else np.asarray(column) for column in columns]
    assert_same_text(csv_text("h", columns), oracle("h", materialized))


TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
VALUES = {"edges": st.lists(st.sampled_from(EDGES), min_size=1, max_size=30),
          "floats": st.lists(st.floats(), min_size=1, max_size=30),
          "strings": st.lists(TEXT, min_size=1, max_size=8)}


@st.composite
def tables(draw):
    """One to four columns of one row count: plain floats, an earlier
    plain float array again (the same object), (strings, arange) pairs,
    and (values, index) pairs of edge values, any floats or strings."""
    rows = draw(st.integers(0, 60))
    columns, plain = [], []
    for kind in draw(st.lists(st.sampled_from([*VALUES, "plain", "repeat",
                                               "string rows"]),
                              min_size=1, max_size=4)):
        if kind in VALUES:
            values = draw(VALUES[kind])
            index = draw(st.lists(st.integers(0, len(values) - 1),
                                  min_size=rows, max_size=rows))
            columns.append((np.array(values), np.array(index, dtype=np.intp)))
        elif kind == "repeat" and plain:
            columns.append(draw(st.sampled_from(plain)))
        elif kind in ("plain", "repeat"):
            plain.append(np.array(draw(st.lists(st.floats(), min_size=rows,
                                                max_size=rows)), dtype=float))
            columns.append(plain[-1])
        else:
            strings = draw(st.lists(TEXT, min_size=rows, max_size=rows))
            columns.append((np.array(strings, dtype=str), np.arange(rows)))
    return columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_indexed_columns_are_written_as_oracle(columns):
    assert_indexed_as_oracle(*columns)


@pytest.mark.parametrize("rows", [0, 1])
def test_indexed_columns_alone_at_zero_and_one_row(rows):
    # no plain float column: every field is gathered
    index = np.zeros(rows, dtype=np.intp)
    assert_indexed_as_oracle((np.array([-0.0, 1e-300]), index + 1),
                             (np.array(["x,y", ""]), index))


@pytest.mark.parametrize("floats, repeat", [(1, 0), (3, 0), (5, 0), (3, 1)],
                         ids=["1", "3", "5", "3+repeat"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (4, 1)])
def test_indexed_columns_across_block_edges(floats, repeat, blocks, extra):
    # a block formats about 5 * _BLOCK floats of the distinct plain float
    # columns; "3+repeat" passes the array at position 1 again at 4
    rows = blocks * (5 * table._BLOCK // floats) + extra
    rng = np.random.default_rng(rows)
    plain = [rng.standard_normal(rows) * 10.0 ** rng.integers(-50, 20, rows)
             for _ in range(floats)]
    axis = np.array(EDGES)
    labels = np.array(["a;b,0.5", "c,degenerate-mixed", ""])
    columns = [(axis, rng.integers(0, axis.size, rows)), *plain, *plain[:repeat],
               (labels, rng.integers(0, labels.size, rows))]
    assert_indexed_as_oracle(*columns)
    assert len(list(csv_pieces("h", columns))) == 1 + blocks + (extra > 0)


def test_one_byte_wide_string_columns():
    # "S1" fields, one of them NUL in every row
    index = np.arange(7) % 3
    assert_indexed_as_oracle((np.array(["+", "0", "-"]), index),
                             np.linspace(-1.0, 1.0, 7),
                             (np.array(["", "", ""]), index),
                             (np.array(["x", "", "y"]), index))


# --- ladders: nine rows a key, 0.0 - m reversed, three zeros and m -------

def ladder_oracle(keys, *ladders):
    """The ladder's columns materialized: each key nine times, the level j
    and, per ladder m, 0.0 - m[:, 2 - j], +0.0 three times and m[:, j - 6]."""
    keys = np.asarray(keys, dtype=float)
    return [np.repeat(keys, 9), np.tile(np.arange(9.0), keys.size),
            *(np.column_stack([0.0 - m[:, ::-1], np.zeros((len(m), 3)), m]).ravel()
              for m in ladders)]


def assert_ladder_as_oracle(keys, *ladders):
    """ladder_pieces against the oracle on its materialized columns."""
    assert_same_text("".join(ladder_pieces("h", keys, ladders)),
                     oracle("h", ladder_oracle(keys, *ladders)))


SIGNED = np.array([0.0, -0.0, 1e-86, -1e-86, 1e300, -1e300, 5e-324, -5e-324,
                   math.inf, -math.inf, math.nan, -math.nan, 2.68e-86, 123.25])
PER_BLOCK = 5 * table._BLOCK // 9  # whole keys of a ladder block


def test_negated_rows_write_zero_minus_the_value():
    # each SIGNED value at each of a key's three magnitudes, and negated
    k = np.arange(SIGNED.size)
    m = SIGNED[np.stack([k, np.roll(k, 1), np.roll(k, 5)], axis=1)]
    assert_ladder_as_oracle(SIGNED, m, -m)
    lines = "".join(ladder_pieces("h", np.zeros(k.size), [m])).split("\n")[1:-1]
    negated = {line.split(",")[2] for line in lines if int(line.split(",")[1]) < 3}
    assert "-0" not in negated and "-nan" not in negated


@pytest.mark.parametrize("extra", [0, 1])
def test_whole_and_per_block_tables_across_block_edges(extra):
    # a float table of exactly a block's rows, or one more value, is
    # formatted once, whole, its rows running across block edges; a ladder
    # of the same values is formatted per block of whole keys
    rows = 5 * table._BLOCK
    rng = np.random.default_rng(extra)
    values = rng.standard_normal(rows + extra) * 10.0 ** rng.integers(-90, 30, rows + extra)
    values[::7] = np.where(rng.integers(0, 2, values[::7].size) == 1, -0.0, 0.0)
    k = (np.arange(3 * rows + 5) * 3 // 7 + rng.integers(-40, 40, 3 * rows + 5)) % values.size
    assert_indexed_as_oracle((values, k), (values, np.sort(k)))
    keys = 2 * PER_BLOCK + extra
    assert_ladder_as_oracle(values[:keys], values[keys:4 * keys].reshape(keys, 3))


@pytest.mark.parametrize("keys", [1, PER_BLOCK - 1, PER_BLOCK, PER_BLOCK + 1,
                                  2 * PER_BLOCK + 1])
def test_ladder_pieces_hold_whole_keys(keys):
    rng = np.random.default_rng(keys)
    m = np.sort(np.abs(rng.standard_normal((keys, 3))), axis=1)
    pieces = list(ladder_pieces("h", np.linspace(-1.0, 1.0, keys), [m]))
    assert pieces[0] == "h\n"
    sizes = [piece.count("\n") for piece in pieces[1:]]
    assert sizes == [9 * PER_BLOCK] * (keys // PER_BLOCK) + [9 * (keys % PER_BLOCK)] * (
        keys % PER_BLOCK > 0)


def test_three_ladders_share_one_layout():
    rng = np.random.default_rng(3)
    fields = 3 * table._BLOCK
    ladders = [np.sort(np.abs(rng.standard_normal((fields, 3))
                              * 10.0 ** rng.integers(-6, 6, (fields, 1))), axis=1)
               for _ in range(3)]
    assert_ladder_as_oracle(rng.standard_normal(fields), *ladders)


def test_a_negative_index_on_a_string_table_is_refused():
    with pytest.raises(ValueError, match="negative"):
        list(csv_pieces("h", [(np.array(["a", "b"]), np.array([0, ~1]))]))


def test_a_negative_index_on_a_float_table_is_refused():
    # a float pair, too, gathers values[index] only: no index wraps around
    with pytest.raises(ValueError, match="negative"):
        list(csv_pieces("h", [(np.array([1.0, 2.0]), np.array([0, -1]))]))


def test_ladder_cells_of_one_digit_are_two_bytes_wide():
    # the sign slot, kept for a negated row, and one digit slot: every other
    # slot of 0 ... 8 is unused
    fields = table._float_fields(np.arange(9.0))
    assert table._rows(fields, sign=True).shape == (9, 2)
    assert table._rows(fields).shape == (9, 1)


# --- significands: Dekker's exact product against exact rationals ----------

def exact_significand(x):
    """|x| * 10**(16 - X) rounded half to even, X the true decimal exponent."""
    v = abs(Fraction(x))
    X = math.floor(math.log10(v))
    X += (Fraction(10) ** (X + 1) <= v) - (v < Fraction(10) ** X)
    return round(v * Fraction(10) ** (16 - X)), X


def assert_exact_significands(values):
    values = np.array(values)
    D, X, exact = table._significand(values)
    for x, d, e, ok in zip(values.tolist(), D.tolist(), X.tolist(), exact.tolist()):
        if ok:  # a D that rounds to 10**17 has no 17 digits: never exact
            assert (d, e) == exact_significand(x), x
    assert_written_as_oracle(values, -values)


def test_powers_of_ten_and_their_neighbours_are_exact():
    # where the log10 estimate of X is off by one
    assert_exact_significands([v for k in range(-43, 17) for v in near(10.0 ** k, 1)])


def decimal_near_ties(X, count=40, seed=0):
    """Doubles nearest to 18-digit decimals d...d5e(X - 17), whose 17-digit
    rounding is within an ulp of a tie."""
    rng = np.random.default_rng(seed - X)
    digits = rng.integers(10 ** 16, 10 ** 17, count).tolist()
    return [float(f"{d}5e{X - 17}") for d in digits]


@pytest.mark.parametrize("X", [-5, -6, -7, -8])
def test_near_ties_on_both_sides_of_the_exact_powers(X):
    # 10**(16 - X) is a double up to k = 22 (X = -6): there t is exact; from
    # k = 23 (X = -7) on it carries the error of R
    values = decimal_near_ties(X)
    assert_exact_significands(values + [math.nextafter(v, 0.0) for v in values]
                              + [math.nextafter(v, 1.0) for v in values])
    assert_exact_significands([x for x in ties() if math.floor(math.log10(x)) == X])


def lattice_near_ties(k):
    """Doubles x = (2**52 + q) * 2**(-53 - k), and their mirror images below
    2**53, whose x * 10**k lies within 2**-45 of a half-integer but not on
    it: q runs over the convergent denominators of (5**k mod 2**53) / 2**53,
    which make q * 5**k nearly a multiple of 2**53."""
    num, den, q_prev, q = 5 ** k % 2 ** 53, 2 ** 53, 1, 0
    out = []
    while den and q < 2 ** 52:
        whole, (num, den) = num // den, (den, num % den)
        q_prev, q = q, whole * q + q_prev
        for m in (2 ** 52 + q, 2 ** 53 - q):
            x = m * 2.0 ** (-53 - k)
            off = Fraction(x) * 10 ** k % 1 - Fraction(1, 2)
            if 0 < abs(off) < Fraction(1, 2 ** 45) and 0 < q < 2 ** 52:
                out.append(x)
    return out


def test_lattice_near_ties_where_ten_to_the_k_is_inexact():
    # from k = 23 on, t carries R's error: a t this close to a half-integer
    # must take the % path, or its last digit may round the wrong way
    values = [x for k in range(23, 60) for x in lattice_near_ties(k)]
    assert len(values) > 100
    assert_exact_significands(values)
