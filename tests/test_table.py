"""The CSV writer against its oracle, ``"%.17g" % v`` joined by ``,`` and
``\\n``: every float it writes must be those bytes exactly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincluster import table
from spincluster.table import csv_pieces

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
