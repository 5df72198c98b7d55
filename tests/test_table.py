"""The CSV writer against its oracle, ``"%.17g" % v`` joined by ``,`` and
``\\n``: every float it writes must be those bytes exactly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincluster import table
from spincluster.table import csv_text

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def oracle(header, columns):
    rows = zip(*(column.tolist() for column in columns))
    return header + "\n" + "".join(
        ",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n"
        for row in rows)


def assert_written_as_oracle(*columns):
    columns = [np.asarray(column) for column in columns]
    assert csv_text("h", columns) == oracle("h", columns)


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
                                  table._BLOCK + 1,
                                  table._BLOCK * table._PIECE_BLOCKS + 1])
def test_any_number_of_rows(rows):
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-50, 20, rows)
    labels = np.array(["a;b,0.5", "c,degenerate-mixed", ""])[
        rng.integers(0, 3, rows)]
    assert_written_as_oracle(values, labels, np.abs(values), -values)


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
