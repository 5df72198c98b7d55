import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError
from spincluster.multiplets import LEVELS, level_state, projections
from spincluster.operators import SpinRegister
from spincluster.spectra import (
    CLOSED_FORM_ATOL,
    FAMILIES,
    closed_form_defect,
    hamiltonian,
    level_energy,
    levels,
    phase_map,
    tied_ground,
)
from test_table import assert_same_text, csv_text

COUPLING = st.floats(min_value=-6.0, max_value=6.0,
                     allow_nan=False, allow_infinity=False)

# The paper's claimed full ordering of the six four-site levels in the
# region a12 > 0, a13 < -2*a12; test_ordering_claim_is_reported_not_asserted
# proves that it holds nowhere.
CLAIMED_ORDER_CHAIN = (
    "triplet3", "singlet_plus", "quintet",
    "singlet_minus", "triplet1", "triplet2",
)


def _gap(lo, hi):
    """Exact coefficients of E_lo - E_hi over (a12, a13): lo < hi exactly
    where this pair has a negative dot product with the couplings."""
    coeffs = {row.label: row.energy for row in LEVELS[4]}
    return tuple(a - b for a, b in zip(coeffs[lo], coeffs[hi]))


def _points(grid):
    """The (a12, a13) of each point of a phase map, a13 running fastest."""
    return (axis.ravel() for axis in np.meshgrid(grid.a12_axis, grid.a13_axis,
                                                 indexing="ij"))


def _ground(a12, a13):
    """(ground_labels, ground_S, ground_energy) of one point's phase map."""
    grid = phase_map((a12, a12), (a13, a13), 1)
    return (*grid.summaries[grid.pattern[0]], grid.ground_energy[0])


def test_triangle_example_levels():
    table = levels("triangle", 1.0, 0.5).by_label()
    assert table["alpha"].energy == pytest.approx(-0.875)
    assert table["beta"].energy == pytest.approx(-0.375)
    assert table["quartet"].energy == pytest.approx(0.625)
    assert table["quartet"].multiplicity == 4


def test_triangle_strong_couplings():
    energies = sorted(lev.energy for lev in levels("triangle", 65.0, 7.0).levels)
    assert energies == pytest.approx([-63.25, -5.25, 34.25])


def test_parallelogram_example_levels():
    table = levels("parallelogram", 1.0, -3.0).by_label()
    assert table["quintet"].energy == pytest.approx(-0.5)
    assert table["triplet1"].energy == pytest.approx(1.5)
    assert table["triplet2"].energy == pytest.approx(17.0 / 6.0)
    assert table["triplet3"].energy == pytest.approx(-23.0 / 6.0)
    assert table["singlet_plus"].energy == pytest.approx(-3.5)
    assert table["singlet_minus"].energy == pytest.approx(4.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a13", [1e308, -1e308])
def test_levels_are_finite_where_only_a_product_overflows(a13):
    # 5 * a13 overflows for |a13| > 3.6e307; the term 5 * a13 / 6 does not
    got = levels("parallelogram", 1.0, a13).levels
    for row, lev in zip(LEVELS[4], got):
        exact = row.energy[0] + row.energy[1] * Fraction(a13)
        assert math.isfinite(lev.energy)
        assert abs(Fraction(lev.energy) - exact) <= 2 * math.ulp(float(exact))
    assert [lev.energy for lev in got][::5] == [a13 / 2, -1.5 * a13]
    arrays = level_energy(LEVELS[4][2], np.array([1.0, 1.0]), np.array([a13, 6.0]))
    assert arrays[0] == got[2].energy and arrays[1] == -4.666666666666667


@seed(301)
@settings(max_examples=60, deadline=None)
@given(COUPLING, COUPLING)
def test_triangle_closed_form_matches_diagonalization(J12, J13):
    levelset = levels("triangle", J12, J13)
    scale = max(1.0, abs(J12), abs(J13))
    assert closed_form_defect("triangle", J12, J13) < CLOSED_FORM_ATOL * scale
    assert abs(levelset.weighted_sum()) < 1e-10 * scale
    assert len(levelset.expanded()) == 8


@seed(302)
@settings(max_examples=60, deadline=None)
@given(COUPLING, COUPLING)
def test_parallelogram_closed_form_matches_diagonalization(a12, a13):
    levelset = levels("parallelogram", a12, a13)
    scale = max(1.0, abs(a12), abs(a13))
    assert closed_form_defect("parallelogram", a12, a13) < CLOSED_FORM_ATOL * scale
    assert abs(levelset.weighted_sum()) < 1e-10 * scale
    assert len(levelset.expanded()) == 16


def test_classify_ground_flagship_point():
    labels, spin, energy = _ground(1.0, -3.0)
    assert labels == ("triplet3",)
    assert spin == 1.0
    assert energy == pytest.approx(-23.0 / 6.0)


def test_classify_ground_other_phases():
    assert _ground(-1.0, 0.0)[0] == ("quintet",)
    assert _ground(1.0, 0.0)[0] == ("singlet_plus",)
    labels, spin, _ = _ground(1.0, 1.0)
    assert set(labels) == {"singlet_plus", "singlet_minus"}
    assert spin == 0.0  # same spin on both sides of the tie


@pytest.mark.parametrize("family", list(FAMILIES))
def test_joint_eigenvalues_certify_the_table_on_the_whole_plane(family):
    # H(x, y) = x H(1, 0) + y H(0, 1), and the two commute, so their joint
    # eigenvalue pairs are every level's coefficients for all couplings
    hx, hy = hamiltonian(family, 1.0, 0.0), hamiltonian(family, 0.0, 1.0)
    assert np.max(np.abs(hamiltonian(family, 2.0, -3.0) - (2 * hx - 3 * hy))) < 1e-14
    assert np.max(np.abs(hx @ hy - hy @ hx)) < 1e-14
    # no two distinct rational pairs tie along an irrational direction
    _, vectors = np.linalg.eigh(hx + np.sqrt(2.0) * hy)
    pairs = Counter()
    for vec in vectors.T:
        coeffs = []
        for ham in (hx, hy):
            value = float(np.vdot(vec, ham @ vec).real)
            assert np.linalg.norm(ham @ vec - value * vec) < 1e-12
            exact = Fraction(value).limit_denominator(12)
            assert abs(value - exact) < 1e-12
            coeffs.append(exact)
        pairs[tuple(coeffs)] += 1
    assert pairs == {row.energy: int(2 * row.S + 1)
                     for row in LEVELS[FAMILIES[family].sites]}


@seed(304)
@settings(max_examples=30, deadline=None)
@given(COUPLING, COUPLING)
def test_every_row_state_carries_its_row_energy(x, y):
    scale = max(1.0, abs(x), abs(y))
    for family, (sites, _, _) in FAMILIES.items():
        register = SpinRegister(sites)
        ham = hamiltonian(family, x, y)
        for row in LEVELS[sites]:
            energy = level_energy(row, x, y)
            for m in projections(row.S):
                state = level_state(register, row.label, m)
                residual = np.linalg.norm(ham @ state - energy * state)
                assert residual < CLOSED_FORM_ATOL * scale


def test_triplet_cone_is_exact():
    # triplet3 < singlet_plus exactly where a13 < -2*a12, and
    # triplet3 < quintet exactly where a13 < 7*a12 ...
    assert _gap("triplet3", "singlet_plus") == (Fraction(2, 3), Fraction(1, 3))
    assert _gap("triplet3", "quintet") == (Fraction(-7, 3), Fraction(1, 3))
    # ... and every other gap is a nonnegative combination of those two, so
    # triplet3 is the unique ground level exactly on that cone
    (p1, p2), (q1, q2) = _gap("triplet3", "singlet_plus"), _gap("triplet3", "quintet")
    det = p1 * q2 - p2 * q1
    for other in ("triplet1", "triplet2", "singlet_minus"):
        g1, g2 = _gap("triplet3", other)
        assert (g1 * q2 - g2 * q1) / det >= 0
        assert (p1 * g2 - p2 * g1) / det >= 0


@seed(303)
@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=8.0))
def test_triplet_region_has_unique_triplet_ground(a12, depth):
    # the cone a13 < min(-2*a12, 7*a12) keeps triplet3 strictly lowest
    a13 = min(-2.0 * a12, 7.0 * a12) - depth
    assert _ground(a12, a13)[:2] == (("triplet3",), 1.0)


def test_phase_map_grid_shape_and_validation():
    points = phase_map((0.1, 1.0), (-5.0, -3.0), 4)
    assert len(points) == 16
    single = phase_map((0.3, 0.3), (-4.0, -4.0), 1)
    assert len(single) == 1 and single.a12_axis[0] == 0.3
    with pytest.raises(ConfigError):
        phase_map((1.0, 0.0), (-5.0, -3.0), 4)
    with pytest.raises(ConfigError):
        phase_map((0.0, 1.0), (-5.0, -3.0), 0)


def test_phase_map_through_exact_ties_matches_pointwise_classification():
    # step 1 on (-3, 3)^2 hits the origin (all six levels tie) and the
    # a12 = a13 diagonal (the two singlets tie)
    points = phase_map((-3.0, 3.0), (-3.0, 3.0), 7)
    grid = [(a12, a13) for a12 in range(-3, 4) for a13 in range(-3, 4)]
    a12s, a13s = _points(points)
    assert list(zip(a12s, a13s)) == grid
    table = {}
    for a12, a13, pattern, energy in zip(a12s, a13s, points.pattern,
                                         points.ground_energy):
        table[a12, a13] = (*points.summaries[pattern], energy)
        assert table[a12, a13] == _ground(a12, a13)
        levelset = levels("parallelogram", a12, a13)
        assert list(table[a12, a13][0]) == levelset.ground_labels()
    assert len(table[0.0, 0.0][0]) == 6
    assert table[0.0, 0.0][1] == "degenerate-mixed"
    assert table[2.0, 2.0][0] == ("singlet_plus", "singlet_minus")


@pytest.mark.parametrize("bounds, n_grid", [((-35.0, 35.0), 71), ((-3.0, 3.0), 7)])
def test_phase_map_summaries_follow_sorted_winner_columns(bounds, n_grid):
    # oracle: the distinct winner columns, deduplicated and sorted as
    # boolean records, each summarized in that order
    points = phase_map(bounds, bounds, n_grid)
    energies = [level_energy(row, *_points(points)) for row in LEVELS[4]]
    patterns, which = np.unique(tied_ground(energies)[0], axis=1,
                                return_inverse=True)
    summaries = []
    for pattern in patterns.T:
        rows = [row for row, won in zip(LEVELS[4], pattern) if won]
        spin = rows[0].S if len({row.S for row in rows}) == 1 else "degenerate-mixed"
        summaries.append((tuple(row.label for row in rows), spin))
    assert points.summaries == tuple(summaries)
    assert np.array_equal(points.pattern, which.reshape(-1))
    assert len(summaries) > 1


@settings(max_examples=40, deadline=None)
@given(a12_range=st.tuples(COUPLING, COUPLING).map(sorted),
       a13_range=st.tuples(COUPLING, COUPLING).map(sorted),
       n_grid=st.integers(1, 80), integral=st.booleans())
def test_phase_map_csv_equals_materialized_columns(a12_range, a13_range, n_grid,
                                                   integral):
    # oracle: every column materialized, one a12, a13 and label cell per
    # point; integral ranges hit exact ties
    if integral:
        a12_range, a13_range = np.round(a12_range), np.round(a13_range)
    grid = phase_map(a12_range, a13_range, n_grid)
    cells = np.array([";".join(labels) + "," + (
        spin if isinstance(spin, str) else "%.17g" % spin)
        for labels, spin in grid.summaries])
    assert_same_text("".join(grid.to_csv()), csv_text(
        "a12,a13,ground_labels,ground_S,ground_energy",
        (*_points(grid), (cells[grid.pattern], np.arange(len(grid))),
         grid.ground_energy)))


def test_ordering_claim_is_reported_not_asserted():
    energies = {lev.label: lev.energy
                for lev in levels("parallelogram", 1.0, -3.0).levels}
    assert min(energies, key=energies.get) == "triplet3"
    failing = [f"{lo} < {hi}"
               for lo, hi in zip(CLAIMED_ORDER_CHAIN[:-1], CLAIMED_ORDER_CHAIN[1:])
               if not energies[lo] < energies[hi]]
    # the last two claimed inequalities are the inconsistent ones
    assert "quintet < singlet_minus" in failing or "singlet_minus < triplet1" in failing
    # link k holds where its gap L_k is negative on (a12, a13); as
    # 3 L1 + 2/3 L2 + L4 = 0, no coupling pair meets links 1, 2 and 4 at once
    links = [_gap(lo, hi)
             for lo, hi in zip(CLAIMED_ORDER_CHAIN[:-1], CLAIMED_ORDER_CHAIN[1:])]
    weights = (Fraction(3), Fraction(2, 3), 0, 1, 0)
    assert tuple(sum(w * link[i] for w, link in zip(weights, links))
                 for i in (0, 1)) == (0, 0)
