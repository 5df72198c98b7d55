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
    CLAIMED_ORDER_CHAIN,
    CLOSED_FORM_ATOL,
    classify_ground,
    closed_form_defect,
    level_energy,
    ordering_report,
    parallelogram_hamiltonian,
    parallelogram_levels,
    phase_map,
    triangle_hamiltonian,
    triangle_levels,
)

COUPLING = st.floats(min_value=-6.0, max_value=6.0,
                     allow_nan=False, allow_infinity=False)
R3 = SpinRegister(3)
R4 = SpinRegister(4)
FAMILIES = [(R3, triangle_hamiltonian), (R4, parallelogram_hamiltonian)]


def _gap(lo, hi):
    """Exact coefficients of E_lo - E_hi over (a12, a13): lo < hi exactly
    where this pair has a negative dot product with the couplings."""
    coeffs = {row.label: row.energy for row in LEVELS[4]}
    return tuple(a - b for a, b in zip(coeffs[lo], coeffs[hi]))


def test_triangle_example_levels():
    table = triangle_levels(1.0, 0.5).by_label()
    assert table["alpha"].energy == pytest.approx(-0.875)
    assert table["beta"].energy == pytest.approx(-0.375)
    assert table["quartet"].energy == pytest.approx(0.625)
    assert table["quartet"].multiplicity == 4


def test_triangle_strong_couplings():
    energies = sorted(lev.energy for lev in triangle_levels(65.0, 7.0).levels)
    assert energies == pytest.approx([-63.25, -5.25, 34.25])


def test_parallelogram_example_levels():
    table = parallelogram_levels(1.0, -3.0).by_label()
    assert table["quintet"].energy == pytest.approx(-0.5)
    assert table["triplet1"].energy == pytest.approx(1.5)
    assert table["triplet2"].energy == pytest.approx(17.0 / 6.0)
    assert table["triplet3"].energy == pytest.approx(-23.0 / 6.0)
    assert table["singlet_plus"].energy == pytest.approx(-3.5)
    assert table["singlet_minus"].energy == pytest.approx(4.5)


@seed(301)
@settings(max_examples=60, deadline=None)
@given(COUPLING, COUPLING)
def test_triangle_closed_form_matches_diagonalization(J12, J13):
    levelset = triangle_levels(J12, J13)
    ham = triangle_hamiltonian(R3, J12, J13)
    scale = max(1.0, abs(J12), abs(J13))
    assert closed_form_defect(R3, levelset, ham) < CLOSED_FORM_ATOL * scale
    assert abs(levelset.weighted_sum()) < 1e-10 * scale
    assert levelset.total_multiplicity() == 8


@seed(302)
@settings(max_examples=60, deadline=None)
@given(COUPLING, COUPLING)
def test_parallelogram_closed_form_matches_diagonalization(a12, a13):
    levelset = parallelogram_levels(a12, a13)
    ham = parallelogram_hamiltonian(R4, a12, a13)
    scale = max(1.0, abs(a12), abs(a13))
    assert closed_form_defect(R4, levelset, ham) < CLOSED_FORM_ATOL * scale
    assert abs(levelset.weighted_sum()) < 1e-10 * scale
    assert levelset.total_multiplicity() == 16


def test_classify_ground_flagship_point():
    point = classify_ground(1.0, -3.0)
    assert point.ground_labels == ("triplet3",)
    assert point.ground_S == 1.0
    assert point.ground_energy == pytest.approx(-23.0 / 6.0)


def test_classify_ground_other_phases():
    assert classify_ground(-1.0, 0.0).ground_labels == ("quintet",)
    assert classify_ground(1.0, 0.0).ground_labels == ("singlet_plus",)
    tie = classify_ground(1.0, 1.0)
    assert set(tie.ground_labels) == {"singlet_plus", "singlet_minus"}
    assert tie.ground_S == 0.0  # same spin on both sides of the tie


@pytest.mark.parametrize("register, hamiltonian", FAMILIES,
                         ids=["triangle", "parallelogram"])
def test_joint_eigenvalues_certify_the_table_on_the_whole_plane(register,
                                                                 hamiltonian):
    # H(x, y) = x H(1, 0) + y H(0, 1), and the two commute, so their joint
    # eigenvalue pairs are every level's coefficients for all couplings
    hx, hy = hamiltonian(register, 1.0, 0.0), hamiltonian(register, 0.0, 1.0)
    assert np.max(np.abs(hamiltonian(register, 2.0, -3.0) - (2 * hx - 3 * hy))) < 1e-14
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
                     for row in LEVELS[register.n_sites]}


@seed(304)
@settings(max_examples=30, deadline=None)
@given(COUPLING, COUPLING)
def test_every_row_state_carries_its_row_energy(x, y):
    scale = max(1.0, abs(x), abs(y))
    for register, hamiltonian in FAMILIES:
        ham = hamiltonian(register, x, y)
        for row in LEVELS[register.n_sites]:
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
    point = classify_ground(a12, a13)
    assert point.ground_labels == ("triplet3",)
    assert point.ground_S == 1.0


def test_phase_map_grid_shape_and_validation():
    points = phase_map((0.1, 1.0), (-5.0, -3.0), 4)
    assert len(points) == 16
    single = phase_map((0.3, 0.3), (-4.0, -4.0), 1)
    assert len(single) == 1 and single[0].a12 == 0.3
    with pytest.raises(ConfigError):
        phase_map((1.0, 0.0), (-5.0, -3.0), 4)
    with pytest.raises(ConfigError):
        phase_map((0.0, 1.0), (-5.0, -3.0), 0)


def test_phase_map_through_exact_ties_matches_pointwise_classification():
    # step 1 on (-3, 3)^2 hits the origin (all six levels tie) and the
    # a12 = a13 diagonal (the two singlets tie)
    points = phase_map((-3.0, 3.0), (-3.0, 3.0), 7)
    grid = [(a12, a13) for a12 in range(-3, 4) for a13 in range(-3, 4)]
    assert [(pt.a12, pt.a13) for pt in points] == grid
    for pt in points:
        assert pt == classify_ground(pt.a12, pt.a13)
        levelset = parallelogram_levels(pt.a12, pt.a13)
        assert list(pt.ground_labels) == levelset.ground_labels()
    table = {(pt.a12, pt.a13): pt for pt in points}
    assert len(table[0.0, 0.0].ground_labels) == 6
    assert table[0.0, 0.0].ground_S == "degenerate-mixed"
    assert table[2.0, 2.0].ground_labels == ("singlet_plus", "singlet_minus")


def test_ordering_claim_is_reported_not_asserted():
    report = ordering_report(1.0, -3.0)
    assert report["actual_order"][0] == "triplet3"
    assert report["chain_holds"] is False
    failing = [link["claim"] for link in report["links"] if not link["holds"]]
    # the last two claimed inequalities are the inconsistent ones
    assert "quintet < singlet_minus" in failing or "singlet_minus < triplet1" in failing
    # link k holds where its gap L_k is negative on (a12, a13); as
    # 3 L1 + 2/3 L2 + L4 = 0, no coupling pair meets links 1, 2 and 4 at once
    links = [_gap(lo, hi)
             for lo, hi in zip(CLAIMED_ORDER_CHAIN[:-1], CLAIMED_ORDER_CHAIN[1:])]
    weights = (Fraction(3), Fraction(2, 3), 0, 1, 0)
    assert tuple(sum(w * link[i] for w, link in zip(weights, links))
                 for i in (0, 1)) == (0, 0)


def test_closed_form_defect_checks_dimensions():
    with pytest.raises(ConfigError):
        closed_form_defect(R3, parallelogram_levels(1.0, -3.0),
                           triangle_hamiltonian(R3, 1.0, 0.5))
