import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError
from spincluster.operators import SpinRegister
from spincluster.spectra import (
    CLOSED_FORM_ATOL,
    classify_ground,
    closed_form_defect,
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


@seed(303)
@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.05, max_value=8.0))
def test_triplet_region_has_unique_triplet_ground(a12, depth):
    # the wedge a13 < -2*a12 keeps triplet3 strictly lowest
    a13 = -2.0 * a12 - depth
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


def test_closed_form_defect_checks_dimensions():
    with pytest.raises(ConfigError):
        closed_form_defect(R3, parallelogram_levels(1.0, -3.0),
                           triangle_hamiltonian(R3, 1.0, 0.5))
