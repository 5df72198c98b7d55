import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError, NumericalCheckError
from spincluster.operators import SpinRegister
from spincluster.symmetry import (
    FAMILY_COMMUTATOR_ATOL,
    RELATION_RESIDUAL_ATOL,
    CouplingSet,
    commutant_family,
    commutator_defect,
    constrained_couplings_parallelogram,
    constrained_couplings_triangle,
    degenerate_block_elements,
    diagonalizing_theta,
    extract_mixing_theta,
    family_fill_residual,
    family_projection_residual,
    has_real_mixing_angle,
    heisenberg_hamiltonian,
    mixing_relation_residual,
    numeric_degenerate_block,
    pair_order,
    rotated_offdiagonal,
)
from spincluster.yangian import build_q

PROJECTION_ATOL = 1e-10
COUPLING = st.floats(min_value=-4.0, max_value=4.0,
                     allow_nan=False, allow_infinity=False)

R3 = SpinRegister(3)
R4 = SpinRegister(4)
Q3 = build_q(R3, np.zeros(3))
Q4 = build_q(R4, np.zeros(4))


def test_pair_order_is_lexicographic_one_indexed():
    assert pair_order(3) == [(1, 2), (1, 3), (2, 3)]
    assert pair_order(4)[0] == (1, 2) and pair_order(4)[-1] == (3, 4)


def test_coupling_set_rejects_unknown_pairs():
    with pytest.raises(ConfigError):
        CouplingSet(3, {(1, 4): 1.0})
    with pytest.raises(ConfigError):
        CouplingSet(3, {(1, 2): float("nan")})
    filled = CouplingSet(3, {(1, 2): 2.0})
    assert filled.a[(1, 3)] == 0.0


def test_commutant_dimensions():
    assert len(commutant_family(R3, Q3).basis) == 2
    assert len(commutant_family(R4, Q4).basis) == 3


def test_three_site_family_is_the_isosceles_plane():
    family = commutant_family(R3, Q3)
    for member in family.basis:
        assert abs(member.a[(1, 2)] - member.a[(2, 3)]) < 1e-10
    triangle = constrained_couplings_triangle(0.7, -1.4)
    assert family_projection_residual(family, triangle) < PROJECTION_ATOL


def test_four_site_fills_and_flagship_member():
    member = constrained_couplings_parallelogram(1.0, 1.0, 2.0)
    assert member.a[(2, 4)] == pytest.approx(2.0)
    assert member.a[(1, 4)] == pytest.approx(5.0 / 3.0)
    assert member.a[(2, 3)] == pytest.approx(1.0 / 3.0)
    family = commutant_family(R4, Q4)
    assert family_projection_residual(family, member) < PROJECTION_ATOL
    assert commutator_defect(R4, Q4, member) < FAMILY_COMMUTATOR_ATOL


@seed(201)
@settings(max_examples=30, deadline=None)
@given(COUPLING, COUPLING, COUPLING)
def test_family_members_commute_with_invariant(a12, a34, a13):
    member = constrained_couplings_parallelogram(a12, a34, a13)
    assert family_fill_residual(member) < 1e-12
    scale = max(1.0, abs(a12), abs(a34), abs(a13))
    assert commutator_defect(R4, Q4, member) < FAMILY_COMMUTATOR_ATOL * scale


@seed(202)
@settings(max_examples=30, deadline=None)
@given(COUPLING, COUPLING)
def test_triangle_members_commute(J12, J13):
    member = constrained_couplings_triangle(J12, J13)
    scale = max(1.0, abs(J12), abs(J13))
    assert commutator_defect(R3, Q3, member) < FAMILY_COMMUTATOR_ATOL * scale


def test_generic_couplings_break_the_symmetry():
    generic = CouplingSet(4, {(1, 2): 1.0, (3, 4): -0.3, (1, 3): 0.2,
                              (2, 4): 0.9, (1, 4): 0.0, (2, 3): 0.0})
    assert commutator_defect(R4, Q4, generic) > 1e-3


# --- degenerate-block geometry -----------------------------------------

def test_block_elements_match_numeric_block():
    member = constrained_couplings_parallelogram(0.8, -0.5, 1.7)
    m11, m13, m33 = degenerate_block_elements(member)
    for m in (-1.0, 0.0, 1.0):
        block = numeric_degenerate_block(R4, member, m=m)
        target = np.array([[m11, m13], [m13, m33]])
        assert np.max(np.abs(block - target)) < 1e-10


def _member_from_angle(p, q, theta):
    """Invert the mixing relation: given theta != 0, pick the third constant."""
    g = -2.0 * (p - q) * (1.5 - math.cos(theta)) / math.sin(theta)
    r = (3.0 * g + 2.0 * p + 6.0 * q) / 8.0
    return constrained_couplings_parallelogram(p, q, r)


@seed(203)
@settings(max_examples=40, deadline=None)
@given(COUPLING, COUPLING,
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda t: abs(t) > 1e-3))
def test_angle_constructed_members_satisfy_relation(p, q, theta):
    assume(abs(p - q) > 1e-6)
    member = _member_from_angle(p, q, theta)
    got = extract_mixing_theta(R4, member)
    scale = max(1.0, abs(p), abs(q))
    assert mixing_relation_residual(member, got) < RELATION_RESIDUAL_ATOL * scale
    # the constructed angle itself is a relation root too
    assert mixing_relation_residual(member, theta) < RELATION_RESIDUAL_ATOL * scale


@seed(207)
@settings(max_examples=25, deadline=None)
@given(COUPLING, COUPLING,
       st.floats(min_value=-3.0, max_value=3.0).filter(lambda t: abs(t) > 1e-3))
def test_m_independence_gate_scales_with_the_couplings(p, q, theta):
    # at couplings of order 1e6 the block's m-dependence from rounding alone
    # exceeds the unit-scale bound of 1e-10
    assume(abs(p - q) > 1e-6)
    member = _member_from_angle(1e6 * p, 1e6 * q, theta)
    got = extract_mixing_theta(R4, member)
    scale = 1e6 * max(1.0, abs(p), abs(q))
    assert mixing_relation_residual(member, got) < RELATION_RESIDUAL_ATOL * scale


@seed(204)
@settings(max_examples=25, deadline=None)
@given(COUPLING, COUPLING)
def test_equal_opposite_edges_mean_no_mixing(p, r):
    member = constrained_couplings_parallelogram(p, p, r)
    assert extract_mixing_theta(R4, member) == pytest.approx(0.0, abs=1e-9)


def test_known_angle_example():
    member = constrained_couplings_parallelogram(1.0, 2.0, 0.0)
    theta = extract_mixing_theta(R4, member)
    assert theta == pytest.approx(-0.22725609881269834, abs=1e-12)
    # relation in its cos/sin form: A*(3/2 - cos t) + (g/2) sin t = 0
    assert math.cos(theta) - (7.0 / 3.0) * math.sin(theta) == pytest.approx(1.5)


def test_members_without_real_root_fail_loudly():
    member = constrained_couplings_parallelogram(1.0, 0.0, 0.0)
    assert not has_real_mixing_angle(member)
    with pytest.raises(NumericalCheckError):
        extract_mixing_theta(R4, member)


def test_near_equal_edges_follow_one_root_rule():
    # a12 - a34 = 1e-13 counts as equal edges, here where g = 0 too
    p, q = 1.0, 1.0 - 1e-13
    member = constrained_couplings_parallelogram(p, q, (2.0 * p + 6.0 * q) / 8.0)
    assert has_real_mixing_angle(member)
    assert extract_mixing_theta(R4, member) == 0.0


def test_diagonalizing_theta_kills_offdiagonal():
    member = constrained_couplings_parallelogram(1.0, 2.0, 0.0)
    theta = diagonalizing_theta(R4, member)
    assert abs(rotated_offdiagonal(member, theta)) < 1e-12
    assert -math.pi / 2 < theta <= math.pi / 2


def test_diagonalizing_theta_at_equal_couplings_and_past_minus_half_pi(monkeypatch):
    # a12 = a34 = a13: the block is already diagonal, and exactly so here
    member = constrained_couplings_parallelogram(6.0, 6.0, 6.0)
    with monkeypatch.context() as patch:
        patch.setattr(np, "arctan2", None)  # the early return needs no angle
        assert diagonalizing_theta(R4, member) == 0.0
    # arctan2 gives about -1.86 here, folded by pi into (-pi/2, pi/2]
    member = constrained_couplings_parallelogram(1.0, 0.0, 0.0)
    theta = diagonalizing_theta(R4, member)
    assert theta == pytest.approx(math.pi - 1.8605480282309441, abs=1e-12)
    assert abs(rotated_offdiagonal(member, theta)) < 1e-12


def test_membership_guard_rejects_outsiders():
    generic = CouplingSet(4, {(1, 2): 1.0, (3, 4): 1.0, (1, 3): 1.0,
                              (2, 4): 0.0, (1, 4): 0.0, (2, 3): 0.0})
    with pytest.raises(ConfigError):
        extract_mixing_theta(R4, generic)
    member = constrained_couplings_parallelogram(1.0, 2.0, 0.0)
    with pytest.raises(ConfigError,
                       match="^mixing angle is defined for the four-site family$"):
        extract_mixing_theta(R3, member)


def test_hamiltonian_requires_matching_register():
    with pytest.raises(ConfigError):
        heisenberg_hamiltonian(R3, constrained_couplings_parallelogram(1, 1, 1))
