"""Checks for the weighted charge construction and its closed forms.

The expensive ground truths here are the expanded polynomial forms of
the invariant and the per-sector action matrices; both are compared
against the direct operator construction over randomized weight
vectors.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spincluster.errors import ConfigError
from spincluster.operators import SpinRegister
from spincluster.yangian import (
    ACTION_ATOL,
    EXPANSION_ATOL,
    LEVEL_ZERO_ATOL,
    action_blocks,
    build_q,
    build_yangian,
    check_yangian_axioms,
    expanded_q,
    hermiticity_defect,
    numeric_action_block,
    q_hermiticity_condition,
    q_joint_labels,
    q_spectrum,
    triple_prefactors,
    verbatim_action_discrepancies,
)

HERM_ATOL = 1e-10
WEIGHTS = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


def _weights_array(n):
    return arrays(np.float64, (n,), elements=WEIGHTS)


# --- construction and closed-form expansion ---------------------------

@seed(101)
@settings(max_examples=40, deadline=None)
@given(_weights_array(3))
def test_expanded_matches_built_three_sites(u):
    register = SpinRegister(3)
    gap = np.max(np.abs(build_q(register, u) - expanded_q(register, u)))
    assert gap < EXPANSION_ATOL * max(1.0, float(np.max(np.abs(u))) ** 2)


@seed(102)
@settings(max_examples=40, deadline=None)
@given(_weights_array(4))
def test_expanded_matches_built_four_sites(u):
    register = SpinRegister(4)
    gap = np.max(np.abs(build_q(register, u) - expanded_q(register, u)))
    assert gap < EXPANSION_ATOL * max(1.0, float(np.max(np.abs(u))) ** 2)


@seed(103)
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_level_zero_relations_hold_for_any_weights(n_sites, data):
    u = data.draw(_weights_array(n_sites))
    register = SpinRegister(n_sites)
    report = check_yangian_axioms(register, u)
    assert report.level_zero_residual < LEVEL_ZERO_ATOL


def test_serre_consistency_at_zero_weights():
    # three sites: both higher relations close with the same scale
    report = check_yangian_axioms(SpinRegister(3), np.zeros(3))
    assert report.serre_consistent
    assert report.fitted_lambda == pytest.approx(4.0, abs=1e-12)
    assert report.serre_residual < 1e-12
    # two sites: both sides vanish identically
    report2 = check_yangian_axioms(SpinRegister(2), np.zeros(2))
    assert report2.serre_residual < 1e-14


# --- Hermiticity of the invariant -------------------------------------

def test_hermiticity_condition_three_sites_is_a_plane():
    assert q_hermiticity_condition([0.4, 0.9, 0.5], 3)      # u1 - u2 + u3 = 0
    assert not q_hermiticity_condition([0.4, 0.9, 0.6], 3)
    assert q_hermiticity_condition([0.0, 0.0, 0.0, 0.0], 4)
    assert not q_hermiticity_condition([1e-3, 0.0, 0.0, 0.0], 4)
    assert q_hermiticity_condition([2.0, -1.0], 2)          # always for a pair


@seed(104)
@settings(max_examples=30, deadline=None)
@given(_weights_array(3))
def test_hermiticity_defect_tracks_triple_prefactors(u):
    register = SpinRegister(3)
    defect = hermiticity_defect(register, u)
    prefactor = abs(u[0] - u[1] + u[2])
    if prefactor < 1e-12:
        assert defect < HERM_ATOL
    else:
        assert defect > prefactor * 1e-3


def test_triple_prefactors_four_sites():
    pre = triple_prefactors([1.0, 2.0, 4.0, 8.0])
    # one entry per (i<j<k): u_i - u_j + u_k
    assert sorted(np.round(pre, 12)) == [3.0, 5.0, 6.0, 7.0]


# --- spectra and labels ------------------------------------------------

def test_three_site_spectrum_at_zero_weights():
    spec = q_spectrum(SpinRegister(3))
    assert [(round(v, 10), k) for v, k in spec.multiplicities()] == [
        (-2.25, 2), (-1.0, 4), (-0.25, 2)]


def test_four_site_spectrum_at_zero_weights():
    spec = q_spectrum(SpinRegister(4))
    assert [(round(v, 10), k) for v, k in spec.multiplicities()] == [
        (-5.5, 3), (-3.0, 1), (-2.5, 5), (-1.0, 1), (-0.5, 6)]


def test_spectrum_rejects_nonhermitian_weights():
    with pytest.raises(ConfigError):
        q_spectrum(SpinRegister(4), [0.3, 0.0, 0.0, 0.0])


@seed(105)
@settings(max_examples=25, deadline=None)
@given(WEIGHTS, WEIGHTS)
def test_joint_labels_on_hermitian_plane(u1, u2):
    # three-site Hermitian slice: u3 = u2 - u1
    u = np.array([u1, u2, u2 - u1])
    register = SpinRegister(3)
    q_op = build_q(register, u)
    for state in q_joint_labels(register, u):
        residual = np.linalg.norm(q_op @ state.vector - state.q * state.vector)
        assert residual < 1e-9 * max(1.0, abs(state.q))


# --- action matrices ----------------------------------------------------

@seed(106)
@settings(max_examples=25, deadline=None)
@given(_weights_array(3))
def test_three_site_action_blocks_match_numeric(u):
    register = SpinRegister(3)
    blocks = action_blocks(3, u)
    scale = max(1.0, float(np.max(np.abs(u))) ** 2)
    for m in (-0.5, 0.5):
        numeric = numeric_action_block(register, u, 0.5, m)
        assert np.max(np.abs(numeric - blocks["doublet"])) < ACTION_ATOL * scale
    quartet = numeric_action_block(register, u, 1.5, -1.5)
    assert np.max(np.abs(quartet - blocks["quartet"])) < ACTION_ATOL * scale


@seed(107)
@settings(max_examples=25, deadline=None)
@given(_weights_array(4))
def test_four_site_action_blocks_match_numeric(u):
    register = SpinRegister(4)
    blocks = action_blocks(4, u)
    scale = max(1.0, float(np.max(np.abs(u))) ** 2)
    for m in (-1.0, 0.0, 1.0):
        numeric = numeric_action_block(register, u, 1.0, m)
        assert np.max(np.abs(numeric - blocks["triplet"])) < ACTION_ATOL * scale
    singlet = numeric_action_block(register, u, 0.0, 0.0)
    assert np.max(np.abs(singlet - blocks["singlet"])) < ACTION_ATOL * scale
    quintet = numeric_action_block(register, u, 2.0, 2.0)
    assert np.max(np.abs(quintet - blocks["quintet"])) < ACTION_ATOL * scale


def test_action_block_needs_an_exact_projection():
    with pytest.raises(ConfigError):
        numeric_action_block(SpinRegister(4), np.zeros(4), 1.0, 0.2)


def test_action_block_zero_weights_doublet():
    blocks = action_blocks(3, np.zeros(3))
    target = np.array([[-1.75, -np.sqrt(3) / 2], [-np.sqrt(3) / 2, -0.75]])
    assert np.max(np.abs(blocks["doublet"] - target)) < 1e-14


def test_verbatim_mode_coincides_at_zero_weights():
    for n_sites in (3, 4):
        gaps = verbatim_action_discrepancies(n_sites, np.zeros(n_sites))
        assert max(gaps.values()) < 1e-14


def test_verbatim_mode_differs_off_diagonally():
    gaps = verbatim_action_discrepancies(3, [0.7, 0.2, -0.4])
    assert gaps["doublet"] > 1e-3      # transposed coupling reading
    assert gaps["quartet"] < 1e-14     # diagonal entries agree


def test_level_zero_does_not_depend_on_weights_shift():
    register = SpinRegister(3)
    y0 = build_yangian(register, [0.0, 0.0, 0.0])
    y1 = build_yangian(register, [1.0, 1.0, 1.0])
    shift = y1.z - y0.z
    from spincluster.operators import total_spin
    assert np.max(np.abs(shift - total_spin(register).z)) < 1e-14
