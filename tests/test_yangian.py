"""Checks for the weighted charge construction and its closed forms.

The expensive ground truths here are the expanded polynomial forms of
the invariant and the per-sector action matrices; both are compared
against the direct operator construction over randomized weight
vectors.
"""

import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spincluster import cli, yangian
from spincluster.errors import ConfigError
from spincluster.multiplets import LabeledState, branch_columns, projections, sectors
from spincluster.operators import (
    HERMITICITY_ATOL,
    SpinRegister,
    commutator,
    cross,
    fix_phase,
    hermitian,
    hermitian_eig,
    hermiticity_defect,
    multiplicities,
    pair_dot,
    site_spin,
    total_spin,
)
from spincluster.yangian import (
    ACTION_ATOL,
    EXPANSION_ATOL,
    LEVEL_ZERO_ATOL,
    action_blocks,
    build_q,
    build_yangian,
    check_yangian_axioms,
    expanded_q,
    hermitian_q,
    numeric_action_block,
    q_hermiticity_condition,
    q_sector_spectra,
    triple_prefactors,
)

WEIGHTS = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)


def _weights_array(n):
    return arrays(np.float64, (n,), elements=WEIGHTS)


def q_joint_labels(register, weights):
    """Simultaneous eigenbasis of {S^2, S_z, Q} with (S, m, q) labels: each
    sector's values and flags from :func:`q_sector_spectra`, its
    eigenvectors from ``eigh`` of the Hermitian part of the same gated block
    at m = -S, laddered to every m over the branch columns and phase-fixed.  States that share a degeneracy
    group span an arbitrary orthonormal choice, the same one at every m."""
    spectra = q_sector_spectra(register, weights)
    q_op = hermitian_q(register, weights)
    out = []
    for S, values, degenerate in spectra:
        cols = branch_columns(register, S, -S)
        block = hermitian(cols.conj().T @ q_op @ cols)
        _, vectors = np.linalg.eigh((block + block.conj().T) / 2)
        for m in projections(S):
            states = fix_phase(branch_columns(register, S, m) @ vectors)
            out.extend(LabeledState(S, m, float(q), states[:, idx], degenerate=flag)
                       for idx, (q, flag) in enumerate(zip(values, degenerate)))
    return out


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
    defect, _ = hermiticity_defect(build_q(SpinRegister(3), u))
    prefactor = abs(u[0] - u[1] + u[2])
    if prefactor < 1e-12:
        assert defect < HERMITICITY_ATOL
    else:
        assert defect > prefactor * 1e-3


def test_triple_prefactors_four_sites():
    pre = triple_prefactors([1.0, 2.0, 4.0, 8.0])
    # one entry per (i<j<k): u_i - u_j + u_k
    assert sorted(np.round(pre, 12)) == [3.0, 5.0, 6.0, 7.0]


# --- spectra and labels ------------------------------------------------

def _full_spectrum(n_sites):
    values = hermitian_eig(hermitian_q(SpinRegister(n_sites), np.zeros(n_sites)))
    return [(round(v, 10), k) for v, k in multiplicities(values)]


def test_three_site_spectrum_at_zero_weights():
    assert _full_spectrum(3) == [(-2.25, 2), (-1.0, 4), (-0.25, 2)]


def test_four_site_spectrum_at_zero_weights():
    assert _full_spectrum(4) == [(-5.5, 3), (-3.0, 1), (-2.5, 5), (-1.0, 1), (-0.5, 6)]


def test_spectrum_rejects_nonhermitian_weights():
    with pytest.raises(ConfigError):
        hermitian_q(SpinRegister(4), [0.3, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("weights", [[0.3, 0.3, 5e-11], [1e-11, 0.0, 0.0, 0.0]])
def test_one_gate_rejects_nonhermitian_weights(weights):
    register = SpinRegister(len(weights))
    messages = set()
    for call in (hermitian_q, q_joint_labels):
        with pytest.raises(ConfigError, match="triple prefactors") as info:
            call(register, weights)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_hermitian_q_is_build_q_on_the_hermitian_plane():
    register = SpinRegister(3)
    u = [0.4, 0.9, 0.5]
    assert np.array_equal(hermitian_q(register, u), build_q(register, u))


@pytest.mark.parametrize("n_sites, sectors", [(2, 2), (3, 2), (4, 3)])
def test_joint_labels_diagonalize_each_spin_sector_once(monkeypatch, n_sites,
                                                        sectors):
    calls = {"build_q": 0, "hermitian_eig": 0}

    def counted(name):
        original = getattr(yangian, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(yangian, name, counted(name))
    q_sector_spectra(SpinRegister(n_sites), np.zeros(n_sites))
    assert calls == {"build_q": 1, "hermitian_eig": sectors}


@pytest.mark.parametrize("n_sites, weights", [
    (4, [0.0, 0.0, 0.0, 0.0]),      # q = -1/2 is doubly degenerate at S = 1
    (3, [0.0, 0.0, 0.0]),
    (3, [0.7, 0.2, -0.5]),          # Hermitian plane u3 = u2 - u1
    (3, [-1.3, 0.4, 1.7]),
])
def test_joint_labels_form_ladder_consistent_multiplets(n_sites, weights):
    register = SpinRegister(n_sites)
    spin = total_spin(register)
    raising = spin.x + 1j * spin.y
    states = {}
    for state in q_joint_labels(register, weights):
        states.setdefault((state.S, state.m), []).append(state)
    for (S, m), row in states.items():
        if m == S:
            continue
        above = states[S, m + 1]
        for k, state in enumerate(row):
            raised = raising @ state.vector
            raised /= np.linalg.norm(raised)
            overlap = abs(np.vdot(above[k].vector, raised))
            assert overlap >= 1 - 1e-12
            assert above[k].q == state.q


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


def test_action_block_needs_a_spin_the_register_has():
    with pytest.raises(ConfigError, match=r"no S = 3\.0 multiplet"):
        numeric_action_block(SpinRegister(4), np.zeros(4), 3.0, 0.0)


def test_action_block_zero_weights_doublet():
    blocks = action_blocks(3, np.zeros(3))
    target = np.array([[-1.75, -np.sqrt(3) / 2], [-np.sqrt(3) / 2, -0.75]])
    assert np.max(np.abs(blocks["doublet"] - target)) < 1e-14


def _verbatim_gaps(n_sites, weights):
    """Entrywise max |derived - paper_verbatim| per sector."""
    derived = action_blocks(n_sites, weights)
    verbatim = action_blocks(n_sites, weights, mode="paper_verbatim")
    return {name: np.max(np.abs(block - verbatim[name]))
            for name, block in derived.items()}


def test_verbatim_mode_coincides_at_zero_weights():
    for n_sites in (3, 4):
        gaps = _verbatim_gaps(n_sites, np.zeros(n_sites))
        assert max(gaps.values()) < 1e-14


def test_verbatim_mode_differs_off_diagonally():
    gaps = _verbatim_gaps(3, [0.7, 0.2, -0.4])
    assert gaps["doublet"] > 1e-3      # transposed coupling reading
    assert gaps["quartet"] < 1e-14     # diagonal entries agree


# --- weight-independent products, built once -----------------------------

def _yangian_oracle(register, u):
    """Y with its cross terms built per call: the reference for the shared
    cross table, which must give the same bits."""
    spins = [site_spin(register, k) for k in range(register.n_sites)]
    crosses = [cross(spins[i], spins[j]) for i in range(register.n_sites)
               for j in range(i + 1, register.n_sites)]
    comps = []
    for axis in range(3):
        term = sum(u[k] * spins[k][axis] for k in range(register.n_sites))
        for pair in crosses:
            term = term + 1j * pair[axis]
        comps.append(term)
    return comps


def _level_zero_oracle(y, total):
    """The level-zero residual as one commutator per (a, b) pair."""
    eps = yangian._EPS
    worst = 0.0
    for a in range(3):
        for b in range(3):
            want_i = sum(1j * eps[a, b, c] * total[c] for c in range(3))
            want_y = sum(1j * eps[a, b, c] * y[c] for c in range(3))
            worst = max(worst, float(np.max(np.abs(
                commutator(total[a], total[b]) - want_i))))
            worst = max(worst, float(np.max(np.abs(
                commutator(total[a], y[b]) - want_y))))
    return worst


@seed(108)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_shared_products_are_read_only_and_bit_equal(n_sites, data):
    register = SpinRegister(n_sites)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            dot = pair_dot(register, i, j)
            assert dot is pair_dot(SpinRegister(n_sites), i, j)
            assert np.array_equal(dot, site_spin(register, i).dot(site_spin(register, j)))
            with pytest.raises(ValueError):
                dot[0, 0] = 1.0
    with pytest.raises(ValueError):
        yangian._pair_crosses(register)[0, 0, 0, 0] = 1.0
    for S in sectors(register):
        for m in projections(S):
            with pytest.raises(ValueError):
                branch_columns(register, S, m)[0, 0] = 1.0
    u = data.draw(_weights_array(n_sites))
    for got, want in zip(build_yangian(register, u), _yangian_oracle(register, u)):
        assert np.array_equal(got, want)


@seed(109)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_batched_level_zero_residual_is_the_pairwise_one(n_sites, data):
    register = SpinRegister(n_sites)
    y = build_yangian(register, data.draw(_weights_array(n_sites)))
    total = total_spin(register)
    assert yangian._level_zero_residual(y, total) == _level_zero_oracle(y, total)


_HERMITIAN_WEIGHTS = st.one_of(
    _weights_array(2),
    st.tuples(WEIGHTS, WEIGHTS).map(lambda p: np.array([p[0], p[1], p[1] - p[0]])),
    st.just(np.zeros(4)),
)


@seed(110)
@settings(max_examples=30, deadline=None)
@given(_HERMITIAN_WEIGHTS)
def test_q_spectrum_states_are_the_laddered_labels(u):
    register = SpinRegister(len(u))
    text = "".join(cli._cmd_q_spectrum({"sites": len(u), "weights": u.tolist()}))
    rows = [(state.S, state.m, state.q.hex(), state.degenerate)
            for state in q_joint_labels(register, u)]
    printed = [(state["S"], state["m"], state["q"].hex(), state["degenerate"])
               for state in json.loads(text)["states"]]
    assert printed == rows


def test_level_zero_does_not_depend_on_weights_shift():
    register = SpinRegister(3)
    y0 = build_yangian(register, [0.0, 0.0, 0.0])
    y1 = build_yangian(register, [1.0, 1.0, 1.0])
    shift = y1.z - y0.z
    from spincluster.operators import total_spin
    assert np.max(np.abs(shift - total_spin(register).z)) < 1e-14
