import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError
from spincluster.multiplets import (
    branches,
    invariant_eigenstates,
    mixing_pair,
    multiplet_table,
)
from spincluster.operators import SpinRegister, casimir, total_spin

LABEL_ATOL = 1e-12


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_multiplet_table_is_complete_orthonormal(n_sites):
    register = SpinRegister(n_sites)
    vectors = []
    for mult in multiplet_table(register):
        for m in np.arange(-mult.S, mult.S + 1):
            vectors.append(mult.member(m))
    basis = np.column_stack(vectors)
    assert basis.shape == (register.dim, register.dim)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(register.dim))) < 1e-10


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_members_carry_exact_labels(n_sites):
    register = SpinRegister(n_sites)
    s2 = casimir(register)
    sz = total_spin(register).z
    for mult in multiplet_table(register):
        for m in np.arange(-mult.S, mult.S + 1):
            vec = mult.member(m)
            assert np.linalg.norm(s2 @ vec - mult.S * (mult.S + 1) * vec) < LABEL_ATOL * 10
            assert np.linalg.norm(sz @ vec - m * vec) < LABEL_ATOL * 10


def test_branch_counts_match_spin_decomposition():
    # 2^3 = quartet + 2 doublets; 2^4 = quintet + 3 triplets + 2 singlets
    assert len(branches(SpinRegister(3), 0.5)) == 2
    assert len(branches(SpinRegister(3), 1.5)) == 1
    assert len(branches(SpinRegister(4), 2.0)) == 1
    assert len(branches(SpinRegister(4), 1.0)) == 3
    assert len(branches(SpinRegister(4), 0.0)) == 2


def test_invariant_states_are_orthonormal_and_labeled():
    for n_sites in (3, 4):
        register = SpinRegister(n_sites)
        states = invariant_eigenstates(register)
        assert len(states) == register.dim
        basis = np.column_stack([st_.vector for st_ in states])
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(register.dim))) < 1e-10


def test_three_site_invariant_values():
    states = invariant_eigenstates(SpinRegister(3))
    values = sorted({round(st_.q, 10) for st_ in states})
    assert values == [-2.25, -1.0, -0.25]


def test_four_site_invariant_values_and_degeneracy_flags():
    states = invariant_eigenstates(SpinRegister(4))
    values = sorted({round(st_.q, 10) for st_ in states})
    assert values == [-5.5, -3.0, -2.5, -1.0, -0.5]
    for st_ in states:
        assert st_.degenerate == (abs(st_.q + 0.5) < 1e-9 and st_.S == 1.0)


@seed(99)
@settings(max_examples=12, deadline=None)
@given(st.sampled_from([-1.0, 0.0, 1.0]))
def test_mixing_pair_spans_degenerate_invariant_block(m):
    from spincluster.yangian import build_q

    register = SpinRegister(4)
    first, second = mixing_pair(register, m)
    assert abs(np.vdot(first, second)) < 1e-12
    q_op = build_q(register, np.zeros(4))
    for vec in (first, second):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert np.linalg.norm(q_op @ vec + 0.5 * vec) < 1e-10


@pytest.mark.parametrize("m", [0.25, 0.5, -2.0, float("nan")])
def test_member_looks_m_up_exactly(m):
    triplet = branches(SpinRegister(4), 1.0)[0]
    with pytest.raises(ConfigError, match="not a valid projection for S = 1.0"):
        triplet.member(m)


def test_no_closed_form_for_two_sites():
    with pytest.raises(ConfigError):
        invariant_eigenstates(SpinRegister(2))
