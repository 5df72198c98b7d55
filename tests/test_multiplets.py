import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError
from spincluster.multiplets import (
    _SEEDS,
    LEVELS,
    branch_columns,
    invariant_eigenstates,
    level_state,
    mixing_pair,
    projections,
    sectors,
)
from spincluster.operators import (
    SpinRegister,
    casimir,
    fix_phase,
    superposition,
    total_spin,
)

LABEL_ATOL = 1e-12


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_multiplet_table_is_complete_orthonormal(n_sites):
    register = SpinRegister(n_sites)
    basis = np.column_stack([branch_columns(register, S, m)
                             for S in sectors(register) for m in projections(S)])
    assert basis.shape == (register.dim, register.dim)
    gram = basis.conj().T @ basis
    assert np.max(np.abs(gram - np.eye(register.dim))) < 1e-10


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_members_carry_exact_labels(n_sites):
    register = SpinRegister(n_sites)
    s2 = casimir(register)
    sz = total_spin(register).z
    for S in sectors(register):
        for m in projections(S):
            for vec in branch_columns(register, S, m).T:
                assert np.linalg.norm(s2 @ vec - S * (S + 1) * vec) < LABEL_ATOL * 10
                assert np.linalg.norm(sz @ vec - m * vec) < LABEL_ATOL * 10


def test_branch_counts_match_spin_decomposition():
    # 2^3 = quartet + 2 doublets; 2^4 = quintet + 3 triplets + 2 singlets
    assert branch_columns(SpinRegister(3), 0.5, -0.5).shape[1] == 2
    assert branch_columns(SpinRegister(3), 1.5, -1.5).shape[1] == 1
    assert branch_columns(SpinRegister(4), 2.0, -2.0).shape[1] == 1
    assert branch_columns(SpinRegister(4), 1.0, -1.0).shape[1] == 3
    assert branch_columns(SpinRegister(4), 0.0, 0.0).shape[1] == 2
    assert sectors(SpinRegister(3)) == (1.5, 0.5)
    assert sectors(SpinRegister(4)) == (2.0, 1.0, 0.0)


def _ladder_up(register, seed, S):
    """The per-branch ladder: the reference for the block ladder of
    :func:`branch_columns`, which must give the same bits."""
    tot = total_spin(register)
    raising = tot.x + 1j * tot.y
    members = {-S: seed}
    vec, m = seed, -S
    while m < S - 0.5:
        amp = np.sqrt(S * (S + 1) - m * (m + 1))
        vec = raising @ vec / amp
        m += 1.0
        members[m] = vec
    return members


def _ladder_oracle(register, S):
    """m -> the spin-S branches' members, one ladder per branch."""
    ladders = [_ladder_up(register, superposition(register, terms), S)
               for spin, terms in _SEEDS[register.n_sites] if spin == S]
    return {m: [ladder[m] for ladder in ladders] for m in projections(S)}


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_branch_columns_are_the_per_branch_ladder(n_sites):
    register = SpinRegister(n_sites)
    for S in sectors(register):
        for m, members in _ladder_oracle(register, S).items():
            cols = branch_columns(register, S, m)
            assert np.array_equal(cols, np.column_stack(members))
            assert cols is branch_columns(SpinRegister(n_sites), S, m)
            with pytest.raises(ValueError):
                cols[0, 0] = 1.0


@pytest.mark.parametrize("n_sites", [3, 4])
def test_level_state_is_the_per_branch_sum(n_sites):
    register = SpinRegister(n_sites)
    for row in LEVELS[n_sites]:
        for m, members in _ladder_oracle(register, row.S).items():
            terms = [c * member for c, member in zip(row.state, members)]
            want = fix_phase(sum(terms[1:], terms[0]))
            assert np.array_equal(level_state(register, row.label, m), want)


@pytest.mark.parametrize("n_sites, S", [(2, 0.5), (3, 1.0), (4, 3.0), (4, -1.0)])
def test_branch_columns_reject_a_spin_the_register_lacks(n_sites, S):
    with pytest.raises(ConfigError,
                       match=rf"^no S = {S} multiplet in {n_sites} spins-1/2$"):
        branch_columns(SpinRegister(n_sites), S, -abs(S))


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
    with pytest.raises(ConfigError, match="not a valid projection for S = 1.0"):
        branch_columns(SpinRegister(4), 1.0, m)


def test_level_state_and_mixing_pair_check_their_inputs():
    with pytest.raises(ConfigError, match="^unknown level label 'bogus'$"):
        level_state(SpinRegister(3), "bogus", -0.5)
    with pytest.raises(ConfigError,
                       match="^mixing_pair is defined for the 4-site register$"):
        mixing_pair(SpinRegister(3), -1.0)


def test_no_closed_form_for_two_sites():
    with pytest.raises(ConfigError):
        invariant_eigenstates(SpinRegister(2))
