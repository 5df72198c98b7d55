import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError
from spincluster.multiplets import invariant_eigenstates
from spincluster.observables import DEFAULT_G_FACTOR, local_moments
from spincluster.operators import SpinRegister

MOMENT_ATOL = 1e-12
R3 = SpinRegister(3)
R4 = SpinRegister(4)


def _state(register, S, m, q):
    for st_ in invariant_eigenstates(register):
        if st_.S == S and st_.m == m and abs(st_.q - q) < 1e-9:
            return st_.vector
    raise AssertionError("state not found")


def test_shared_b_triplet_moment_pattern():
    # two q=-1/2 states exist per m; the second carries the corner moments
    second = [st_ for st_ in invariant_eigenstates(R4)
              if st_.S == 1.0 and st_.m == -1.0 and abs(st_.q + 0.5) < 1e-9][1]
    mv = local_moments(R4, second.vector)
    assert np.max(np.abs(mv - np.array([0.9, 0.1, 0.1, 0.9]))) < MOMENT_ATOL
    assert mv.sum() == pytest.approx(2.0, abs=MOMENT_ATOL)


def test_three_site_doublet_moments():
    alpha = _state(R3, 0.5, -0.5, -0.25)
    beta = _state(R3, 0.5, -0.5, -2.25)
    mva = local_moments(R3, alpha)
    mvb = local_moments(R3, beta)
    assert np.max(np.abs(mva - np.array([2 / 3, -1 / 3, 2 / 3]))) < MOMENT_ATOL
    assert np.max(np.abs(mvb - np.array([0.0, 1.0, 0.0]))) < MOMENT_ATOL


def test_moment_scaling_with_g():
    beta = _state(R3, 0.5, -0.5, -2.25)
    mv = local_moments(R3, beta, g=3.0)
    assert mv[1] == pytest.approx(1.5, abs=MOMENT_ATOL)


@seed(401)
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_moment_sum_rule(n_sites, data):
    # total moment is -g * m for any collective eigenstate
    register = SpinRegister(n_sites)
    states = invariant_eigenstates(register)
    st_ = states[data.draw(st.integers(min_value=0, max_value=len(states) - 1))]
    mv = local_moments(register, st_.vector)
    assert mv.sum() == pytest.approx(-DEFAULT_G_FACTOR * st_.m, abs=MOMENT_ATOL)


def test_local_moments_input_validation():
    with pytest.raises(ConfigError, match="state norm 2.82843 ") as info:
        local_moments(R3, np.ones(8))          # not normalized
    assert "np.float64" not in str(info.value)
    with pytest.raises(ConfigError):
        local_moments(R3, np.zeros(16))        # wrong dimension


@pytest.mark.parametrize("check", [local_moments])
def test_nan_state_is_a_config_error(check):
    with pytest.raises(ConfigError, match="is not 1 within tolerance"):
        check(R4, np.full(16, np.nan))
