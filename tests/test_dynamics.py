"""Rate model, reduction coefficients, integrator, and level structure.

Slow-ish integrations are kept to a few ten-thousand steps; the million
step endurance run lives in the acceptance suite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster import dynamics
from spincluster.dynamics import (
    COEFF_MODES,
    DETAILED_BALANCE_RTOL,
    FIELD_KINDS,
    LEVEL_PAIRS,
    LZS_MODES,
    POPULATION_WINDOW,
    FieldProfile,
    RateParams,
    RateCoefficients,
    Trajectory,
    boltzmann_populations,
    coupled_levels_report,
    coupled_spin1_hamiltonian,
    enclosed_area,
    integrate_magnetization,
    level_transition_rates,
    lzs_eigenvectors,
    lzs_three_level,
    rate_matrix_coefficients,
    transition_rate,
)
from spincluster.errors import ConfigError, NumericalCheckError
from spincluster.operators import VectorOperator, cross_component, spin_matrices
from test_table import assert_same_text, csv_text

RATE = st.floats(min_value=0.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False)
GAP = st.floats(min_value=-25.0, max_value=25.0,
                allow_nan=False, allow_infinity=False)


# --- one-phonon rate ----------------------------------------------------

def test_rate_reference_values():
    assert transition_rate(1.0, 1.0, 0.0) == 0.0
    assert transition_rate(1.0, 1.0, 1.0) == pytest.approx(1.5819767068693265)
    assert transition_rate(1.0, 1.0, -1.0) == pytest.approx(0.5819767068693265)


def test_rate_validates_parameters():
    with pytest.raises(ConfigError):
        transition_rate(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        transition_rate(1.0, -2.0, 1.0)


@seed(501)
@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=5.0),
       GAP.filter(lambda d: abs(d) > 1e-8))
def test_detailed_balance(A, inv_temp, delta):
    forward = transition_rate(A, inv_temp, delta)
    backward = transition_rate(A, inv_temp, -delta)
    assert forward >= 0.0 and backward >= 0.0
    ratio = forward / backward
    assert abs(ratio / math.exp(inv_temp * delta) - 1.0) < DETAILED_BALANCE_RTOL


def test_rate_deep_underflow_is_zero():
    assert transition_rate(1.0, 1.0, -800.0) == 0.0


def test_rate_where_the_exponent_underflows_is_its_limit():
    # inv_temp * delta rounds to 0 while delta does not: the rate is its
    # limit A * delta^2 / inv_temp, where 0/0 used to give NaN
    assert transition_rate(2.0, 0.3, 5e-324) == 0.0
    for delta in (1e-30, -1e-30):
        assert transition_rate(2.0, 1e-300, delta) == pytest.approx(
            2e240, rel=1e-15, abs=0.0)
    # a ramp through B = 0 with a subnormal gap: the scale there is 5e-324
    profile = FieldProfile(kind="linear_ramp", amplitude=0.5, t_end=2.0)
    traj = integrate_magnetization(RateParams(A=0.1, inv_temp=0.3,
                                              delta_gap=5e-324), profile,
                                   n_steps=10, lzs_mode="adiabatic")
    assert traj.B[5] == 0.0 and np.all(np.isfinite(traj.n))


# zero, both signs, tiny, ordinary, large, and both sides of the
# exp-underflow cut (inv_temp * delta = -700)
EDGE_DELTAS = [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 2.0, -2.0, 25.0,
               -25.0, -699.9, -700.1, -800.0, 1e3]


def test_rate_on_arrays_matches_scalar_calls():
    deltas = np.array(EDGE_DELTAS)
    rates = transition_rate(1.3, 1.0, deltas)
    scalars = [transition_rate(1.3, 1.0, d) for d in EDGE_DELTAS]
    assert all(type(w) is float for w in scalars)
    assert rates.tolist() == scalars
    assert transition_rate(1.3, 1.0, deltas.reshape(2, 7)).shape == (2, 7)
    # the math-module formula the rate had before it took arrays
    for delta, got in zip(EDGE_DELTAS, scalars):
        if delta == 0.0 or delta < -700.0:
            assert got == 0.0
        else:
            want = -1.3 * delta * delta * delta / math.expm1(-delta)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)


# --- reduction coefficients ---------------------------------------------

def test_equal_rates_coefficients():
    w = {pair: 0.7 for pair in LEVEL_PAIRS}
    c = rate_matrix_coefficients(w)
    assert c.C1 == pytest.approx(-2.1)
    assert c.C2 == 0.0 and c.C3 == 0.0 and c.E == 0.0
    assert c.C4 == pytest.approx(-2.1)
    assert c.F == pytest.approx(0.7)


def test_zero_rates_zero_coefficients():
    w = {pair: 0.0 for pair in LEVEL_PAIRS}
    assert all(v == 0.0 for v in rate_matrix_coefficients(w))


@pytest.mark.parametrize("mode", COEFF_MODES)
def test_coefficients_on_arrays_match_scalar_calls(mode):
    params = RateParams(A=0.7, inv_temp=1.0)
    scales = np.array(EDGE_DELTAS)   # 2 * -400 also passes the cut
    scales = np.append(scales, [400.0, -400.0])
    arrays = rate_matrix_coefficients(
        level_transition_rates(scales, params), mode)
    for k, scale in enumerate(scales.tolist()):
        scalar = rate_matrix_coefficients(
            level_transition_rates(scale, params), mode)
        assert all(type(c) is float for c in scalar)
        assert tuple(c[k] for c in arrays) == scalar


def test_coefficients_validate_input():
    with pytest.raises(ConfigError):
        rate_matrix_coefficients({("+", "0"): 1.0})
    bad = {pair: 1.0 for pair in LEVEL_PAIRS}
    bad[("0", "-")] = -0.5
    with pytest.raises(ConfigError):
        rate_matrix_coefficients(bad)
    with pytest.raises(ConfigError):
        rate_matrix_coefficients({pair: 1.0 for pair in LEVEL_PAIRS},
                                 mode="guessed")


def test_nan_rate_is_a_config_error():
    for pair in LEVEL_PAIRS:
        rates = {other: 1.0 for other in LEVEL_PAIRS}
        rates[pair] = np.nan
        with pytest.raises(ConfigError, match="negative transition rate"):
            rate_matrix_coefficients(rates)


@pytest.mark.parametrize("init", [(np.nan, 0.0), (0.0, np.nan)])
def test_nan_explicit_init_is_a_config_error(init):
    with pytest.raises(ConfigError, match="outside"):
        integrate_magnetization(RateParams(), FieldProfile(), init=init)


@seed(502)
@settings(max_examples=50, deadline=None)
@given(st.lists(RATE, min_size=6, max_size=6))
def test_printed_variant_differs_only_in_first_coefficient(rates):
    w = dict(zip(LEVEL_PAIRS, rates))
    derived = rate_matrix_coefficients(w, "derived")._asdict()
    verbatim = rate_matrix_coefficients(w, "paper_verbatim")._asdict()
    assert verbatim["C1"] - derived["C1"] == pytest.approx(w[("+", "0")], abs=1e-13)
    for name in RateCoefficients._fields[1:]:
        assert verbatim[name] == derived[name]


@seed(503)
@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_boltzmann_is_stationary_for_derived_reduction(B, A, inv_temp):
    params = RateParams(A=A, inv_temp=inv_temp)
    w = level_transition_rates(params.gamma * B, params)
    c = rate_matrix_coefficients(w)
    p_plus, p_zero, p_minus = boltzmann_populations(params.gamma * B, inv_temp)
    x = p_plus - p_minus
    assert abs(c.C1 * x + c.C2 * p_zero + c.E) < 1e-10
    assert abs(c.C3 * x + c.C4 * p_zero + c.F) < 1e-10


def test_equilibrium_population_values():
    assert tuple(boltzmann_populations(0.0, 1.0)) == pytest.approx((1 / 3,) * 3)
    pops = tuple(boltzmann_populations(1.0, 1.0))
    assert pops == pytest.approx((0.09003057, 0.24472847, 0.66524096), abs=1e-7)
    cold = boltzmann_populations(1.0, 200.0)
    assert cold[2] == pytest.approx(1.0, abs=1e-10)


# --- integrator ----------------------------------------------------------

def test_constant_field_relaxes_to_equilibrium():
    params = RateParams()
    profile = FieldProfile(kind="constant", amplitude=1.5, t_end=40.0)
    traj = integrate_magnetization(params, profile, init="polarized_up",
                                   n_steps=4000)
    boltzmann = boltzmann_populations(params.gamma * 1.5, params.inv_temp)
    p_plus, _, p_minus = boltzmann
    assert traj.M_norm[-1] == pytest.approx(-(p_plus - p_minus), abs=1e-6)
    assert [pop[-1] for pop in traj.populations()] == pytest.approx(boltzmann, abs=1e-6)
    assert traj.population_defect() <= 1e-7


def test_zero_field_is_frozen_without_gap():
    profile = FieldProfile(kind="constant", amplitude=0.0, t_end=5.0)
    traj = integrate_magnetization(RateParams(), profile,
                                   init="polarized_up", n_steps=100)
    assert np.all(traj.M_norm == -1.0)


def test_zero_field_with_gap_relaxes_but_reads_zero():
    profile = FieldProfile(kind="constant", amplitude=0.0, t_end=30.0)
    traj = integrate_magnetization(RateParams(delta_gap=0.5), profile,
                                   init="polarized_up", n_steps=2000,
                                   lzs_mode="adiabatic")
    assert np.max(np.abs(traj.M_norm)) == 0.0   # cos(beta) = 0 at B = 0
    assert traj.n[-1] > traj.n[0]               # populations do move


@pytest.mark.parametrize("lzs_mode", ["off", "adiabatic"])
def test_trajectory_arrays_are_shared_read_only(lzs_mode):
    # off: M_norm is n itself, so no column may change another in place
    profile = FieldProfile(kind="sinusoid", amplitude=2.0, t_end=5.0)
    traj = integrate_magnetization(RateParams(delta_gap=0.5), profile,
                                   n_steps=500, lzs_mode=lzs_mode)
    assert (traj.M_norm is traj.n) == (lzs_mode == "off")
    for name in ("t", "B", "M_norm", "rho00", "n"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 0.0


def test_integrator_validates_arguments():
    params, profile = RateParams(), FieldProfile()
    with pytest.raises(ConfigError):
        integrate_magnetization(params, profile, n_steps=5)
    with pytest.raises(ConfigError):
        integrate_magnetization(params, profile, lzs_mode="sideways")
    with pytest.raises(ConfigError):
        integrate_magnetization(params, profile, coeff_mode="guessed")
    with pytest.raises(ConfigError):
        integrate_magnetization(params, profile, init="upside_down")
    with pytest.raises(ConfigError):
        integrate_magnetization(params, profile, init=(1.5, 0.9))


# the scan overflows inside the block that leaves the window; no
# RuntimeWarning may reach a library caller
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stiff_drive_fails_loudly_and_asks_for_steps():
    with pytest.raises(NumericalCheckError, match="n_steps"):
        integrate_magnetization(RateParams(), FieldProfile(), n_steps=3000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_scan_is_refused():
    # far too stiff for its steps and starting on its fixed point: the
    # composed step maps overflow, and the gate counts NaN as outside
    profile = FieldProfile(kind="constant", amplitude=100.0)
    with pytest.raises(NumericalCheckError,
                       match=r"\(nan, nan, nan\); increase n_steps"):
        integrate_magnetization(RateParams(), profile)


@pytest.mark.parametrize("amplitude", [1e200, -1e200])
def test_overflowing_rates_name_the_field(amplitude):
    profile = FieldProfile(kind="constant", amplitude=amplitude)
    for n_steps in (10, 100000):
        with pytest.raises(NumericalCheckError) as failure:
            integrate_magnetization(RateParams(), profile, n_steps=n_steps)
        assert str(failure.value) == (
            f"transition rates are not finite at B = {amplitude:.6g}")


# --- the block scan against the step loop it replaced ---------------------

def _sweep_coefficients(params, profile, n_steps, lzs_mode, coeff_mode):
    """h, the nodes, the field at them, and the rows (C1, ..., F) of the
    reduction at each node and half-node."""
    gamma, gap = params.gamma, params.delta_gap
    adiabatic = lzs_mode == "adiabatic"

    def coefficients(b):
        scale = np.hypot(gamma * b, gap) if adiabatic else gamma * b
        c = rate_matrix_coefficients(level_transition_rates(scale, params),
                                     coeff_mode)
        return np.column_stack(c)

    h = (profile.t_end - profile.t_start) / n_steps
    t_nodes = profile.t_start + h * np.arange(n_steps + 1)
    b_nodes = profile.field(t_nodes)
    return (h, t_nodes, b_nodes, coefficients(b_nodes),
            coefficients(profile.field(t_nodes[:-1] + 0.5 * h)))


def rk4_oracle(params, profile, init="equilibrium", n_steps=2000,
               lzs_mode="off", coeff_mode="derived"):
    """integrate_magnetization as the loop over RK4 steps it was before the
    block scan, gating every state, but with the state carried in
    np.longdouble (80-bit on x86): a float64 loop drifts by up to
    n_steps * 2**-53 where the increments are small against the state."""
    h, t_nodes, b_nodes, at_node, at_half = _sweep_coefficients(
        params, profile, n_steps, lzs_mode, coeff_mode)
    at_node, at_half = (c.astype(np.longdouble) for c in (at_node, at_half))
    h = np.longdouble(h)
    scale0 = (np.hypot(params.gamma * b_nodes[0], params.delta_gap)
              if lzs_mode == "adiabatic" else params.gamma * b_nodes[0])
    n_now, rho_now = (np.longdouble(v) for v in dynamics._initial_state(
        init, scale0, params))

    def derivative(c, n, rho00):
        c1, c2, c3, c4, e, f = c
        return c1 * n - c2 * rho00 - e, -c3 * n + c4 * rho00 + f

    n_out = np.empty(n_steps + 1, dtype=np.longdouble)
    rho_out = np.empty(n_steps + 1, dtype=np.longdouble)
    lo, hi = -POPULATION_WINDOW, 1.0 + POPULATION_WINDOW
    for i in range(n_steps + 1):
        n_out[i], rho_out[i] = n_now, rho_now
        plus = 0.5 * (1.0 - rho_now - n_now)
        minus = 0.5 * (1.0 - rho_now + n_now)
        if not (lo <= plus <= hi and lo <= rho_now <= hi and lo <= minus <= hi):
            raise NumericalCheckError(
                f"populations left [0, 1] (window {POPULATION_WINDOW}) at "
                f"t = {t_nodes[i]:.6g}: ({float(plus):.3e}, "
                f"{float(rho_now):.3e}, {float(minus):.3e}); increase n_steps")
        if i == n_steps:
            break
        k1n, k1r = derivative(at_node[i], n_now, rho_now)
        k2n, k2r = derivative(at_half[i], n_now + 0.5 * h * k1n,
                              rho_now + 0.5 * h * k1r)
        k3n, k3r = derivative(at_half[i], n_now + 0.5 * h * k2n,
                              rho_now + 0.5 * h * k2r)
        k4n, k4r = derivative(at_node[i + 1], n_now + h * k3n,
                              rho_now + h * k3r)
        n_now += (h / 6.0) * (k1n + 2.0 * (k2n + k3n) + k4n)
        rho_now += (h / 6.0) * (k1r + 2.0 * (k2r + k3r) + k4r)
    if lzs_mode == "adiabatic":
        zeeman = params.gamma * b_nodes
        omega = np.hypot(zeeman, params.delta_gap)
        cos_beta = np.where(omega > 0.0, zeeman / np.where(
            omega > 0.0, omega, 1.0), 0.0)
    else:
        cos_beta = 1.0
    return Trajectory(t=t_nodes, B=b_nodes, M_norm=cos_beta * n_out,
                      rho00=rho_out, n=n_out)


def steps_expand(params, profile, n_steps, lzs_mode, coeff_mode) -> bool:
    """Whether |R(h·lambda)| > 1 for the RK4 stability polynomial R at an
    eigenvalue lambda of the frozen reduced rate matrix at some node or
    half-node: a step that stiff, or a printed-variant fixed point outside
    the simplex, amplifies whatever rounding it is given."""
    h, _, _, at_node, at_half = _sweep_coefficients(
        params, profile, n_steps, lzs_mode, coeff_mode)
    c1, c2, c3, c4, _, _ = np.concatenate([at_node, at_half]).T
    matrices = np.stack([c1, -c2, -c3, c4], axis=1).reshape(-1, 2, 2)
    z = h * np.linalg.eigvals(matrices)
    stability = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return bool(np.max(np.abs(stability)) > 1.0)


SCAN_ATOL = 1e-13


def _explicit_init(rho00, tilt):
    """An (n0, rho00) pair inside the simplex."""
    return ((1.0 - rho00) * (2.0 * tilt - 1.0), rho00)


def _profile(kind, amplitude, angular_rate, t_start, duration):
    return FieldProfile(kind=kind, amplitude=amplitude,
                        angular_rate=angular_rate, t_start=t_start,
                        t_end=t_start + duration)


UNIT = st.floats(min_value=0.0, max_value=1.0)


def _outcome(integrate, *args, **options):
    """The trajectory, or the message of the NumericalCheckError raised."""
    try:
        return integrate(*args, **options)
    except NumericalCheckError as failure:
        return str(failure)


# n_steps on both sides of the _COEFF_BLOCK edges (4096 steps a block).
# Where no step expands, scan and loop must agree to SCAN_ATOL, or raise
# the same message.  Where a step expands, each amplifies its own rounding
# and neither has digits to compare (a state one keeps on a fixed point
# because every increment rounds away, the other can carry off), so either
# may refuse where the other returns; the scan keeps to its window.
@seed(506)
@settings(max_examples=80, deadline=None)
@given(st.builds(RateParams,
                 A=st.floats(min_value=0.01, max_value=3.0),
                 inv_temp=st.floats(min_value=0.05, max_value=5.0),
                 gamma=st.floats(min_value=-3.0, max_value=3.0),
                 delta_gap=st.floats(min_value=0.0, max_value=2.0)),
       st.builds(_profile, st.sampled_from(FIELD_KINDS),
                 st.floats(min_value=-10.0, max_value=10.0),
                 st.floats(min_value=0.1, max_value=3.0),
                 st.floats(min_value=-5.0, max_value=5.0),
                 st.floats(min_value=0.1, max_value=20.0)),
       st.one_of(st.sampled_from(["equilibrium", "polarized_up"]),
                 st.builds(_explicit_init, UNIT, UNIT)),
       st.sampled_from(LZS_MODES), st.sampled_from(COEFF_MODES),
       st.sampled_from([10, 4095, 4096, 4097, 8193]))
def test_block_scan_matches_step_loop(params, profile, init, lzs_mode,
                                      coeff_mode, n_steps):
    options = dict(init=init, n_steps=n_steps, lzs_mode=lzs_mode,
                   coeff_mode=coeff_mode)
    want = _outcome(rk4_oracle, params, profile, **options)
    got = _outcome(integrate_magnetization, params, profile, **options)
    if isinstance(got, Trajectory):
        assert got.population_defect() <= POPULATION_WINDOW
    if steps_expand(params, profile, n_steps, lzs_mode, coeff_mode):
        return
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert np.array_equal(got.t, want.t)
    assert np.array_equal(got.B, want.B)
    for name in ("n", "rho00", "M_norm"):
        gap = np.max(np.abs(getattr(got, name) - getattr(want, name)))
        assert gap <= SCAN_ATOL, name


def test_trajectory_csv_contract():
    profile = FieldProfile(kind="constant", amplitude=0.0, t_end=1.0)
    traj = integrate_magnetization(RateParams(), profile, n_steps=10)
    text = "".join(traj.to_csv())
    lines = text.splitlines()
    assert lines[0] == "t,B,M_norm,rho00,n"
    assert len(lines) == 12
    assert len(lines[1].split(",")) == 5


def test_explicit_init_is_respected():
    profile = FieldProfile(kind="constant", amplitude=0.0, t_end=1.0)
    traj = integrate_magnetization(RateParams(), profile, init=(0.25, 0.5),
                                   n_steps=10)
    assert traj.n[0] == 0.25 and traj.rho00[0] == 0.5


def test_bare_and_mixed_modes_agree_without_gap():
    # no level repulsion, no sign change of the field: the two ladders
    # are the same object, trajectories must match to the bit
    profile = FieldProfile(t_end=math.pi)
    params = RateParams(delta_gap=0.0)
    off = integrate_magnetization(params, profile, n_steps=30000)
    adi = integrate_magnetization(params, profile, n_steps=30000,
                                  lzs_mode="adiabatic")
    assert np.array_equal(off.M_norm[1:], adi.M_norm[1:])
    assert off.M_norm[0] == adi.M_norm[0] == 0.0


def test_small_gap_stays_close_away_from_crossings():
    profile = FieldProfile(t_end=math.pi)
    shared = (0.0, 1.0 / 3.0)
    off = integrate_magnetization(RateParams(delta_gap=0.0), profile,
                                  init=shared, n_steps=30000)
    adi = integrate_magnetization(RateParams(delta_gap=1e-5), profile,
                                  init=shared, n_steps=30000,
                                  lzs_mode="adiabatic")
    mask = np.abs(off.B) > 0.5
    assert np.max(np.abs(off.M_norm - adi.M_norm)[mask]) < 1e-8


def test_verbatim_coefficients_integrate_on_mild_drive():
    profile = FieldProfile(kind="constant", amplitude=0.4, t_end=30.0)
    derived = integrate_magnetization(RateParams(), profile,
                                      init="polarized_up", n_steps=3000)
    verbatim = integrate_magnetization(RateParams(), profile,
                                       init="polarized_up", n_steps=3000,
                                       coeff_mode="paper_verbatim")
    gap = np.max(np.abs(derived.M_norm - verbatim.M_norm))
    assert gap > 1e-3   # the printed C1 visibly changes the dynamics


def test_verbatim_coefficients_lose_positivity_on_strong_drive():
    # the printed C1's fixed point leaves the probability simplex once
    # the level splitting is large; the integrator must refuse
    profile = FieldProfile(kind="constant", amplitude=3.0, t_end=30.0)
    with pytest.raises(NumericalCheckError):
        integrate_magnetization(RateParams(), profile, init="equilibrium",
                                n_steps=3000, coeff_mode="paper_verbatim")


def test_rho00_mode_report_is_small_but_nonzero():
    # how much rho00 cares about the level mixing
    params, profile = RateParams(delta_gap=0.1), FieldProfile(t_end=math.pi)
    off, adiabatic = (integrate_magnetization(params, profile, n_steps=20000,
                                              lzs_mode=mode)
                      for mode in ("off", "adiabatic"))
    assert 0.0 < np.max(np.abs(off.rho00 - adiabatic.rho00)) < 0.05


# enclosed_area at 20k steps under both preset field profiles, recorded
# before the integrator took its coefficients from the vectorized
# reduction; a mild drive keeps paper_verbatim inside the simplex.
PINNED_AREAS = {
    ("fig4-loop", "derived"): 0.546888383808267,
    ("fig4-loop", "paper_verbatim"): 0.6642160558435579,
    ("fig5-lzs", "derived"): 0.1974146361784963,
    ("fig5-lzs", "paper_verbatim"): 0.24817394936552262,
}
PRESET_SWEEPS = {
    "fig4-loop": (FieldProfile(t_end=2.0 * math.pi), "off"),
    "fig5-lzs": (FieldProfile(t_end=math.pi), "adiabatic"),
}


@pytest.mark.parametrize("preset, mode", sorted(PINNED_AREAS))
def test_enclosed_area_is_pinned(preset, mode):
    profile, lzs_mode = PRESET_SWEEPS[preset]
    traj = integrate_magnetization(
        RateParams(A=0.1, inv_temp=0.1, delta_gap=0.1), profile,
        n_steps=20000, lzs_mode=lzs_mode, coeff_mode=mode)
    assert enclosed_area(traj) == pytest.approx(PINNED_AREAS[preset, mode],
                                                rel=1e-12, abs=0.0)


def test_enclosed_area_needs_samples():
    traj = Trajectory(t=np.array([0.0]), B=np.array([0.0]),
                      M_norm=np.array([0.0]), rho00=np.array([0.0]),
                      n=np.array([0.0]))
    with pytest.raises(ConfigError):
        enclosed_area(traj)


# --- three-level closed forms --------------------------------------------

def test_lzs_examples():
    _, beta, eigenvalues = lzs_three_level(0.0, 1.0)
    assert beta == pytest.approx(math.pi / 2)
    assert eigenvalues == pytest.approx([-1.0, 0.0, 1.0])
    _, beta, eigenvalues = lzs_three_level(3.0, 4.0)
    assert math.cos(beta) == pytest.approx(0.6)
    assert eigenvalues == pytest.approx([-5.0, 0.0, 5.0])
    _, beta, _ = lzs_three_level(10.0, 0.01)
    assert math.cos(beta) == pytest.approx(0.9999995, abs=1e-7)


def test_lzs_degenerate_angle_rejected():
    with pytest.raises(ConfigError):
        lzs_three_level(0.0, 0.0)


@seed(504)
@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0),
       st.floats(min_value=0.0, max_value=6.0))
def test_lzs_eigenvectors_diagonalize(B, delta_gap):
    if B == 0.0 and delta_gap == 0.0:
        return
    matrix, beta, eigenvalues = lzs_three_level(B, delta_gap)
    vectors = lzs_eigenvectors(beta)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(3))) < 1e-12
    residual = matrix @ vectors - vectors @ np.diag(eigenvalues)
    assert np.max(np.abs(residual)) < 1e-10


# --- coupled 9x9 model ----------------------------------------------------

# the report's real eigenvalues against complex eigh, per field point
LEVELS_RTOL = 1e-14


def complex_eigh_levels(b_grid, delta_gap, gamma):
    """Sorted 9x9 spectra by complex eigh, one field at a time, of the
    coupled Hamiltonian built from the complex spin-1 matrices."""
    single = spin_matrices(1.0)
    eye = np.eye(3)
    left = VectorOperator(*(np.kron(op, eye) for op in single))
    right = VectorOperator(*(np.kron(eye, op) for op in single))
    zeeman, cross = left.z + right.z, cross_component(left, right, 1)
    return np.array([np.linalg.eigh(gamma * b * zeeman + delta_gap * cross)[0]
                     for b in np.asarray(b_grid, dtype=float)])


def assert_levels_near_complex_eigh(numeric, want):
    scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
    assert np.all(np.max(np.abs(numeric - want), axis=1) <= LEVELS_RTOL * scale)


def test_coupled_hamiltonian_zeeman_limit():
    ham = coupled_spin1_hamiltonian(2.0, 0.0, 1.0)
    assert np.max(np.abs(ham - ham.conj().T)) == 0.0
    ladder = np.linalg.eigvalsh(ham)
    assert ladder == pytest.approx([-4, -2, -2, 0, 0, 0, 2, 2, 4])


def test_coupled_hamiltonian_pure_gap():
    ham = coupled_spin1_hamiltonian(0.0, 1.0)
    levels = np.linalg.eigvalsh(ham)
    expected = [-math.sqrt(2), -1, -1, 0, 0, 0, 1, 1, math.sqrt(2)]
    assert levels == pytest.approx(expected, abs=1e-12)


def _exchange_parity():
    """C = swap * exp(i pi S^z_tot), which maps |m1 m2> to (-1)^(m1 + m2)
    |m2 m1>; basis index 3 * i1 + i2 with m = 1 - i, so the sign is
    (-1)^(i1 + i2)."""
    swap = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
    return swap @ np.diag([(-1.0) ** (i1 + i2) for i1 in range(3) for i2 in range(3)])


@seed(1717)
@settings(max_examples=80, deadline=None)
@given(b=st.floats(-1e3, 1e3), delta_gap=st.floats(0.0, 1e2),
       gamma=st.floats(0.1, 3.0))
def test_exchange_odd_sector_is_the_three_level_block(b, delta_gap, gamma):
    # the {V6} -> {V8} analogy: the C = -1 sector of the coupled pair is the
    # avoided-crossing block, and the three zero levels split 1 + 2
    if gamma * b == 0.0 and delta_gap == 0.0:
        return
    ham = coupled_spin1_hamiltonian(b, delta_gap, gamma)
    parity = _exchange_parity()
    assert np.array_equal(parity @ ham, ham @ parity)
    signs, basis = np.linalg.eigh(parity)
    assert np.array_equal(np.round(signs), [-1.0] * 3 + [1.0] * 6)
    odd, even = basis[:, :3], basis[:, 3:]
    omega = lzs_three_level(gamma * b, delta_gap)[2]
    tol = 1e-12 * max(1.0, omega[-1])
    assert np.max(np.abs(np.linalg.eigvalsh(odd.T @ ham @ odd) - omega)) <= tol
    even_levels = np.sort(np.abs(np.linalg.eigvalsh(even.T @ ham @ even)))
    assert np.all(even_levels[:2] <= tol)


def test_levels_report_asserts_robust_pieces():
    report = coupled_levels_report(np.linspace(-3.0, 3.0, 50), 1.0)
    assert report.min_zero_count >= 3
    assert report.invariant_pair_max_dev < 1e-9


def test_levels_report_separates_the_two_radical_readings():
    # at unit gap the two readings coincide; away from it they split
    report = coupled_levels_report(np.linspace(-3.0, 3.0, 25), 2.0)
    assert report.corrected_max_dev.max() < 1e-9
    assert report.printed_max_dev.max() > 0.1
    strong = coupled_levels_report([10.0], 0.01)
    assert strong.corrected_max_dev.max() < 1e-10
    assert strong.printed_max_dev.max() > 0.1
    weak = coupled_levels_report(np.linspace(-0.5, 0.5, 21), 0.01)
    assert weak.printed_goes_imaginary
    assert weak.corrected_max_dev.max() < 1e-10


def test_levels_report_rejects_empty_grid():
    with pytest.raises(ConfigError):
        coupled_levels_report([], 1.0)


@pytest.mark.parametrize("grid, delta_gap, gamma", [
    ([0.0, math.nan], 0.1, 1.0),
    ([1.0], math.inf, 1.0),
    ([1.0], 0.1, -math.inf),
    ([-1e200, 1e200], 0.1, 1e200),  # gamma*B overflows
])
def test_levels_report_rejects_non_finite_input(grid, delta_gap, gamma):
    with pytest.raises(ConfigError, match="finite"):
        coupled_levels_report(grid, delta_gap, gamma)


def _closed_forms_reference(b, delta_gap, corrected):
    """The nine closed-form levels at one effective field b, point by point."""
    middle = 30.0 * b * b * (delta_gap * delta_gap if corrected else 1.0)
    radical = math.sqrt(9.0 * b ** 4 + middle + delta_gap ** 4)
    base = 5.0 * b * b + 3.0 * delta_gap * delta_gap
    ea = math.sqrt(max(0.5 * (base + radical), 0.0))
    eb = math.sqrt(max(0.5 * (base - radical), 0.0))
    inv = math.hypot(b, delta_gap)
    return np.sort([0.0, 0.0, 0.0, inv, -inv, ea, -ea, eb, -eb])


@pytest.mark.parametrize("grid, delta_gap, gamma", [
    (np.linspace(-3.0, 3.0, 23), 0.7, 1.3),
    (np.linspace(-2.0, 2.0, 9), 0.0, 1.0),
    ([0.4], 0.2, 1.0),
    (np.linspace(2.0, -1.0, 7), 0.05, 2.0),
    (np.linspace(-0.5, 0.5, 13), 0.01, 1.0),
])
def test_levels_report_matches_per_point_reference(monkeypatch, grid,
                                                   delta_gap, gamma):
    # blocks of 4 points, so most grids span several stacked eigvalsh calls
    monkeypatch.setattr(dynamics, "_FIELD_BLOCK", 4)
    report = coupled_levels_report(grid, delta_gap, gamma)
    b_grid = np.asarray(grid, dtype=float)
    printed = [_closed_forms_reference(gamma * b, delta_gap, False)
               for b in b_grid]
    corrected = [_closed_forms_reference(gamma * b, delta_gap, True)
                 for b in b_grid]
    assert np.array_equal(report.b_grid, b_grid)
    assert_levels_near_complex_eigh(
        report.numeric, complex_eigh_levels(b_grid, delta_gap, gamma))
    assert np.array_equal(report.printed, printed)
    assert np.array_equal(report.corrected, corrected)


@settings(max_examples=40, deadline=None)
@given(b_range=st.tuples(*[st.floats(-5.0, 5.0)] * 2), n_grid=st.integers(1, 700),
       delta_gap=st.floats(0.0, 2.0), gamma=st.floats(0.1, 3.0))
def test_levels_report_csv_equals_materialized_columns(b_range, n_grid,
                                                       delta_gap, gamma):
    # oracle: every column materialized, one B and one level index per row
    report = coupled_levels_report(np.linspace(*b_range, n_grid), delta_gap, gamma)
    text = "".join(report.to_csv())
    assert_same_text(text, csv_text("B,level,numeric,printed,corrected", (
        np.repeat(report.b_grid, 9), np.tile(np.arange(9.0), n_grid),
        report.numeric.ravel(), report.printed.ravel(), report.corrected.ravel())))


@pytest.mark.parametrize("bound, message", [
    ("LEVEL_ZERO_COUNT_ATOL",
     r"^only 0 zero eigenvalues at B = -2\.5 \(delta_gap = 0\.3\)$"),
    ("INVARIANT_LEVEL_ATOL",
     r"^level 2\.51794 missing from 9x9 spectrum at B = -2\.5: nearest is "),
])
def test_levels_report_gates_name_the_first_field(monkeypatch, bound,
                                                  message):
    monkeypatch.setattr(dynamics, "_FIELD_BLOCK", 4)
    monkeypatch.setattr(dynamics, bound, -1.0)
    with pytest.raises(NumericalCheckError, match=message):
        coupled_levels_report(np.linspace(-2.5, 2.5, 11), 0.3)


def test_levels_report_gate_fires_in_a_later_block(monkeypatch):
    # a solve that loses the three zero levels at B = 1e30 only, in the
    # second block of 4: they come out at 1e22, past 1e-9 * max |E| = 2e21
    solve = np.linalg.eigvalsh

    def lossy(stack):
        levels = solve(stack)
        lost = (stack[:, :1, 0] > 1e29) & (np.abs(levels) < 1e22)
        return np.where(lost, 1e22, levels)

    monkeypatch.setattr(np.linalg, "eigvalsh", lossy)
    monkeypatch.setattr(dynamics, "_FIELD_BLOCK", 4)
    with pytest.raises(NumericalCheckError, match=r"^only 0 zero eigenvalues "
                       r"at B = 1e\+30 \(delta_gap = 0\.2\)$"):
        coupled_levels_report([0.5, 1.0, 1.5, 2.0, 2.5, 1e30, 3.0], 0.2)


@pytest.mark.parametrize("value, text", [
    (np.float64("nan"), "nan"), (np.float64("inf"), "inf"), (-np.float64("inf"), "-inf")])
def test_rate_params_name_a_numpy_non_finite_value_plainly(value, text):
    for name in ("A", "inv_temp", "gamma", "delta_gap"):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {text}$"):
            RateParams(**{name: value})


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("t_start, t_end", [
    (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)), (-2e307, 1.7e308)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_field_profile_rejects_an_overflowing_span(kind, t_start, t_end):
    # each end is finite but the span is not: h would be inf and B(t) NaN
    with pytest.raises(ConfigError, match=r"^t_end - t_start must be finite$"):
        FieldProfile(kind=kind, t_start=t_start, t_end=t_end)


def test_rate_params_validation():
    with pytest.raises(ConfigError):
        RateParams(A=-1.0)
    with pytest.raises(ConfigError):
        RateParams(inv_temp=0.0)
    with pytest.raises(ConfigError):
        RateParams(delta_gap=-0.1)
    with pytest.raises(ConfigError):
        FieldProfile(t_start=1.0, t_end=0.0)
    with pytest.raises(ConfigError):
        FieldProfile(kind="sawtooth")
