"""Acceptance gate: twelve numbered criteria, one test per criterion.

Each test finishes by printing a single PASS line with the measured
quantities (visible under ``pytest -s`` or in the captured output of a
failure).  Assertions use the tolerances stated in the criterion; a
failing criterion fails its test — nothing here is softened.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spincluster import dynamics, multiplets, observables, spectra, symmetry, yangian
from spincluster.operators import (SpinRegister, degeneracy_groups, hermitian,
                                   multiplicities)

R2 = SpinRegister(2)
R3 = SpinRegister(3)
R4 = SpinRegister(4)

POPCOUNT = np.array([bin(b).count("1") for b in range(16)])


def _q_spectrum(register):
    """Q at zero weights, diagonalized over the whole space: the eigenvalues
    and eigenvectors of the Hermitian part of the gated matrix."""
    q = hermitian(yangian.hermitian_q(register, np.zeros(register.n_sites)))
    return np.linalg.eigh((q + q.conj().T) / 2)


def _invariant_overlap_floor(register) -> float:
    """Smallest projection of any closed-form invariant state onto the
    numerically matching eigenspace of the invariant operator."""
    values, vectors = _q_spectrum(register)
    floor = 1.0
    for state in multiplets.invariant_eigenstates(register):
        hit = [g for g in degeneracy_groups(values)
               if abs(np.mean(values[g]) - state.q) < 1e-8]
        assert len(hit) == 1
        block = vectors[:, hit[0]]
        overlap = float(np.linalg.norm(block.conj().T @ state.vector) ** 2)
        floor = min(floor, overlap)
    return floor


def test_criterion_01_three_site_invariant_spectrum():
    t0 = time.perf_counter()
    groups = sorted(multiplicities(_q_spectrum(R3)[0]))
    values = [value for value, _ in groups]
    counts = [count for _, count in groups]
    assert values == pytest.approx([-2.25, -1.0, -0.25], abs=1e-10)
    assert counts == [2, 4, 2]
    floor = _invariant_overlap_floor(R3)
    assert floor > 1.0 - 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 01] PASS — eigenvalue groups {groups}, "
          f"min eigenspace overlap {floor:.15f}, wall {elapsed:.3f} s")


def test_criterion_02_four_site_invariant_spectrum():
    groups = sorted(multiplicities(_q_spectrum(R4)[0]))
    values = [value for value, _ in groups]
    counts = [count for _, count in groups]
    assert values == pytest.approx([-5.5, -3.0, -2.5, -1.0, -0.5], abs=1e-10)
    assert counts == [3, 1, 5, 1, 6]
    floor = _invariant_overlap_floor(R4)
    assert floor > 1.0 - 1e-10
    print(f"[criterion 02] PASS — eigenvalue groups {groups}, "
          f"min eigenspace overlap {floor:.15f}")


def test_criterion_03_commuting_coupling_families():
    fam3 = symmetry.commutant_family(R3, yangian.build_q(R3, [0.0] * 3))
    assert fam3.dimension == 2
    plane = max(abs(b.a[(1, 2)] - b.a[(2, 3)]) for b in fam3.basis)
    assert plane < 1e-10
    triangle = symmetry.constrained_couplings_triangle(65.0, 7.0)
    res3 = symmetry.family_projection_residual(fam3, triangle)
    assert res3 < 1e-9

    fam4 = symmetry.commutant_family(R4, yangian.build_q(R4, [0.0] * 4))
    assert fam4.dimension == 3
    member = symmetry.constrained_couplings_parallelogram(1.0, 1.0, 2.0)
    res4 = symmetry.family_projection_residual(fam4, member)
    assert res4 < 1e-9
    defect = symmetry.commutator_defect(R4, yangian.build_q(R4, [0.0] * 4), member)
    assert defect < 1e-9
    print(f"[criterion 03] PASS — dimensions (2, 3), isosceles plane defect "
          f"{plane:.2e}, membership residuals ({res3:.2e}, {res4:.2e}), "
          f"commutator defect {defect:.2e}")


def test_criterion_04_mixing_angle_relation():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    produced = 0
    while produced < 50:
        p, q = rng.uniform(-2.0, 2.0, size=2)
        theta = rng.uniform(-1.5, 1.5)
        if abs(p - q) < 1e-3 or abs(theta) < 5e-2:
            continue
        g = -2.0 * (p - q) * (1.5 - math.cos(theta)) / math.sin(theta)
        r = (3.0 * g + 2.0 * p + 6.0 * q) / 8.0
        member = symmetry.constrained_couplings_parallelogram(p, q, r)
        residual = symmetry.mixing_relation_residual(member, theta)
        assert residual < 1e-9
        extracted = symmetry.extract_mixing_theta(R4, member)
        residual_x = symmetry.mixing_relation_residual(member, extracted)
        assert residual_x < 1e-9
        worst = max(worst, residual, residual_x)
        produced += 1
    symmetric = symmetry.constrained_couplings_parallelogram(1.3, 1.3, -0.7)
    theta0 = symmetry.extract_mixing_theta(R4, symmetric)
    assert abs(theta0) < 1e-9
    print(f"[criterion 04] PASS — 50 constructed members, worst relation "
          f"residual {worst:.2e}, symmetric-coupling angle {theta0:.2e}")


def test_criterion_05_closed_form_levels():
    rng = np.random.default_rng(5)
    worst_defect = 0.0
    worst_sum = 0.0
    for family in spectra.FAMILIES:
        for _ in range(500):
            x, y = rng.uniform(-5.0, 5.0, size=2)
            worst_defect = max(worst_defect,
                               spectra.closed_form_defect(family, x, y))
            worst_sum = max(worst_sum,
                            abs(spectra.levels(family, x, y).weighted_sum()))
    assert worst_defect < 1e-10
    assert worst_sum <= 1e-10
    print(f"[criterion 05] PASS — 1000 random couplings, worst level defect "
          f"{worst_defect:.2e}, worst weighted-trace |sum| {worst_sum:.2e}")


def test_criterion_06_ground_state_over_wedge_grid():
    grid = spectra.phase_map((0.05, 1.0), (-10.0, -2.05), 100)
    assert len(grid) == 100 * 100
    # one winner pattern over the whole grid
    assert grid.summaries == ((("triplet3",), 1.0),)
    points = list(itertools.product(grid.a12_axis.tolist(), grid.a13_axis.tolist()))

    pair_blocks = [
        symmetry.heisenberg_hamiltonian(R4, {pair: 1.0}).real
        for pair in symmetry.pair_order(4)
    ]
    coeffs = np.array([
        symmetry.constrained_couplings_parallelogram(a12, a12, a13).vector()
        for a12, a13 in points
    ])
    ground_energy = np.array([-4.0 * a12 / 3.0 + 5.0 * a13 / 6.0
                              for a12, a13 in points])
    shared = [st for st in multiplets.invariant_eigenstates(R4)
              if st.S == 1.0 and abs(st.q + 0.5) < 1e-9]
    min_overlap = 1.0
    max_energy_err = 0.0
    for m, popcount in ((-1.0, 3), (0.0, 2), (1.0, 1)):
        idx = np.flatnonzero(POPCOUNT == popcount)
        blocks = np.stack([blk[np.ix_(idx, idx)] for blk in pair_blocks])
        ham_stack = np.einsum("pc,cij->pij", coeffs, blocks)
        values, vectors = np.linalg.eigh(ham_stack)
        target = [st for st in shared if st.m == m][1].vector[idx].real
        overlap = np.abs(vectors[:, :, 0] @ target) ** 2
        min_overlap = min(min_overlap, float(overlap.min()))
        max_energy_err = max(max_energy_err,
                             float(np.max(np.abs(values[:, 0] - ground_energy))))
    assert min_overlap > 1.0 - 1e-10
    assert max_energy_err < 1e-9
    print(f"[criterion 06] PASS — 100x100 grid, unique S=1 ground level "
          f"everywhere, min sector-eigenvector overlap {min_overlap:.15f}, "
          f"max ground-energy error {max_energy_err:.2e}")


def test_criterion_07_corner_moment_pattern():
    state = [st for st in multiplets.invariant_eigenstates(R4)
             if st.S == 1.0 and st.m == -1.0 and abs(st.q + 0.5) < 1e-9][1]
    moments = observables.local_moments(R4, state.vector)
    assert moments.mu == pytest.approx([0.9, 0.1, 0.1, 0.9], abs=1e-12)
    assert moments.total == pytest.approx(2.0, abs=1e-12)
    print(f"[criterion 07] PASS — site moments "
          f"{[round(v, 12) for v in moments.mu]}, total {moments.total:.12f}")


def test_criterion_08_level_zero_axiom():
    rng = np.random.default_rng(8)
    worst = 0.0
    for register in (R2, R3, R4):
        for _ in range(100):
            weights = rng.uniform(-3.0, 3.0, size=register.n_sites)
            worst = max(worst, yangian.check_yangian_axioms(
                register, weights).level_zero_residual)
    assert worst < 1e-12
    report2 = yangian.check_yangian_axioms(R2, [0.0, 0.0])
    report3 = yangian.check_yangian_axioms(R3, [0.0, 0.0, 0.0])
    assert report3.fitted_lambda == pytest.approx(4.0, abs=1e-9)
    print(f"[criterion 08] PASS — worst level-zero residual {worst:.2e} over "
          f"300 weight draws; quadratic-term fits: two-site lambda "
          f"{report2.fitted_lambda:.6f} (residual {report2.serre_residual:.2e}), "
          f"three-site lambda {report3.fitted_lambda:.6f} "
          f"(residual {report3.serre_residual:.2e})")


def test_criterion_09_expansion_and_action_blocks():
    rng = np.random.default_rng(9)
    worst_expansion = 0.0
    for register in (R3, R4):
        for _ in range(50):
            weights = rng.uniform(-1.0, 1.0, size=register.n_sites)
            gap = np.max(np.abs(yangian.build_q(register, weights)
                                - yangian.expanded_q(register, weights)))
            worst_expansion = max(worst_expansion, float(gap))
    assert worst_expansion < 1e-12

    worst_action = 0.0
    spins = {"quartet": 1.5, "doublet": 0.5,
             "quintet": 2.0, "triplet": 1.0, "singlet": 0.0}
    for register in (R3, R4):
        for _ in range(50):
            weights = rng.uniform(-1.0, 1.0, size=register.n_sites)
            blocks = yangian.action_blocks(register.n_sites, weights)
            for name, block in blocks.items():
                S = spins[name]
                m = -S
                while m <= S:
                    numeric = yangian.numeric_action_block(register, weights, S, m)
                    worst_action = max(worst_action,
                                       float(np.max(np.abs(numeric - block))))
                    m += 1.0
    assert worst_action < 1e-10
    print(f"[criterion 09] PASS — worst expansion gap {worst_expansion:.2e}, "
          f"worst sector action-block gap {worst_action:.2e} over 100 draws")


def test_criterion_10_rate_identities():
    rng = np.random.default_rng(10)
    worst_balance = 0.0
    for _ in range(100):
        A = rng.uniform(0.1, 5.0)
        inv_temp = rng.uniform(0.05, 3.0)
        delta = rng.uniform(0.1, 20.0) * rng.choice([-1.0, 1.0])
        ratio = (dynamics.transition_rate(A, inv_temp, delta)
                 / dynamics.transition_rate(A, inv_temp, -delta))
        worst_balance = max(worst_balance,
                            abs(ratio / math.exp(inv_temp * delta) - 1.0))
    assert worst_balance < 1e-12

    worst_fix = 0.0
    for _ in range(100):
        params = dynamics.RateParams(A=rng.uniform(0.1, 3.0),
                                     inv_temp=rng.uniform(0.1, 3.0))
        B = rng.uniform(-4.0, 4.0)
        rates = dynamics.level_transition_rates(params.gamma * B, params)
        c = dynamics.rate_matrix_coefficients(rates)
        p_plus, p_zero, p_minus = dynamics.boltzmann_populations(
            params.gamma * B, params.inv_temp)
        x = p_plus - p_minus
        worst_fix = max(worst_fix, abs(c.C1 * x + c.C2 * p_zero + c.E),
                        abs(c.C3 * x + c.C4 * p_zero + c.F))
    assert worst_fix < 1e-10

    rates = dynamics.level_transition_rates(1.7, dynamics.RateParams())
    derived = dynamics.rate_matrix_coefficients(rates, "derived")
    verbatim = dynamics.rate_matrix_coefficients(rates, "paper_verbatim")
    gaps = {name: abs(got - want) for name, got, want
            in zip(dynamics.RateCoefficients._fields, verbatim, derived)}
    assert gaps["C1"] == pytest.approx(rates[("+", "0")], rel=1e-12)
    assert all(gaps[k] == 0.0 for k in ("C2", "C3", "C4", "E", "F"))
    print(f"[criterion 10] PASS — worst detailed-balance error "
          f"{worst_balance:.2e}, worst equilibrium fixed-point residual "
          f"{worst_fix:.2e}, coefficient-variant gap isolated to C1 "
          f"({gaps['C1']:.6f})")


def test_criterion_11_level_mixing_closed_forms():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        B = rng.uniform(-8.0, 8.0)
        delta_gap = rng.uniform(0.01, 6.0)
        matrix, beta, eigenvalues = dynamics.lzs_three_level(B, delta_gap)
        vectors = dynamics.lzs_eigenvectors(beta)
        residual = np.max(np.abs(matrix @ vectors
                                 - vectors @ np.diag(eigenvalues)))
        worst = max(worst, float(residual))
    assert worst < 1e-10

    report = dynamics.coupled_levels_report(np.linspace(-3.0, 3.0, 50), 1.0)
    assert report.min_zero_count >= 3
    assert report.invariant_pair_max_dev < 1e-9
    print(f"[criterion 11] PASS — worst three-level eigentriple residual "
          f"{worst:.2e}; nine-level grid: zero levels >= "
          f"{report.min_zero_count}, outer-pair closed-form deviation "
          f"{report.invariant_pair_max_dev:.2e}; radical readings "
          f"(printed {report.printed_max_dev.max():.2e} vs corrected "
          f"{report.corrected_max_dev.max():.2e} at unit gap, no assertion)")


def test_criterion_12_hysteresis_endurance():
    params = dynamics.RateParams()
    profile = dynamics.FieldProfile(kind="sinusoid", amplitude=10.0,
                                    angular_rate=1.0, t_start=0.0,
                                    t_end=4.0 * math.pi)
    t0 = time.perf_counter()
    traj = dynamics.integrate_magnetization(params, profile,
                                            init="equilibrium",
                                            n_steps=100000, lzs_mode="off")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    peak = float(np.max(np.abs(traj.M_norm)))
    assert peak <= 1.0 + 1e-12
    closure = abs(traj.M_norm[-1] - traj.M_norm[50000])
    assert closure < 1e-3
    area = dynamics.enclosed_area(traj, t_start=2.0 * math.pi,
                                  t_end=4.0 * math.pi)
    assert area > 0.01
    fine = dynamics.integrate_magnetization(params, profile,
                                            init="equilibrium",
                                            n_steps=200000, lzs_mode="off")
    halving = float(np.max(np.abs(fine.M_norm[::2] - traj.M_norm)))
    assert halving < 1e-6
    first_period_drift = abs(traj.M_norm[50000] - traj.M_norm[0])
    assert traj.population_defect() <= 1e-7
    print(f"[criterion 12] PASS — wall {elapsed:.2f} s, |M| peak {peak:.6f}, "
          f"period-two closure {closure:.2e}, loop area {area:.4f}, "
          f"step-halving gap {halving:.2e}; first-period drift "
          f"{first_period_drift:.6f} (reported, not asserted)")
