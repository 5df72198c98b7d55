import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spincluster.errors import ConfigError, NumericalCheckError
from spincluster.multiplets import branch_columns, projections, sectors
from spincluster.operators import (
    SpinRegister,
    basis_index,
    casimir,
    commutator,
    cross,
    embed,
    fix_phase,
    hermitian,
    hermitian_eig,
    multiplicities,
    product_state,
    scalar_triple,
    site_spin,
    spin_matrices,
    superposition,
    total_spin,
)

SU2_ATOL = 1e-14
EIG_RESIDUAL_ATOL = 1e-10


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_spin_matrices_su2_algebra(s):
    op = spin_matrices(s)
    assert op.shape == (3, int(2 * s + 1), int(2 * s + 1))
    assert np.max(np.abs(commutator(op[0], op[1]) - 1j * op[2])) < SU2_ATOL
    assert np.max(np.abs(commutator(op[1], op[2]) - 1j * op[0])) < SU2_ATOL
    assert np.max(np.abs(commutator(op[2], op[0]) - 1j * op[1])) < SU2_ATOL
    cas = op[0] @ op[0] + op[1] @ op[1] + op[2] @ op[2]
    expected = s * (s + 1.0) * np.eye(int(2 * s + 1))
    assert np.max(np.abs(cas - expected)) < SU2_ATOL


def test_register_dimensions_and_bounds():
    assert SpinRegister(2).dim == 4
    assert SpinRegister(4).dim == 16
    with pytest.raises(ConfigError):
        SpinRegister(1)
    with pytest.raises(ConfigError):
        SpinRegister(5)


def test_basis_index_bit_convention():
    # site 0 is the most significant bit; d = 1
    assert basis_index("udd") == 3
    assert basis_index("dud") == 5
    assert basis_index("ddu") == 6
    assert basis_index("uddd") == 7
    assert basis_index("dddu") == 14
    with pytest.raises(ConfigError):
        basis_index("uxd")


def test_site_spin_acts_on_correct_factor():
    r3 = SpinRegister(3)
    state = product_state(r3, "udd")
    for k, expect in enumerate([0.5, -0.5, -0.5]):
        sz = site_spin(r3, k)[2]
        val = np.real(np.vdot(state, sz @ state))
        assert abs(val - expect) < SU2_ATOL


def test_total_spin_z_is_diagonal_sum():
    r3 = SpinRegister(3)
    tz = total_spin(r3)[2]
    # magnetization of each computational basis state = (ups - downs)/2
    diag = np.real(np.diag(tz))
    for b in range(8):
        ups = 3 - bin(b).count("1")
        assert abs(diag[b] - (ups - (3 - ups)) / 2.0) < SU2_ATOL


def test_superposition_and_fix_phase():
    r3 = SpinRegister(3)
    vec = superposition(r3, {"udd": 1.0, "dud": -1.0})
    assert abs(np.linalg.norm(vec) - 1.0) < SU2_ATOL
    # superposition must not silently rotate the sign convention
    assert vec[basis_index("udd")].real > 0
    assert vec[basis_index("dud")].real < 0
    flipped = fix_phase(-vec)
    assert flipped[basis_index("udd")].real > 0


def test_casimir_on_aligned_state():
    r4 = SpinRegister(4)
    state = product_state(r4, "uuuu")
    val = np.real(np.vdot(state, casimir(r4) @ state))
    assert abs(val - 6.0) < SU2_ATOL  # S = 2 -> S(S+1) = 6


def test_cross_antisymmetry_and_triple():
    r3 = SpinRegister(3)
    s0, s1, s2 = (site_spin(r3, k) for k in range(3))
    full = cross(s0, s1)
    assert full.shape == s0.shape
    assert np.max(np.abs(full + cross(s1, s0))) < SU2_ATOL
    for k in range(3):  # (a x b)_k = a_i b_j - a_j b_i for (k, i, j) cyclic
        i, j = (k + 1) % 3, (k + 2) % 3
        assert np.array_equal(full[k], s0[i] @ s1[j] - s0[j] @ s1[i])
    trip = scalar_triple(s0, s1, s2)
    assert np.max(np.abs(trip - trip.conj().T)) < SU2_ATOL  # Hermitian


@pytest.mark.parametrize("build, message", [
    (lambda r: embed(r, 3, np.eye(2)), "site 3 out of range for 3 sites"),
    (lambda r: embed(r, -1, np.eye(2)), "site -1 out of range for 3 sites"),
    (lambda r: product_state(r, "ud"), "pattern length 2 != register size 3"),
    (lambda r: superposition(r, {"uud": 0.0}), "cannot normalize the zero vector"),
], ids=["site-past-end", "negative-site", "short-pattern", "zero-vector"])
def test_state_and_embedding_inputs_are_checked(build, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        build(SpinRegister(3))


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NumericalCheckError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_gates_every_matrix_of_a_stack():
    good = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -1.0]])
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    stack = np.stack([good, 3.0 * good])
    assert hermitian(stack) is stack
    with pytest.raises(NumericalCheckError, match=r"^matrix is not Hermitian: "
                       r"max \|M - M\^dag\| = 1\.000e\+00$"):
        hermitian(np.stack([good, bad, good]))


def test_hermitian_rejects_nan():
    # NaN compares False with any tolerance, so the gate must not let it by
    with pytest.raises(NumericalCheckError, match="not Hermitian"):
        hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_hermitian_eig_groups_degeneracies():
    mat = np.diag([1.0, 1.0 + 1e-12, 2.0])
    assert multiplicities(hermitian_eig(mat)) == [(pytest.approx(1.0), 2), (2.0, 1)]


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_hermitian_eig_values_ascend_and_keep_the_invariants(n, degenerate, entropy):
    rng = np.random.default_rng(entropy)
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if degenerate:  # integer levels with repeats, in a random basis
        unitary, _ = np.linalg.qr(raw)
        levels = rng.integers(-1, 2, size=n).astype(float)
        mat = unitary @ np.diag(levels) @ unitary.conj().T
    else:
        mat = raw + raw.conj().T
    values = hermitian_eig(mat)
    bound = EIG_RESIDUAL_ATOL * max(1.0, np.max(np.abs(mat)))
    assert values.shape == (n,)
    assert np.all(np.diff(values) >= 0)
    assert abs(values.sum() - np.trace(mat).real) < bound
    assert abs(values @ values - np.sum(np.abs(mat) ** 2)) < bound


@seed(7)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_embed_commutes_for_distinct_sites(n_sites, entropy):
    rng = np.random.default_rng(entropy)
    register = SpinRegister(n_sites)
    ops = [embed(register, k, spin_matrices()[2]) for k in range(n_sites)]
    i, j = rng.choice(n_sites, size=2, replace=False)
    assert np.max(np.abs(commutator(ops[i], ops[j]))) < SU2_ATOL


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_register_operators_are_built_once_and_shared(n_sites):
    first, second = SpinRegister(n_sites), SpinRegister(n_sites)
    assert first is not second
    for k in range(n_sites):
        assert site_spin(first, k) is site_spin(second, k)
    for S in sectors(first):
        for m in projections(S):
            assert branch_columns(first, S, m) is branch_columns(second, S, m)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_shared_operators_are_read_only(n_sites):
    register = SpinRegister(n_sites)
    for k in range(n_sites):
        for component in site_spin(register, k):
            with pytest.raises(ValueError):
                component[0, 0] = 1.0
    for S in sectors(register):
        for m in projections(S):
            with pytest.raises(ValueError):
                branch_columns(register, S, m)[0, 0] = 1.0
    with pytest.raises(ValueError):
        site_spin(register, 0)[2] += 1.0


@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_site_spin_is_the_kronecker_product(n_sites):
    pauli_half = spin_matrices(0.5)
    for k in range(n_sites):
        for axis in range(3):
            factors = [np.eye(2)] * n_sites
            factors[k] = pauli_half[axis]
            want = factors[0]
            for factor in factors[1:]:
                want = np.kron(want, factor)
            assert np.array_equal(site_spin(SpinRegister(n_sites), k)[axis], want)
