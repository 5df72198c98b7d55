"""Coupling constraints that make a Heisenberg cluster share eigenstates
with the conserved charge Q.

The commutant problem -- which exchange-coupling sets a_ij give a
Hamiltonian commuting with Q -- is linear in the couplings, so it is
solved exactly by a singular-value decomposition of the vectorized
commutator map.  For three sites the answer is the plane a12 = a23;
for four sites it is a three-parameter family in which a24, a14, a23
are fixed linear combinations of (a12, a34, a13).

Within the four-site family the two degenerate charge eigenstates of
the triplet sector mix under the Hamiltonian.  The mixing angle theta
of that rotation obeys a scalar relation; :func:`extract_mixing_theta`
returns the root of that relation which best diagonalizes the
degenerate block, and :func:`diagonalizing_theta` returns the exact
diagonalizing angle for comparison (the two coincide only on part of
the family; see the residual helpers).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .multiplets import mixing_pair
from .operators import SpinRegister, commutator, hermitian, pair_dot
from .yangian import build_q

COMMUTANT_SVD_RTOL = 1e-10
FAMILY_COMMUTATOR_ATOL = 1e-9
RELATION_RESIDUAL_ATOL = 1e-9
M_INDEPENDENCE_ATOL = 1e-10
EQUAL_EDGE_RTOL = 1e-12  # |a12 - a34| below this times the scale is a12 = a34
_SQ5 = np.sqrt(5.0)


def pair_order(n_sites: int) -> list:
    """Canonical (i, j) ordering, 1-indexed, i < j."""
    return [(i, j)
            for i in range(1, n_sites + 1)
            for j in range(i + 1, n_sites + 1)]


@dataclass(frozen=True)
class CouplingSet:
    """Symmetric exchange constants a_ij (1-indexed pairs, i < j)."""

    n_sites: int
    a: dict = field(default_factory=dict)

    def __post_init__(self):
        pairs = set(pair_order(self.n_sites))
        unknown = set(self.a) - pairs
        if unknown:
            raise ConfigError(f"unknown coupling pairs {sorted(unknown)}")
        filled = {pair: float(self.a.get(pair, 0.0)) for pair in pairs}
        if not all(np.isfinite(list(filled.values()))):
            raise ConfigError("couplings must be finite")
        object.__setattr__(self, "a", filled)

    def vector(self) -> np.ndarray:
        return np.array([self.a[p] for p in pair_order(self.n_sites)])


@dataclass(frozen=True)
class CouplingFamily:
    """Orthonormal basis of the commutant nullspace."""

    basis: list
    dimension: int
    singular_values: np.ndarray


def heisenberg_hamiltonian(register: SpinRegister, couplings) -> np.ndarray:
    """H = sum_{i<j} a_ij S_i . S_j."""
    couplings = _as_coupling_set(register.n_sites, couplings)
    if couplings.n_sites != register.n_sites:
        raise ConfigError(
            f"couplings are for {couplings.n_sites} sites, "
            f"register has {register.n_sites}"
        )
    h = np.zeros((register.dim, register.dim), dtype=complex)
    for (i, j), value in couplings.a.items():
        if value != 0.0:
            h = h + value * pair_dot(register, i - 1, j - 1)
    return h


def _as_coupling_set(n_sites: int, couplings) -> CouplingSet:
    if isinstance(couplings, CouplingSet):
        return couplings
    return CouplingSet(n_sites, dict(couplings))


def commutant_family(register: SpinRegister, q_matrix: np.ndarray) -> CouplingFamily:
    """Nullspace of a |-> [Q, H(a)] over coupling space, via SVD, for a Q
    that passes :func:`hermitian`; singular values below COMMUTANT_SVD_RTOL
    of the largest count as zero."""
    hermitian(q_matrix)
    pairs = pair_order(register.n_sites)
    m = np.column_stack([commutator(q_matrix, pair_dot(register, i - 1, j - 1)).ravel()
                         for i, j in pairs])
    _, sv, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(sv > COMMUTANT_SVD_RTOL * sv[0]))
    basis = []
    for vec in vh[rank:].real:
        pivot = int(np.argmax(np.abs(vec)))
        if vec[pivot] < 0:
            vec = -vec
        basis.append(CouplingSet(register.n_sites, dict(zip(pairs, vec))))
    return CouplingFamily(basis=basis, dimension=len(basis),
                          singular_values=sv)


def family_projection_residual(family: CouplingFamily, couplings) -> float:
    """Distance of a coupling vector from the span of the family basis."""
    couplings = _as_coupling_set(family.basis[0].n_sites, couplings)
    vec = couplings.vector()
    proj = sum(float(vec @ b.vector()) * b.vector() for b in family.basis)
    return float(np.linalg.norm(vec - proj))


def commutator_defect(register: SpinRegister, q_matrix: np.ndarray,
                      couplings) -> float:
    h = heisenberg_hamiltonian(register, couplings)
    return float(np.max(np.abs(commutator(q_matrix, h))))


def constrained_couplings_triangle(J12: float, J13: float) -> CouplingSet:
    """Isosceles three-site family: a12 = a23 free, a13 free."""
    return CouplingSet(3, {(1, 2): J12, (2, 3): J12, (1, 3): J13})


def constrained_couplings_parallelogram(a12: float, a34: float,
                                        a13: float) -> CouplingSet:
    """Four-site family member: three free constants fix the other three."""
    return CouplingSet(4, {
        (1, 2): a12,
        (3, 4): a34,
        (1, 3): a13,
        (2, 4): 0.5 * (a12 + 2 * a13 - a34),
        (1, 4): (a12 + 2 * a13) / 3.0,
        (2, 3): (2 * a12 - 2 * a13 + 3 * a34) / 3.0,
    })


def family_fill_residual(couplings) -> float:
    """Max violation of the three linear relations fixing a24, a14, a23."""
    couplings = _as_coupling_set(4, couplings)
    a = couplings.a
    expect = constrained_couplings_parallelogram(
        a[1, 2], a[3, 4], a[1, 3])
    return float(np.max(np.abs(couplings.vector() - expect.vector())))


# --------------------------------------------------------------------------
# mixing angle of the degenerate triplet block


def _free_constants(couplings) -> tuple:
    a = _as_coupling_set(4, couplings).a
    return a[1, 2], a[3, 4], a[1, 3]


def degenerate_block_elements(couplings) -> tuple:
    """(m11, m13, m33) of H over the degenerate charge pair, closed form."""
    p, q, r = _free_constants(couplings)
    m11 = -p / 8.0 + q / 8.0 - r / 2.0
    m13 = (_SQ5 / 4.0) * (q - p)
    m33 = -11.0 * p / 24.0 - 7.0 * q / 8.0 + 5.0 * r / 6.0
    return m11, m13, m33


def numeric_degenerate_block(register: SpinRegister, couplings,
                             m: float = -1.0) -> np.ndarray:
    """2x2 block of H over the degenerate charge pair at magnetic number m."""
    h = heisenberg_hamiltonian(register, couplings)
    pair = mixing_pair(register, m)
    cols = np.column_stack(pair)
    return cols.conj().T @ h @ cols


def mixing_relation_residual(couplings, theta: float) -> float:
    """Literal residual of the angle relation for a family member."""
    p, q, r = _free_constants(couplings)
    half = theta / 2.0
    return (np.cos(half) ** 2 * (p / 2.0 - q / 2.0)
            + np.sin(half) ** 2 * (2.5 * p - 2.5 * q)
            + 0.5 * np.sin(theta) * (-2.0 * p / 3.0 - 2.0 * q + 8.0 * r / 3.0))


def rotated_offdiagonal(couplings, theta: float) -> float:
    """<psi1'|H|psi3'> after rotating the degenerate pair by theta."""
    m11, m13, m33 = degenerate_block_elements(couplings)
    return 0.5 * np.sin(theta) * (m11 - m33) + np.cos(theta) * m13


def _relation_terms(couplings) -> tuple:
    """(gap, g, has_root) of the angle relation gap*(3/2 - cos t) +
    (g/2)*sin t = 0, where gap = a12 - a34 counts as 0.0 within
    EQUAL_EDGE_RTOL of the couplings' scale; the one rule for a real root."""
    p, q, r = _free_constants(couplings)
    a_gap = p - q
    if abs(a_gap) < EQUAL_EDGE_RTOL * max(1.0, abs(p), abs(q), abs(r)):
        a_gap = 0.0
    g = -2.0 * p / 3.0 - 2.0 * q + 8.0 * r / 3.0
    return a_gap, g, a_gap == 0.0 or g * g >= 5.0 * a_gap * a_gap


def has_real_mixing_angle(couplings) -> bool:
    """Whether the angle relation admits a real root for this member."""
    return _relation_terms(couplings)[2]


def _scale(couplings: CouplingSet) -> float:
    return max(1.0, float(np.max(np.abs(couplings.vector()))))


def _check_membership(register: SpinRegister, couplings) -> CouplingSet:
    couplings = _as_coupling_set(4, couplings)
    if register.n_sites != 4:
        raise ConfigError("mixing angle is defined for the four-site family")
    if family_fill_residual(couplings) > FAMILY_COMMUTATOR_ATOL * _scale(couplings):
        defect = commutator_defect(register, build_q(register, np.zeros(4)),
                                   couplings)
        raise ConfigError(
            "couplings are not in the commutant family; "
            f"max |[Q, H]| = {defect:.3e}"
        )
    return couplings


def extract_mixing_theta(register: SpinRegister, couplings) -> float:
    """Angle in (-pi, pi] satisfying the family's mixing relation.

    Of the (at most two) real roots of the relation, the one whose
    rotation leaves the smaller off-diagonal element in the degenerate
    block is returned; equal-coupling members (a12 = a34) give exactly
    zero.  Raises :class:`NumericalCheckError` when the relation has no
    real root for the supplied member (:func:`has_real_mixing_angle`).
    """
    couplings = _check_membership(register, couplings)
    _assert_m_independence(register, couplings)
    a_gap, g, has_root = _relation_terms(couplings)
    if not has_root:
        floor = 1.5 * abs(a_gap) - np.sqrt(a_gap ** 2 + 0.25 * g ** 2)
        raise NumericalCheckError(
            "mixing relation has no real root for this member; "
            f"minimum attainable |residual| = {floor:.6g}"
        )
    if a_gap == 0.0:
        return 0.0
    root = np.sqrt(g * g - 5.0 * a_gap * a_gap)
    candidates = [2.0 * np.arctan((-g + root) / (5.0 * a_gap)),
                  2.0 * np.arctan((-g - root) / (5.0 * a_gap))]
    candidates.sort(key=lambda th: (abs(rotated_offdiagonal(couplings, th)),
                                    abs(th)))
    return float(candidates[0])


def _assert_m_independence(register: SpinRegister, couplings):
    blocks = [numeric_degenerate_block(register, couplings, m)
              for m in (-1.0, 0.0, 1.0)]
    worst = max(float(np.max(np.abs(b - blocks[0]))) for b in blocks[1:])
    if not worst <= M_INDEPENDENCE_ATOL * _scale(couplings):  # NaN fails too
        raise NumericalCheckError(
            f"degenerate block depends on m (defect {worst:.3e})"
        )


def diagonalizing_theta(register: SpinRegister, couplings) -> float:
    """Exact angle that diagonalizes the degenerate block (always exists)."""
    couplings = _check_membership(register, couplings)
    m11, m13, m33 = degenerate_block_elements(couplings)
    if m13 == 0.0 and m33 == m11:
        return 0.0
    theta = float(np.arctan2(2.0 * m13, m33 - m11))
    if theta > np.pi / 2:
        theta -= np.pi
    elif theta <= -np.pi / 2:
        theta += np.pi
    return theta
