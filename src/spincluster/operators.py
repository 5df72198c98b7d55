"""Dense spin operators on small clusters.

Conventions used throughout the package:

* A register of ``n`` spin-1/2 sites lives in a ``2**n`` dimensional space.
  Site 0 is the leftmost tensor factor; basis index ``b`` stores the state
  of site ``k`` in bit ``k`` counted from the most significant of ``n``
  bits.  Bit value 0 means "up" (+1/2 of ``S_z``), 1 means "down".
  Example (n = 3): ``|up,down,down>`` is basis index 3.
* hbar = 1.  All operators are dense complex ``numpy`` arrays; a vector
  operator is one ``(3, d, d)`` stack, x, y, z on axis 0.
* :func:`hermitian_eig` returns eigenvalues only.  A state's phase
  (:func:`fix_phase`): its first largest-magnitude entry is real positive.
* Weight-independent products are built once per register size and shared
  read-only, so copy before writing: site spins, pair products S_i.S_j
  (:func:`pair_dot`), multiplet branch columns, i S_i x S_j terms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalCheckError

HERMITICITY_ATOL = 1e-10  # times max(1, max |M|)
DEGENERACY_GTOL = 1e-9  # times max(1, max |eigenvalue|)

_UP, _DOWN = "u", "d"


@dataclass(frozen=True)
class SpinRegister:
    """A chain of ``n_sites`` spin-1/2 degrees of freedom."""

    n_sites: int

    def __post_init__(self):
        if not 2 <= self.n_sites <= 4:
            raise ConfigError(f"n_sites must be in 2..4, got {self.n_sites}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites


def spin_matrices(s: float = 0.5) -> np.ndarray:
    """Single-particle spin matrices (Sx, Sy, Sz) for spin ``s``, stacked
    (basis ordered m = s..-s)."""
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim)
    raise_amp = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = raise_amp
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    sz = np.diag(m).astype(complex)
    return np.stack([sx, sy, sz])


def read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, marked read-only so that shared values cannot change."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def embed(register: SpinRegister, site: int, op: np.ndarray) -> np.ndarray:
    """Lift a single-site operator to the full register by Kronecker products."""
    if not 0 <= site < register.n_sites:
        raise ConfigError(f"site {site} out of range for {register.n_sites} sites")
    out = np.ones((1, 1), dtype=complex)
    for k in range(register.n_sites):
        out = np.kron(out, op if k == site else np.eye(2, dtype=complex))
    return out


@functools.cache
def site_spin(register: SpinRegister, site: int) -> np.ndarray:
    """Spin vector (Sx, Sy, Sz) of one site embedded in the register,
    built once and shared read-only."""
    return read_only(np.array([embed(register, site, c) for c in spin_matrices(0.5)]))[0]


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The operator dot product a.b of two vector operators."""
    return a[0] @ b[0] + a[1] @ b[1] + a[2] @ b[2]


@functools.cache
def pair_dot(register: SpinRegister, i: int, j: int) -> np.ndarray:
    """S_i.S_j of two sites of the register, built once and shared read-only."""
    return read_only(dot(site_spin(register, i), site_spin(register, j)))[0]


def total_spin(register: SpinRegister) -> np.ndarray:
    """Sum of the site spin vectors, added left to right."""
    parts = [site_spin(register, k) for k in range(register.n_sites)]
    return sum(parts[1:], parts[0])


def casimir(register: SpinRegister) -> np.ndarray:
    """Total-spin Casimir S.S of the register."""
    s = total_spin(register)
    return dot(s, s)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The operator cross product a x b: (a x b)_k = a_i b_j - a_j b_i for
    (k, i, j) cyclic."""
    return a[[1, 2, 0]] @ b[[2, 0, 1]] - a[[2, 0, 1]] @ b[[1, 2, 0]]


def scalar_triple(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Scalar triple product a.(b x c)."""
    return dot(a, cross(b, c))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def basis_index(pattern: str) -> int:
    """Basis index of a product state given as a string of 'u'/'d' characters."""
    idx = 0
    for ch in pattern:
        if ch not in (_UP, _DOWN):
            raise ConfigError(f"pattern characters must be 'u' or 'd', got {ch!r}")
        idx = (idx << 1) | (ch == _DOWN)
    return idx


def product_state(register: SpinRegister, pattern: str) -> np.ndarray:
    """Unit vector of the product state described by ``pattern``."""
    if len(pattern) != register.n_sites:
        raise ConfigError(
            f"pattern length {len(pattern)} != register size {register.n_sites}"
        )
    vec = np.zeros(register.dim, dtype=complex)
    vec[basis_index(pattern)] = 1.0
    return vec


def superposition(register: SpinRegister, terms: dict) -> np.ndarray:
    """Normalized linear combination of product states, ``terms`` maps
    pattern -> coefficient."""
    vec = np.zeros(register.dim, dtype=complex)
    for pattern, coeff in terms.items():
        vec += coeff * product_state(register, pattern)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ConfigError("cannot normalize the zero vector")
    return vec / norm


def fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a vector, or of each column of a matrix, so
    that its first largest-magnitude entry is real positive; a zero vector
    keeps its entries."""
    pivots = np.take_along_axis(
        vecs, np.argmax(np.abs(vecs), axis=0, keepdims=True), axis=0)
    size = np.abs(pivots)
    return vecs * np.divide(pivots.conj(), size, out=np.ones_like(pivots),
                            where=size != 0)


def degeneracy_groups(values: np.ndarray) -> list:
    """Index runs of ascending values whose neighbours lie within
    DEGENERACY_GTOL * max(1, max |value|) of each other: the one
    degeneracy rule."""
    gap = DEGENERACY_GTOL * max(1.0, float(np.max(np.abs(values))))
    groups, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > gap:
            groups.append(list(range(start, i)))
            start = i
    return groups


def multiplicities(values: np.ndarray) -> list:
    """(mean, count) of each of the :func:`degeneracy_groups` of ascending values."""
    return [(float(np.mean(values[g])), len(g)) for g in degeneracy_groups(values)]


def hermiticity_defect(matrix: np.ndarray) -> tuple:
    """(max |M - M^dag|, its bound HERMITICITY_ATOL * max(1, max |M|)) over
    a matrix or a stack of matrices; a non-finite entry makes the bound
    NaN, so ``defect <= bound`` fails.  The one Hermiticity measure."""
    size = np.max(np.abs(matrix))
    bound = HERMITICITY_ATOL * max(1.0, size) if np.isfinite(size) else np.nan
    return float(np.max(np.abs(matrix - np.swapaxes(matrix, -1, -2).conj()))), bound


def hermitian(matrix: np.ndarray) -> np.ndarray:
    """The matrix, or stack of matrices, once it passes the one Hermiticity
    gate, :func:`hermiticity_defect`; else NumericalCheckError naming the
    largest asymmetry."""
    asym, bound = hermiticity_defect(matrix)
    if not asym <= bound:  # NaN fails too
        raise NumericalCheckError(
            f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e}")
    return matrix


def hermitian_eig(matrix: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of the Hermitian part of a matrix that
    passes :func:`hermitian`."""
    return np.linalg.eigvalsh((hermitian(matrix) + matrix.conj().T) / 2)
