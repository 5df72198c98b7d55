"""Conserved-charge algebra for small Heisenberg clusters.

The central object is the vector charge

    Y_a = sum_k u_k S_k^a  +  i sum_{i<j} (S_i x S_j)_a ,

whose square Q = Y.Y commutes with every component of the total spin
for arbitrary site weights u.  At u = 0 the charge reduces to the
equal-weight antisymmetric (Dzyaloshinskii-Moriya type) exchange
operator and Q becomes Hermitian; for nonzero weights hermiticity
requires every scalar-triple prefactor in the expansion of Q to
vanish (three sites: u1 - u2 + u3 = 0; four sites: u = 0).

Two independent routes to Q are provided: the direct matrix square
(:func:`build_q`) and a term-assembled polynomial expansion
(:func:`expanded_q`).  Closed-form sector action matrices over the
laddered multiplet bases are available in two variants: ``derived``
matches the direct numerics in every matrix position, while
``paper_verbatim`` is an alternative transcription kept for
comparison; the two differ only in documented off-diagonal positions
and agree at u = 0.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .multiplets import branch_columns, sectors
from .operators import (
    SpinRegister,
    commutator,
    cross,
    degeneracy_groups,
    dot,
    hermitian_eig,
    pair_dot,
    read_only,
    scalar_triple,
    site_spin,
    total_spin,
)

LEVEL_ZERO_ATOL = 1e-12
EXPANSION_ATOL = 1e-12
ACTION_ATOL = 1e-10
SERRE_CONSISTENT_ATOL = 1e-10
HERMITICITY_CONDITION_ATOL = 1e-12  # times max(1, max |u|)

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)


def _check_weights(n_sites: int, weights) -> np.ndarray:
    u = np.asarray(weights, dtype=float)
    if u.shape != (n_sites,):
        raise ConfigError(f"expected {n_sites} site weights, got shape {u.shape}")
    return u


@functools.cache
def _pair_crosses(register: SpinRegister) -> np.ndarray:
    """i (S_i x S_j)_a indexed [pair, a], pairs i < j in order, built once
    and shared read-only."""
    spins = [site_spin(register, k) for k in range(register.n_sites)]
    return read_only(np.array([1j * cross(spins[i], spins[j])
                               for i in range(register.n_sites)
                               for j in range(i + 1, register.n_sites)]))[0]


def build_yangian(register: SpinRegister, weights) -> np.ndarray:
    """Vector charge Y = sum_k u_k S_k + i sum_{i<j} S_i x S_j: the weighted
    site spins summed left to right, then each pair's term in pair order."""
    u = _check_weights(register.n_sites, weights)
    y = sum(u[k] * site_spin(register, k) for k in range(register.n_sites))
    for pair in _pair_crosses(register):
        y = y + pair
    return y


def build_q(register: SpinRegister, weights) -> np.ndarray:
    """Q = Y.Y as a dense matrix."""
    y = build_yangian(register, weights)
    return dot(y, y)


def triple_prefactors(weights) -> np.ndarray:
    """Coefficients of the scalar-triple terms in the expansion of Q.

    Q is Hermitian exactly when all of these vanish.
    """
    u = np.asarray(weights, dtype=float)
    n = u.shape[0]
    if n not in (2, 3, 4):
        raise ConfigError(f"unsupported register size {n}")
    return np.array(
        [u[i] - u[j] + u[k]
         for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    )


def q_hermiticity_condition(weights, n_sites: int) -> bool:
    """True iff Q built with these weights is Hermitian: every triple
    prefactor is below HERMITICITY_CONDITION_ATOL * max(1, max |u|)."""
    u = _check_weights(n_sites, weights)
    bound = HERMITICITY_CONDITION_ATOL * max(1.0, float(np.max(np.abs(u))))
    return bool(np.all(np.abs(triple_prefactors(u)) < bound))


def hermitian_q(register: SpinRegister, weights) -> np.ndarray:
    """Q for weights that satisfy :func:`q_hermiticity_condition`; the one
    gate that rejects non-Hermitian weights, with ConfigError."""
    u = _check_weights(register.n_sites, weights)
    if not q_hermiticity_condition(u, register.n_sites):
        raise ConfigError("Q is not Hermitian for these weights; "
                          f"triple prefactors {triple_prefactors(u)}")
    return build_q(register, u)


def expanded_q(register: SpinRegister, weights) -> np.ndarray:
    """Term-assembled polynomial expansion of Q (three or four sites).

    Built from single-site Casimirs, pairwise dot products and
    scalar-triple products; agrees with :func:`build_q` entrywise for
    arbitrary weights.
    """
    u = _check_weights(register.n_sites, weights)
    if register.n_sites == 3:
        return _expanded_q3(register, u)
    if register.n_sites == 4:
        return _expanded_q4(register, u)
    raise ConfigError("closed-form expansion covers 3 or 4 sites only")


def _expanded_q3(register: SpinRegister, u: np.ndarray) -> np.ndarray:
    s = [site_spin(register, k) for k in range(3)]
    s2 = [pair_dot(register, k, k) for k in range(3)]
    d12, d23, d13 = (pair_dot(register, i, j) for i, j in ((0, 1), (1, 2), (0, 2)))
    dsum = d12 + d23 + d13
    out = sum(u[k] ** 2 * s2[k] for k in range(3))
    out = out + 2 * (u[0] * u[1] * d12 + u[1] * u[2] * d23 + u[0] * u[2] * d13)
    out = out + 2j * (u[0] - u[1] + u[2]) * scalar_triple(s[0], s[1], s[2])
    bracket = (s2[0] @ s2[1] + s2[1] @ s2[2] + s2[0] @ s2[2]
               - dsum
               + 2 * s2[0] @ d23 + 2 * s2[2] @ d12 - 2 * s2[1] @ d13
               - dsum @ dsum
               + 2 * (d12 @ d23 + d23 @ d12))
    return out - bracket


def _expanded_q4(register: SpinRegister, u: np.ndarray) -> np.ndarray:
    s = [site_spin(register, k) for k in range(4)]
    s2 = [pair_dot(register, k, k) for k in range(4)]
    d = {(i, j): pair_dot(register, i, j) for i in range(4) for j in range(i + 1, 4)}
    dsum = sum(d.values())
    out = sum(u[k] ** 2 * s2[k] for k in range(4))
    out = out + 2 * sum(u[i] * u[j] * d[i, j] for (i, j) in d)
    out = out + 2j * (
        (u[0] - u[1] + u[2]) * scalar_triple(s[0], s[1], s[2])
        + (u[0] - u[1] + u[3]) * scalar_triple(s[0], s[1], s[3])
        + (u[0] - u[2] + u[3]) * scalar_triple(s[0], s[2], s[3])
        + (u[1] - u[2] + u[3]) * scalar_triple(s[1], s[2], s[3])
    )
    bracket = (sum(s2[i] @ s2[j] for (i, j) in d)
               - dsum @ dsum
               - dsum
               + 2 * (s2[0] @ (d[1, 2] + d[1, 3] + d[2, 3])
                      + s2[1] @ (d[2, 3] - d[0, 2] - d[0, 3])
                      + s2[2] @ (d[0, 1] - d[0, 3] - d[1, 3])
                      + s2[3] @ (d[0, 1] + d[0, 2] + d[1, 2]))
               + 2 * (d[1, 2] @ d[0, 1] + d[0, 1] @ d[1, 2])
               + 2 * (d[1, 3] @ d[0, 1] + d[0, 1] @ d[1, 3])
               + 2 * (d[2, 3] @ d[0, 2] + d[0, 2] @ d[2, 3])
               + 2 * (d[2, 3] @ d[1, 2] + d[1, 2] @ d[2, 3])
               + 2 * (d[0, 2] @ d[1, 3] - d[0, 3] @ d[1, 2]
                      + 3 * d[0, 1] @ d[2, 3]))
    return out - bracket


# --------------------------------------------------------------------------
# sector action matrices


def numeric_action_block(register: SpinRegister, weights, S: float, m: float) -> np.ndarray:
    """<branch_a, m| Q |branch_b, m> over the laddered branches of spin S."""
    q = build_q(register, weights)
    cols = branch_columns(register, S, m)
    return cols.conj().T @ q @ cols


def action_blocks(n_sites: int, weights, mode: str = "derived") -> dict:
    """Closed-form sector action matrices of Q.

    Keys: ``"quartet"``/``"doublet"`` for three sites;
    ``"quintet"``/``"triplet"``/``"singlet"`` for four.  Matrices act on
    the laddered branch order of :func:`spincluster.multiplets.branch_columns`
    and are m-independent.

    mode="derived" matches :func:`numeric_action_block` in every entry.
    mode="paper_verbatim" keeps an alternative transcription whose
    off-diagonal couplings differ in documented positions (three sites:
    transposed; four sites: symmetrized, and the quintet-adjacent
    1<->3 coupling carries (u1 - u2 - 2) in place of (u1 + u2 - 2)).
    Both variants coincide at u = 0.
    """
    if mode not in ("derived", "paper_verbatim"):
        raise ConfigError(f"unknown action-matrix mode {mode!r}")
    u = _check_weights(n_sites, weights)
    if n_sites == 3:
        return _action_blocks_3(u, mode)
    if n_sites == 4:
        return _action_blocks_4(u, mode)
    raise ConfigError("closed-form action matrices cover 3 or 4 sites only")


def _action_blocks_3(u: np.ndarray, mode: str) -> dict:
    u1, u2, u3 = u
    usq = float(u @ u)
    v = u1 - u2
    quartet = 0.75 * usq + 0.5 * (u1 * u2 + u2 * u3 + u1 * u3) - 1.0
    d0 = 0.75 * usq + 0.5 * u1 * u2 - u2 * u3 - u1 * u3 - 1.75
    d1 = 0.75 * v ** 2 + 0.75 * u3 ** 2 - 0.75
    upper = -(_SQ3 / 2) * (v + 1) * (u3 + 1)
    lower = -(_SQ3 / 2) * (v - 1) * (u3 - 1)
    if mode == "paper_verbatim":
        upper, lower = lower, upper
    doublet = np.array([[d0, upper], [lower, d1]])
    return {"quartet": np.array([[quartet]]), "doublet": doublet}


def _action_blocks_4(u: np.ndarray, mode: str) -> dict:
    u1, u2, u3, u4 = u
    usq = float(u @ u)
    su = float(u.sum())
    v = u1 - u2
    w = u3 - u4
    p12 = u1 + u2
    p34 = u3 + u4
    quintet = (0.375 * su ** 2 + 0.25 * v ** 2 - 2.5
               + 0.125 * (p12 - p34) ** 2 + 0.25 * w ** 2)
    t11 = 0.5 * usq - 4.5 + 0.25 * (p12 - p34) ** 2
    t22 = 0.5 * p34 ** 2 + 0.25 * w ** 2 + 0.75 * v ** 2 - 1.0
    t33 = 0.5 * p12 ** 2 + 0.25 * v ** 2 + 0.75 * w ** 2 - 1.0
    c12 = -(1 / _SQ2) * (v + 1) * (p34 + 2)
    c12_rev = -(1 / _SQ2) * (v - 1) * (p34 - 2)
    c13 = (1 / _SQ2) * (w + 1) * (p12 - 2)
    c13_rev = (1 / _SQ2) * (w - 1) * (p12 + 2)
    c23 = 0.5 * (v - 1) * (w + 1)
    c23_rev = 0.5 * (v + 1) * (w - 1)
    s11 = 0.5 * (p12 - p34 - 2) * (p12 - p34 + 2) + 0.25 * (v ** 2 + w ** 2 - 2)
    s22 = 0.75 * (v ** 2 + w ** 2 - 2)
    s01 = -(_SQ3 / 2) * (v + 1) * (w + 1)
    s01_rev = -(_SQ3 / 2) * (v - 1) * (w - 1)
    if mode == "paper_verbatim":
        c13 = (1 / _SQ2) * (w + 1) * (v - 2)
        c12_rev, c13_rev, c23_rev, s01_rev = c12, c13, c23, s01
    triplet = np.array([[t11, c12, c13],
                        [c12_rev, t22, c23],
                        [c13_rev, c23_rev, t33]])
    singlet = np.array([[s11, s01], [s01_rev, s22]])
    return {"quintet": np.array([[quintet]]),
            "triplet": triplet,
            "singlet": singlet}


# --------------------------------------------------------------------------
# axiom checks


@dataclass(frozen=True)
class AxiomReport:
    """Numerical residuals of the defining charge-algebra relations."""

    level_zero_residual: float
    serre_residual: float
    fitted_lambda: float
    serre_consistent: bool


_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_i, _k, _j] = -1.0


def _level_zero_residual(y: np.ndarray, total: np.ndarray) -> float:
    """Max defect of [I_a, I_b] = i eps_abc I_c and [I_a, Y_b] = i eps_abc Y_c."""
    spin = total[:, None]  # I_a, broadcast over b: all (a, b) at once
    return max(float(np.max(np.abs(spin @ ops - ops @ spin
                                   - 1j * np.einsum("abc,cij->abij", _EPS, ops))))
               for ops in (total, y))


def _serre_fit(y: np.ndarray, total: np.ndarray):
    """Least-squares deformation scalar for the cubic charge relations.

    Fits lambda in  [Y_+, [Y_3, Y_+]] = (lambda/4) I_+ (Y_+ I_3 - I_+ Y_3)
    and the lowering-operator counterpart, sharing one lambda across both.
    """
    i_p, i_m, i_3 = total[0] + 1j * total[1], total[0] - 1j * total[1], total[2]
    y_p, y_m, y_3 = y[0] + 1j * y[1], y[0] - 1j * y[1], y[2]
    lhs_p = commutator(y_p, commutator(y_3, y_p))
    lhs_m = commutator(y_m, commutator(y_3, y_m))
    rhs_p = i_p @ (y_p @ i_3 - i_p @ y_3)
    rhs_m = i_m @ (y_m @ i_3 - i_m @ y_3)
    num = (np.vdot(rhs_p, lhs_p) + np.vdot(rhs_m, lhs_m)).real
    den = (np.vdot(rhs_p, rhs_p) + np.vdot(rhs_m, rhs_m)).real
    lam = 4.0 * num / den if den > 0 else 0.0
    residual = max(
        float(np.max(np.abs(lhs_p - (lam / 4.0) * rhs_p))),
        float(np.max(np.abs(lhs_m - (lam / 4.0) * rhs_m))),
    )
    return lam, residual


def check_yangian_axioms(register: SpinRegister, weights) -> AxiomReport:
    """Both relations checked on one Y and one total spin of the register."""
    y = build_yangian(register, weights)
    total = total_spin(register)
    lam, serre = _serre_fit(y, total)
    return AxiomReport(
        level_zero_residual=_level_zero_residual(y, total),
        serre_residual=serre,
        fitted_lambda=lam,
        serre_consistent=bool(serre < SERRE_CONSISTENT_ATOL),
    )


# --------------------------------------------------------------------------
# spin-sector spectra


def q_sector_spectra(register: SpinRegister, weights) -> list:
    """(S, values, degenerate) per spin S, in seed order: the ascending
    :func:`hermitian_eig` values of Hermitian Q's (:func:`hermitian_q`)
    block over the spin-S branches at m = -S, the same block at every m.
    Each value labels 2S + 1 joint {S^2, S_z, Q} states; ``degenerate[i]``
    flags one that shares a :func:`degeneracy_groups` group."""
    q = hermitian_q(register, weights)
    spectra = []
    for S in sectors(register):
        cols = branch_columns(register, S, -S)
        values = hermitian_eig(cols.conj().T @ q @ cols)
        spectra.append((S, values, [len(g) > 1 for g in degeneracy_groups(values)
                                    for _ in g]))
    return spectra
