"""Site-resolved and collective observables of cluster eigenstates.

Local moments are reported in units of the Bohr magneton as
``mu_i = -g <S_i^z>``, so a fully "up" site carries moment -g/2 and a
fully "down" site +g/2 with the default g = 2.
"""

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .operators import SpinRegister, casimir, site_spin, total_spin

STATE_NORM_ATOL = 1e-10
LABEL_RESIDUAL_ATOL = 1e-8
POPULATION_SUM_ATOL = 1e-9
DEFAULT_G_FACTOR = 2.0


class MomentVector:
    """Per-site moments plus the g-factor they were computed with."""

    def __init__(self, mu: np.ndarray, g: float):
        self.mu = np.asarray(mu, dtype=float)
        self.g = float(g)

    @property
    def total(self) -> float:
        return float(np.sum(self.mu))

    def __repr__(self):
        return f"MomentVector(mu={self.mu!r}, g={self.g})"


def _checked_state(register: SpinRegister, state) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.size != register.dim:
        raise ConfigError(
            f"state has dimension {vec.size}, register needs {register.dim}")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= STATE_NORM_ATOL:  # NaN fails too
        raise ConfigError(f"state norm {norm!r} is not 1 within tolerance")
    return vec


def local_moments(register: SpinRegister, state,
                  g: float = DEFAULT_G_FACTOR) -> MomentVector:
    """mu_i = -g <state| S_i^z |state| for every site."""
    vec = _checked_state(register, state)
    mu = np.empty(register.n_sites)
    for k in range(register.n_sites):
        sz = site_spin(register, k).z
        mu[k] = -g * np.real(np.vdot(vec, sz @ vec))
    return MomentVector(mu, g)


def total_spin_labels(register: SpinRegister, state):
    """Recover (S, m) of a collective-spin eigenstate.

    S comes from <S.S> = S(S+1), m from <S^z>; both are rounded to the
    nearest half-integer and the variances must vanish, otherwise the
    state is not a joint eigenstate and a NumericalCheckError reports
    the larger defect.
    """
    vec = _checked_state(register, state)
    s_tot = total_spin(register)
    s2 = casimir(register)
    exp_s2 = float(np.real(np.vdot(vec, s2 @ vec)))
    exp_sz = float(np.real(np.vdot(vec, s_tot.z @ vec)))
    S = round(2.0 * (-0.5 + np.sqrt(0.25 + exp_s2))) / 2.0
    m = round(2.0 * exp_sz) / 2.0
    res_s2 = np.linalg.norm(s2 @ vec - S * (S + 1.0) * vec)
    res_sz = np.linalg.norm(s_tot.z @ vec - m * vec)
    worst = max(res_s2, res_sz)
    if worst > LABEL_RESIDUAL_ATOL:
        raise NumericalCheckError(
            "state is not a joint (S.S, S^z) eigenstate: residuals "
            f"|S.S - S(S+1)| = {res_s2:.3e}, |S^z - m| = {res_sz:.3e} "
            f"for nearest labels S = {S}, m = {m}"
        )
    return S, m


def magnetization_expectation(populations, scale: float) -> float:
    """M = -scale * (rho_{++} - rho_{--}) for three-level occupations.

    ``populations`` is (rho_{++}, rho_00, rho_{--}); the level index is
    the collective S^z quantum number, so population in "+" pulls the
    magnetization negative for positive ``scale``.
    """
    pops = np.asarray(populations, dtype=float).reshape(-1)
    if pops.size != 3:
        raise ConfigError("expected three level populations (+, 0, -)")
    if not np.min(pops) >= -POPULATION_SUM_ATOL:  # NaN fails too
        raise ConfigError(f"negative population {np.min(pops)!r}")
    if not abs(np.sum(pops) - 1.0) <= POPULATION_SUM_ATOL:
        raise ConfigError(f"populations sum to {np.sum(pops)!r}, not 1")
    return float(-scale * (pops[0] - pops[2]))
