"""Site-resolved moments of cluster eigenstates.

Local moments are reported in units of the Bohr magneton as
``mu_i = -g <S_i^z>``, so a fully "up" site carries moment -g/2 and a
fully "down" site +g/2 with the default g = 2.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .operators import SpinRegister, site_spin

STATE_NORM_ATOL = 1e-10
DEFAULT_G_FACTOR = 2.0


class MomentVector(NamedTuple):
    """Per-site moments plus the g-factor they were computed with."""

    mu: np.ndarray
    g: float

    @property
    def total(self) -> float:
        return float(np.sum(self.mu))


def _checked_state(register: SpinRegister, state) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.size != register.dim:
        raise ConfigError(
            f"state has dimension {vec.size}, register needs {register.dim}")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= STATE_NORM_ATOL:  # NaN fails too
        raise ConfigError(f"state norm {norm:.6g} is not 1 within tolerance")
    return vec


def local_moments(register: SpinRegister, state,
                  g: float = DEFAULT_G_FACTOR) -> MomentVector:
    """mu_i = -g <state| S_i^z |state| for every site."""
    vec = _checked_state(register, state)
    mu = np.empty(register.n_sites)
    for k in range(register.n_sites):
        sz = site_spin(register, k).z
        mu[k] = -g * np.real(np.vdot(vec, sz @ vec))
    return MomentVector(mu, float(g))
