"""Site-resolved moments of cluster eigenstates.

Local moments are reported in units of the Bohr magneton as
``mu_i = -g <S_i^z>``, so a fully "up" site carries moment -g/2 and a
fully "down" site +g/2 with the default g = 2.
"""

import numpy as np

from .errors import ConfigError
from .operators import SpinRegister, site_spin

STATE_NORM_ATOL = 1e-10
DEFAULT_G_FACTOR = 2.0


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
                  g: float = DEFAULT_G_FACTOR) -> np.ndarray:
    """mu_i = -g <state| S_i^z |state> for every site, as an array; an
    unpolarized site carries 0, never -0."""
    vec = _checked_state(register, state)
    mu = np.empty(register.n_sites)
    for k in range(register.n_sites):
        sz = site_spin(register, k)[2]
        mu[k] = 0.0 - g * np.real(np.vdot(vec, sz @ vec))
    return mu
