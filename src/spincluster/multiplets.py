"""Total-spin multiplet bases, and the one table of closed-form levels.

:func:`branch_columns` is the one form of the multiplet basis: the m
members of the spin-S branches, one column each.  At m = -S they are seed
states; each higher m is laddered up from m - 1 by S_+, so Condon-Shortley
phases are consistent across m by construction.  Repeated irreps at the
same S are columns in a seed order that is fixed here and relied on by the
operator-action formulas in :mod:`spincluster.yangian`.  :func:`sectors`
lists the distinct S.

:data:`LEVELS` is the only definition of a closed-form level of the 3- and
4-site coupling families; :func:`invariant_eigenstates`,
:func:`level_state`, :func:`mixing_pair` and :mod:`spincluster.spectra`
read it.  q is the level's eigenvalue of the conserved invariant Q at zero
site weights.  For four sites q = -1/2 is shared by two S = 1 rows, which
:func:`mixing_pair` returns in the order assumed by the mixing-angle
conventions of :mod:`spincluster.symmetry`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .operators import SpinRegister, fix_phase, read_only, superposition, total_spin

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)
_SQ5 = np.sqrt(5.0)
_SQ10 = np.sqrt(10.0)

# Seed states (m = -S members) for each register size.  Branch order at equal
# S matters: the action-matrix formulas and the mixing conventions are
# expressed in this order.
_SEEDS = {
    2: [
        (1.0, {"dd": 1.0}),
        (0.0, {"ud": 1.0, "du": -1.0}),
    ],
    3: [
        (1.5, {"ddd": 1.0}),
        (0.5, {"udd": 1.0, "dud": 1.0, "ddu": -2.0}),
        (0.5, {"udd": 1.0, "dud": -1.0}),
    ],
    4: [
        (2.0, {"dddd": 1.0}),
        (1.0, {"uddd": 1.0, "dudd": 1.0, "ddud": -1.0, "dddu": -1.0}),
        (1.0, {"uddd": 1.0, "dudd": -1.0}),
        (1.0, {"ddud": 1.0, "dddu": -1.0}),
        (0.0, {"uudd": 2.0, "dduu": 2.0, "udud": -1.0, "dudu": -1.0,
               "uddu": -1.0, "duud": -1.0}),
        (0.0, {"udud": 1.0, "dudu": 1.0, "uddu": -1.0, "duud": -1.0}),
    ],
}


class LevelRow(NamedTuple):
    """One closed-form level of a register's two-coupling family."""

    label: str
    S: float
    q: float  # Q eigenvalue at zero site weights
    energy: tuple  # Fractions (cx, cy): the energy is cx*x + cy*y
    state: tuple  # coefficients over the spin-S branches, in seed order


_F = Fraction
# The one definition of the closed-form levels.  The couplings (x, y) are
# (J12, J13) of the isosceles triangle and (a12, a13) of the parallelogram
# (equal opposite edges).  Rows that share (S, q) are degenerate in Q.
LEVELS = {
    3: (
        LevelRow("alpha", 0.5, -0.25, (_F(-1), _F(1, 4)), (-0.5, _SQ3 / 2)),
        LevelRow("beta", 0.5, -2.25, (_F(0), _F(-3, 4)), (_SQ3 / 2, 0.5)),
        LevelRow("quartet", 1.5, -1.0, (_F(1, 2), _F(1, 4)), (1.0,)),
    ),
    4: (
        LevelRow("quintet", 2.0, -2.5, (_F(1), _F(1, 2)), (1.0,)),
        LevelRow("triplet1", 1.0, -0.5, (_F(0), _F(-1, 2)),
                 (0.0, 1 / _SQ2, -1 / _SQ2)),
        LevelRow("triplet2", 1.0, -5.5, (_F(1, 3), _F(-5, 6)),
                 (2 * _SQ2 / _SQ10, 1 / _SQ10, 1 / _SQ10)),
        LevelRow("triplet3", 1.0, -0.5, (_F(-4, 3), _F(5, 6)),
                 (-1 / _SQ5, 2 / _SQ10, 2 / _SQ10)),
        LevelRow("singlet_plus", 0.0, -1.0, (_F(-2), _F(1, 2)), (0.5, -_SQ3 / 2)),
        LevelRow("singlet_minus", 0.0, -3.0, (_F(0), _F(-3, 2)), (_SQ3 / 2, 0.5)),
    ),
}


@dataclass
class LabeledState:
    """A joint eigenvector with its (S, m, q) labels."""

    S: float
    m: float
    q: float
    vector: np.ndarray
    degenerate: bool = False


@functools.cache
def branch_columns(register: SpinRegister, S: float, m: float) -> np.ndarray:
    """The spin-S branches' m members as columns, in seed order, built once
    and shared read-only: the seed superpositions at m = -S, each higher m
    laddered up from m - 1 by S_+."""
    if S not in sectors(register):
        raise ConfigError(f"no S = {S} multiplet in {register.n_sites} spins-1/2")
    if m not in projections(S):
        raise ConfigError(f"m = {m} is not a valid projection for S = {S}")
    if m == -S:
        cols = np.column_stack([superposition(register, terms)
                                for spin, terms in _SEEDS[register.n_sites]
                                if spin == S])
    else:
        tot, below = total_spin(register), m - 1.0
        amp = np.sqrt(S * (S + 1) - below * (below + 1))
        cols = (tot.x + 1j * tot.y) @ branch_columns(register, S, below) / amp
    return read_only(cols)[0]


def sectors(register: SpinRegister) -> tuple:
    """The register's distinct total spins S, in seed order."""
    return tuple(dict.fromkeys(S for S, _ in _SEEDS[register.n_sites]))


def projections(S: float) -> list:
    """The m values of a spin-S multiplet, ascending."""
    return [-S + k for k in range(int(round(2 * S)) + 1)]


def _levels(register: SpinRegister) -> tuple:
    if register.n_sites not in LEVELS:
        raise ConfigError(f"no closed-form invariant basis for n={register.n_sites}")
    return LEVELS[register.n_sites]


def _combination(register: SpinRegister, row: LevelRow, m: float) -> np.ndarray:
    """The row's state at m, before its phase is fixed."""
    return branch_columns(register, row.S, m) @ np.array(row.state)


def level_state(register: SpinRegister, label: str, m: float) -> np.ndarray:
    """The m member of the named closed-form level, phase-fixed."""
    rows = {row.label: row for row in _levels(register)}
    if label not in rows:
        raise ConfigError(f"unknown level label {label!r}")
    return fix_phase(_combination(register, rows[label], m))


def invariant_eigenstates(register: SpinRegister) -> list:
    """Joint {S^2, S_z, Q} eigenbasis at zero site weights, in closed form.

    Returns LabeledState records covering the full register space: S in
    seed order, then m, then the order of :data:`LEVELS`.  A state whose
    (S, q) is shared by another row is flagged degenerate.
    """
    rows = _levels(register)
    keys = [(row.S, row.q) for row in rows]
    states = []
    for S in sectors(register):
        for m in projections(S):
            states.extend(
                LabeledState(S, m, row.q, fix_phase(_combination(register, row, m)),
                             degenerate=keys.count((row.S, row.q)) > 1)
                for row in rows if row.S == S)
    return states


def mixing_pair(register: SpinRegister, m: float) -> tuple:
    """The ordered pair spanning the degenerate q = -1/2 block at given m."""
    if register.n_sites != 4:
        raise ConfigError("mixing_pair is defined for the 4-site register")
    return tuple(_combination(register, row, m) for row in LEVELS[4]
                 if (row.S, row.q) == (1.0, -0.5))
