"""Total-spin multiplet bases, and the one table of closed-form levels.

Each multiplet is generated by laddering S_+ up from a seed state at
m = -S, so Condon-Shortley phases are consistent across m by construction.
Repeated irreps at the same S are distinguished by a branch index ``k``
whose seed order is fixed here and relied on by the operator-action
formulas in :mod:`spincluster.yangian`.

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


@dataclass(frozen=True)
class SpinMultiplet:
    """One total-spin multiplet: branch ``k`` of spin ``S`` with members by m."""

    S: float
    k: int
    vectors: dict  # m -> state vector

    def member(self, m: float) -> np.ndarray:
        if m not in self.vectors:
            raise ConfigError(f"m = {m} is not a valid projection for S = {self.S}")
        return self.vectors[m]


@dataclass
class LabeledState:
    """A joint eigenvector with its (S, m, q) labels."""

    S: float
    m: float
    q: float
    vector: np.ndarray
    degenerate: bool = False


def _ladder_up(register: SpinRegister, seed: np.ndarray, S: float) -> dict:
    tot = total_spin(register)
    raising = tot.x + 1j * tot.y
    members = {-S: seed}
    vec, m = seed, -S
    while m < S - 0.5:
        amp = np.sqrt(S * (S + 1) - m * (m + 1))
        vec = raising @ vec / amp
        m += 1.0
        members[m] = vec
    read_only(*members.values())
    return members


@functools.cache
def multiplet_table(register: SpinRegister) -> tuple:
    """All total-spin multiplets of the register, ladder-consistent in m,
    built once and shared read-only."""
    if register.n_sites not in _SEEDS:
        raise ConfigError(f"no multiplet table for n_sites={register.n_sites}")
    table = []
    branch_count: dict = {}
    for S, terms in _SEEDS[register.n_sites]:
        k = branch_count.get(S, 0)
        branch_count[S] = k + 1
        seed = superposition(register, terms)
        table.append(SpinMultiplet(S, k, _ladder_up(register, seed, S)))
    return tuple(table)


def branches(register: SpinRegister, S: float) -> list:
    return [mp for mp in multiplet_table(register) if mp.S == S]


def projections(S: float) -> list:
    """The m values of a spin-S multiplet, ascending."""
    return [-S + k for k in range(int(round(2 * S)) + 1)]


def _levels(register: SpinRegister) -> tuple:
    if register.n_sites not in LEVELS:
        raise ConfigError(f"no closed-form invariant basis for n={register.n_sites}")
    return LEVELS[register.n_sites]


def _combination(register: SpinRegister, row: LevelRow, m: float) -> np.ndarray:
    """The row's state at m, before its phase is fixed."""
    terms = [c * br.member(m) for c, br in zip(row.state, branches(register, row.S))]
    return sum(terms[1:], terms[0])


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
    for S in dict.fromkeys(S for S, _ in _SEEDS[register.n_sites]):
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
