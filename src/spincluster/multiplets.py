"""Closed-form total-spin multiplet bases for 3- and 4-site registers.

Each multiplet is generated by laddering S_+ up from a seed state at
m = -S, so Condon-Shortley phases are consistent across m by construction.
Repeated irreps at the same S are distinguished by a branch index ``k``
whose seed order is fixed here and relied on by the operator-action
formulas in :mod:`spincluster.yangian`.

The module also provides the joint eigenbasis of {S^2, S_z, Q} at zero
site weights, where Q is the conserved quadratic invariant built in
:mod:`spincluster.yangian`.  For four sites the invariant eigenvalue -1/2
is shared by two S = 1 branches; the pair returned by :func:`mixing_pair`
spans that degenerate block in the order assumed by the mixing-angle
conventions of :mod:`spincluster.symmetry`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SpinMultiplet:
    """One total-spin multiplet: branch ``k`` of spin ``S`` with members by m."""

    S: float
    k: int
    vectors: dict  # m -> state vector

    def member(self, m: float) -> np.ndarray:
        key = round(2 * m) / 2
        if key not in self.vectors:
            raise ConfigError(f"no m={m} member in S={self.S} multiplet")
        return self.vectors[key]


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


def invariant_eigenstates(register: SpinRegister) -> list:
    """Joint {S^2, S_z, Q} eigenbasis at zero site weights, in closed form.

    Returns LabeledState records covering the full register space.  The
    4-site q = -1/2 level is doubly degenerate per m and is flagged.
    """
    if register.n_sites == 3:
        return _invariant_states_3(register)
    if register.n_sites == 4:
        return _invariant_states_4(register)
    raise ConfigError(f"no closed-form invariant basis for n={register.n_sites}")


def _invariant_states_3(register: SpinRegister) -> list:
    quartet = branches(register, 1.5)[0]
    d0, d1 = branches(register, 0.5)
    states = [LabeledState(1.5, m, -1.0, fix_phase(quartet.member(m)))
              for m in (-1.5, -0.5, 0.5, 1.5)]
    for m in (-0.5, 0.5):
        alpha = -0.5 * d0.member(m) + (_SQ3 / 2) * d1.member(m)
        beta = (_SQ3 / 2) * d0.member(m) + 0.5 * d1.member(m)
        states.append(LabeledState(0.5, m, -0.25, fix_phase(alpha)))
        states.append(LabeledState(0.5, m, -2.25, fix_phase(beta)))
    return states


def _triplet_combo(register: SpinRegister, m: float, coeffs) -> np.ndarray:
    t0, t1, t2 = branches(register, 1.0)
    return (coeffs[0] * t0.member(m) + coeffs[1] * t1.member(m)
            + coeffs[2] * t2.member(m))


# Combination coefficients over the three S=1 branches (seed order) for the
# three invariant eigenvalues of the 4-site register.
_TRIPLET_SHARED_A = (0.0, 1 / _SQ2, -1 / _SQ2)            # q = -1/2
_TRIPLET_DEEP = (2 * _SQ2 / _SQ10, 1 / _SQ10, 1 / _SQ10)  # q = -11/2
_TRIPLET_SHARED_B = (-1 / _SQ5, 2 / _SQ10, 2 / _SQ10)     # q = -1/2


def mixing_pair(register: SpinRegister, m: float) -> tuple:
    """The ordered pair spanning the degenerate q = -1/2 block at given m."""
    if register.n_sites != 4:
        raise ConfigError("mixing_pair is defined for the 4-site register")
    first = _triplet_combo(register, m, _TRIPLET_SHARED_A)
    second = _triplet_combo(register, m, _TRIPLET_SHARED_B)
    return first, second


def _invariant_states_4(register: SpinRegister) -> list:
    quintet = branches(register, 2.0)[0]
    s0, s1 = branches(register, 0.0)
    states = [LabeledState(2.0, m, -2.5, fix_phase(quintet.member(m)))
              for m in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    for m in (-1.0, 0.0, 1.0):
        shared_a, shared_b = mixing_pair(register, m)
        deep = _triplet_combo(register, m, _TRIPLET_DEEP)
        states.append(LabeledState(1.0, m, -0.5, fix_phase(shared_a), degenerate=True))
        states.append(LabeledState(1.0, m, -5.5, fix_phase(deep)))
        states.append(LabeledState(1.0, m, -0.5, fix_phase(shared_b), degenerate=True))
    plus = 0.5 * s0.member(0.0) - (_SQ3 / 2) * s1.member(0.0)
    minus = (_SQ3 / 2) * s0.member(0.0) + 0.5 * s1.member(0.0)
    states.append(LabeledState(0.0, 0.0, -1.0, fix_phase(plus)))
    states.append(LabeledState(0.0, 0.0, -3.0, fix_phase(minus)))
    return states
