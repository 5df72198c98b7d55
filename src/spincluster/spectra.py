"""Closed-form level structure of the constrained cluster Hamiltonians.

The isosceles three-site cluster and the two-parameter four-site
family (equal opposite-edge couplings) both diagonalize in closed
form.  :data:`FAMILIES` is the one definition of such a family: its
register size, coupling names and coupling fill.  Every level is linear
in the couplings with rational coefficients, read from the one level
table :data:`spincluster.multiplets.LEVELS`; :func:`level_energy`
evaluates them.  Ground-state classification over coupling space therefore
reduces to comparing a handful of linear functions; :func:`phase_map`
sweeps that comparison over a grid.
"""

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .multiplets import LEVELS, LevelRow
from .operators import SpinRegister, hermitian_eig
from .symmetry import (
    constrained_couplings_parallelogram,
    constrained_couplings_triangle,
    heisenberg_hamiltonian,
)
from .table import csv_pieces

CLOSED_FORM_ATOL = 1e-10
DEFAULT_TIE_RTOL = 1e-9


def _term(c, x):
    """c*x for a Fraction c, rounded as the formula is written by hand: a
    power-of-two denominator makes float(c) exact, otherwise the numerator
    multiplies before the denominator divides, unless only that overflows."""
    if c.denominator & (c.denominator - 1) == 0:
        return float(c) * x
    with np.errstate(over="ignore"):  # redone below where it overflows
        term = c.numerator * x / c.denominator
    if np.all(np.isfinite(term)):
        return term
    term = np.where(np.isfinite(term) | ~np.isfinite(x), term,
                    x / c.denominator * c.numerator)
    return term if term.ndim else float(term)


def level_energy(row: LevelRow, x, y):
    """A level's energy at couplings (x, y), floats or arrays; zero
    coefficients contribute no term, and a zero energy is 0, never -0."""
    return sum((_term(c, v) for c, v in zip(row.energy, (x, y)) if c), 0.0)


def tied_ground(energies):
    """(winners, ground): the levels (axis 0) within the tie tolerance of
    the lowest one, and its energy, at each point of the remaining axes.
    The tolerance is DEFAULT_TIE_RTOL * max(1, largest |energy| at the
    point)."""
    energies = np.asarray(energies, dtype=float)
    if not np.isfinite(energies).all():
        raise NumericalCheckError("level energies are not finite at these couplings")
    tie_tol = DEFAULT_TIE_RTOL * np.maximum(1.0, np.max(np.abs(energies), axis=0))
    ground = np.min(energies, axis=0)
    return energies <= ground + tie_tol, ground


@dataclass(frozen=True)
class Level:
    label: str
    S: float
    energy: float
    multiplicity: int


@dataclass(frozen=True)
class LevelSet:
    levels: tuple

    def expanded(self) -> np.ndarray:
        """All eigenvalues with multiplicity, ascending."""
        out = []
        for lev in self.levels:
            out.extend([lev.energy] * lev.multiplicity)
        return np.sort(np.array(out))

    def weighted_sum(self) -> float:
        """The sum of E*(2S+1); where only the products overflow, the same
        sum over E/max|E|, scaled back."""
        total = float(sum(lev.energy * lev.multiplicity for lev in self.levels))
        peak = float(np.max(np.abs([lev.energy for lev in self.levels])))
        if np.isfinite(total) or not np.isfinite(peak):
            return total
        return peak * float(sum(lev.energy / peak * lev.multiplicity
                                for lev in self.levels))

    def by_label(self) -> dict:
        return {lev.label: lev for lev in self.levels}

    def ground_labels(self) -> list:
        """Labels of the levels tied for the lowest energy."""
        winners, _ = tied_ground([lev.energy for lev in self.levels])
        return [lev.label for lev, won in zip(self.levels, winners) if won]


def _equal_edges(a12: float, a13: float):
    """The four-site family member with both opposite edges equal."""
    return constrained_couplings_parallelogram(a12, a12, a13)


class Family(NamedTuple):
    """A closed-form family: its register size, the config names of its
    two couplings (x, y), and the exchange constants they fill."""

    sites: int
    couplings: tuple
    fill: Callable


# The one definition of a closed-form family; its levels are LEVELS[sites].
FAMILIES = {
    "triangle": Family(3, ("J12", "J13"), constrained_couplings_triangle),
    "parallelogram": Family(4, ("a12", "a13"), _equal_edges),
}


def levels(family: str, x: float, y: float) -> LevelSet:
    """The family's closed-form levels at couplings (x, y)."""
    return LevelSet(tuple(Level(row.label, row.S, level_energy(row, x, y),
                                int(2 * row.S + 1))
                          for row in LEVELS[FAMILIES[family].sites]))


def hamiltonian(family: str, x: float, y: float) -> np.ndarray:
    """The family's dense Hamiltonian at couplings (x, y)."""
    sites, _, fill = FAMILIES[family]
    return heisenberg_hamiltonian(SpinRegister(sites), fill(x, y))


def closed_form_defect(family: str, x: float, y: float) -> float:
    """Max gap between sorted closed-form and numeric eigenvalues."""
    numeric = hermitian_eig(hamiltonian(family, x, y))
    return float(np.max(np.abs(levels(family, x, y).expanded() - numeric)))


@dataclass(frozen=True)
class PhaseMap:
    """Ground-state classification as columns over the points (a12, a13) of
    the grid a12_axis x a13_axis, a13 running fastest; ``pattern`` indexes
    the per-pattern (ground_labels, ground_S) ``summaries``, where ground_S
    is a half-integer, or "degenerate-mixed" when levels of different spin
    tie."""

    a12_axis: np.ndarray
    a13_axis: np.ndarray
    ground_energy: np.ndarray
    pattern: np.ndarray
    summaries: tuple

    def __len__(self) -> int:
        return self.ground_energy.size

    def to_csv(self) -> Iterator[str]:
        """One row per point; the labels and S of a pattern are one cell."""
        cells = np.array([";".join(labels) + "," + (
            spin if isinstance(spin, str) else "%.17g" % spin)
            for labels, spin in self.summaries])
        x, y = FAMILIES["parallelogram"].couplings
        i12, i13 = np.divmod(np.arange(len(self)), self.a13_axis.size)
        return csv_pieces(f"{x},{y},ground_labels,ground_S,ground_energy",
                          ((self.a12_axis, i12), (self.a13_axis, i13),
                           (cells, self.pattern), self.ground_energy))


def _axis(bounds, n_grid: int) -> np.ndarray:
    if len(bounds) != 2:
        raise ConfigError(f"axis range needs two bounds, got {bounds!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not np.isfinite([lo, hi, hi - lo]).all() or hi < lo:
        raise ConfigError(f"invalid axis range ({lo}, {hi})")
    if n_grid < 1:
        raise ConfigError("grid must have at least one point per axis")
    return np.linspace(lo, hi, n_grid)


def phase_map(a12_range, a13_range, n_grid: int) -> PhaseMap:
    """Ground-state classification of the parallelogram family on a
    regular coupling grid, a13 running fastest."""
    table = LEVELS[FAMILIES["parallelogram"].sites]
    axes = _axis(a12_range, n_grid), _axis(a13_range, n_grid)
    a12, a13 = (axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))
    energies = np.array([level_energy(row, a12, a13) for row in table])
    winners, ground = tied_ground(energies)
    # each distinct winner pattern is summarized once; its byte code has the
    # first level as top bit, so codes sort as the boolean columns do
    _, first, which = np.unique(np.packbits(winners, axis=0)[0],
                                return_index=True, return_inverse=True)
    summaries = []
    for pattern in winners[:, first].T:
        rows = [row for row, won in zip(table, pattern) if won]
        spins = {row.S for row in rows}
        summaries.append((tuple(row.label for row in rows),
                          rows[0].S if len(spins) == 1 else "degenerate-mixed"))
    return PhaseMap(*axes, ground, which, tuple(summaries))
