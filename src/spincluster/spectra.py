"""Closed-form level structure of the constrained cluster Hamiltonians.

The isosceles three-site cluster and the two-parameter four-site
family (equal opposite-edge couplings) both diagonalize in closed
form.  Every level is linear in the couplings with rational
coefficients, read from the one level table
:data:`spincluster.multiplets.LEVELS`; :func:`level_energy` evaluates
them.  Ground-state classification over coupling space therefore
reduces to comparing a handful of linear functions; :func:`phase_map`
sweeps that comparison over a grid.
"""

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .multiplets import LEVELS, LevelRow
from .operators import SpinRegister, hermitian_eig
from .symmetry import (
    constrained_couplings_parallelogram,
    constrained_couplings_triangle,
    heisenberg_hamiltonian,
)
from .table import csv_text

CLOSED_FORM_ATOL = 1e-10
DEFAULT_TIE_RTOL = 1e-9


def _term(c, x):
    """c*x for a Fraction c, rounded as the formula is written by hand: a
    power-of-two denominator makes float(c) exact, otherwise the numerator
    multiplies before the denominator divides."""
    if c.denominator & (c.denominator - 1) == 0:
        return float(c) * x
    return c.numerator * x / c.denominator


def level_energy(row: LevelRow, x, y):
    """A level's energy at couplings (x, y), floats or arrays; zero
    coefficients contribute no term."""
    terms = [_term(c, v) for c, v in zip(row.energy, (x, y)) if c]
    return sum(terms[1:], terms[0])


def tied_ground(energies, tie_tol: float = None):
    """(winners, ground): the levels (axis 0) within tie_tol of the lowest
    one, and its energy, at each point of the remaining axes.  The default
    tie_tol is DEFAULT_TIE_RTOL * max(1, largest |energy| at the point)."""
    energies = np.asarray(energies, dtype=float)
    if not np.isfinite(energies).all():
        raise NumericalCheckError("level energies are not finite at these couplings")
    if tie_tol is None:
        tie_tol = DEFAULT_TIE_RTOL * np.maximum(
            1.0, np.max(np.abs(energies), axis=0))
    elif tie_tol <= 0:
        raise ConfigError("tie tolerance must be positive")
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
        return float(sum(lev.energy * lev.multiplicity for lev in self.levels))

    def total_multiplicity(self) -> int:
        return sum(lev.multiplicity for lev in self.levels)

    def by_label(self) -> dict:
        return {lev.label: lev for lev in self.levels}

    def ground_labels(self) -> list:
        """Labels of the levels tied for the lowest energy."""
        winners, _ = tied_ground([lev.energy for lev in self.levels])
        return [lev.label for lev, won in zip(self.levels, winners) if won]


def _levelset(rows, x: float, y: float) -> LevelSet:
    return LevelSet(tuple(Level(row.label, row.S, level_energy(row, x, y),
                                int(2 * row.S + 1)) for row in rows))


def triangle_levels(J12: float, J13: float) -> LevelSet:
    """Three levels of the isosceles three-site cluster."""
    return _levelset(LEVELS[3], J12, J13)


def parallelogram_levels(a12: float, a13: float) -> LevelSet:
    """Six levels of the equal-opposite-edge four-site family."""
    return _levelset(LEVELS[4], a12, a13)


def triangle_hamiltonian(register: SpinRegister, J12: float, J13: float):
    return heisenberg_hamiltonian(
        register, constrained_couplings_triangle(J12, J13))


def parallelogram_hamiltonian(register: SpinRegister, a12: float, a13: float):
    """Two-parameter family member with both opposite edges equal."""
    return heisenberg_hamiltonian(
        register, constrained_couplings_parallelogram(a12, a12, a13))


def closed_form_defect(register: SpinRegister, levelset: LevelSet,
                       hamiltonian: np.ndarray) -> float:
    """Max gap between sorted closed-form and numeric eigenvalues."""
    numeric = hermitian_eig(hamiltonian).eigenvalues
    closed = levelset.expanded()
    if closed.shape != numeric.shape:
        raise ConfigError(
            f"level multiplicities sum to {closed.size}, "
            f"Hilbert dimension is {numeric.size}"
        )
    return float(np.max(np.abs(closed - numeric)))


@dataclass(frozen=True)
class PhasePoint:
    a12: float
    a13: float
    ground_labels: tuple
    ground_S: object  # half-integer, or "degenerate-mixed" on mixed ties
    ground_energy: float


@dataclass(frozen=True)
class PhaseMap:
    """Ground-state classification as columns over points (a12, a13);
    ``pattern`` indexes the per-pattern (ground_labels, ground_S)
    ``summaries``, and ``[k]`` is the PhasePoint of point k."""

    a12: np.ndarray
    a13: np.ndarray
    ground_energy: np.ndarray
    pattern: np.ndarray
    summaries: tuple

    def __len__(self) -> int:
        return self.a12.size

    def __getitem__(self, k: int) -> PhasePoint:
        return PhasePoint(float(self.a12[k]), float(self.a13[k]),
                          *self.summaries[self.pattern[k]],
                          float(self.ground_energy[k]))

    def to_csv(self) -> str:
        """One row per point; the labels and S of a pattern are one cell."""
        cells = np.array([";".join(labels) + "," + (
            spin if isinstance(spin, str) else "%.17g" % spin)
            for labels, spin in self.summaries], dtype=object)
        return csv_text("a12,a13,ground_labels,ground_S,ground_energy",
                        "%.17g,%.17g,%s,%.17g\n",
                        (self.a12, self.a13, cells[self.pattern], self.ground_energy))


def _classify(a12: np.ndarray, a13: np.ndarray, tie_tol: float = None) -> PhaseMap:
    """The PhaseMap of the (a12, a13) pairs of two float arrays."""
    energies = np.array([level_energy(row, a12, a13) for row in LEVELS[4]])
    winners, ground = tied_ground(energies, tie_tol)
    # each distinct winner pattern is summarized once
    patterns, which = np.unique(winners, axis=1, return_inverse=True)
    summaries = []
    for pattern in patterns.T:
        rows = [row for row, won in zip(LEVELS[4], pattern) if won]
        spins = {row.S for row in rows}
        summaries.append((tuple(row.label for row in rows),
                          rows[0].S if len(spins) == 1 else "degenerate-mixed"))
    return PhaseMap(a12, a13, ground, which.reshape(-1), tuple(summaries))


def classify_ground(a12: float, a13: float,
                    tie_tol: float = None) -> PhasePoint:
    """All levels within tie_tol of the minimum of the four-site family."""
    return _classify(np.array([a12], dtype=float), np.array([a13], dtype=float),
                     tie_tol)[0]


def _axis(bounds, n_grid: int) -> np.ndarray:
    if len(bounds) != 2:
        raise ConfigError(f"axis range needs two bounds, got {bounds!r}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not np.isfinite([lo, hi, hi - lo]).all() or hi < lo:
        raise ConfigError(f"invalid axis range ({lo}, {hi})")
    if n_grid < 1:
        raise ConfigError("grid must have at least one point per axis")
    if n_grid == 1:
        return np.array([lo])
    return np.linspace(lo, hi, n_grid)


def phase_map(a12_range, a13_range, n_grid: int) -> PhaseMap:
    """Ground-state classification on a regular coupling grid, a13
    running fastest."""
    a12, a13 = np.meshgrid(_axis(a12_range, n_grid), _axis(a13_range, n_grid),
                           indexing="ij")
    return _classify(a12.ravel(), a13.ravel())


# The claimed full ordering of the six levels in the region a12 > 0,
# a13 < -2*a12 is mutually inconsistent (its last two links need
# a13 > 0), so it is reported link by link rather than asserted.
CLAIMED_ORDER_CHAIN = (
    "triplet3", "singlet_plus", "quintet",
    "singlet_minus", "triplet1", "triplet2",
)


def ordering_report(a12: float, a13: float) -> dict:
    levelset = parallelogram_levels(a12, a13)
    table = levelset.by_label()
    links = []
    for lo, hi in zip(CLAIMED_ORDER_CHAIN[:-1], CLAIMED_ORDER_CHAIN[1:]):
        links.append({
            "claim": f"{lo} < {hi}",
            "lhs": table[lo].energy,
            "rhs": table[hi].energy,
            "holds": bool(table[lo].energy < table[hi].energy),
        })
    actual = sorted(levelset.levels, key=attrgetter("energy"))
    return {
        "a12": a12,
        "a13": a13,
        "claimed_chain": list(CLAIMED_ORDER_CHAIN),
        "actual_order": [lev.label for lev in actual],
        "links": links,
        "chain_holds": all(link["holds"] for link in links),
    }
