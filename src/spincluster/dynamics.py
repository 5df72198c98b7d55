"""Dissipative magnetization dynamics of a driven three-level moment.

The model: a collective spin-1 degree of freedom in a swept field,
relaxing through one-phonon transitions with rate

    W(delta) = A * delta^3 / (1 - exp(-inv_temp * delta)),

where delta is the energy released into the bath.  The three level
populations reduce (via the trace constraint) to the pair
(n = rho_-- - rho_++, rho_00), which is integrated with fixed-step
RK4.  Two level schemes are supported:

* ``lzs_mode="off"``    - bare Zeeman ladder E_N = gamma*B(t)*N, output
  M_norm = n;
* ``lzs_mode="adiabatic"`` - instantaneous eigenlevels of the avoided
  crossing, E_N = N*sqrt((gamma*B)^2 + delta_gap^2), output
  M_norm = cos(beta)*n with cos(beta) = gamma*B/sqrt((gamma*B)^2+delta_gap^2).

The coefficient reduction of the master equation is exposed in two
modes: ``derived`` (re-derivation from the population equations, the
default and the integrator's ground truth) and ``paper_verbatim``
(one coefficient differs; kept for comparison).
"""

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .operators import hermitian, read_only
from .table import csv_pieces, ladder_pieces

DETAILED_BALANCE_RTOL = 1e-12
POPULATION_WINDOW = 1e-6      # integrator abort threshold
LEVEL_ZERO_COUNT_ATOL = 1e-9  # times max(1, max |level|) at each field
INVARIANT_LEVEL_ATOL = 1e-9   # times max(1, max |level|) at each field
_EXP_UNDERFLOW = -700.0
_COEFF_BLOCK = 8192  # RK4 steps per coefficient evaluation; bounds memory
_ROW = 32  # consecutive steps of a block composed in turn by its scan

LEVELS = ("+", "0", "-")
_N_OF = {"+": 1.0, "0": 0.0, "-": -1.0}
LEVEL_PAIRS = tuple((a, b) for a in LEVELS for b in LEVELS if a != b)
COEFF_MODES = ("derived", "paper_verbatim")
LZS_MODES = ("off", "adiabatic")
FIELD_KINDS = ("sinusoid", "linear_ramp", "constant")


@dataclass(frozen=True)
class RateParams:
    A: float = 1.0
    inv_temp: float = 1.0
    gamma: float = 1.0
    delta_gap: float = 0.1

    def __post_init__(self):
        for name in ("A", "inv_temp", "gamma", "delta_gap"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value:.6g}")
        if self.A <= 0:
            raise ConfigError("phonon prefactor A must be positive")
        if self.inv_temp <= 0:
            raise ConfigError("inverse temperature must be positive")
        if self.delta_gap < 0:
            raise ConfigError("level gap must be nonnegative")


@dataclass(frozen=True)
class FieldProfile:
    kind: str = "sinusoid"
    amplitude: float = 10.0
    angular_rate: float = 1.0
    t_start: float = 0.0
    t_end: float = 2.0 * math.pi

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ConfigError(
                f"unknown field kind {self.kind!r}, expected one of {FIELD_KINDS}")
        for name in ("amplitude", "angular_rate", "t_start", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end must exceed t_start")
        if not np.isfinite(float(self.t_end) - float(self.t_start)):
            raise ConfigError("t_end - t_start must be finite")

    def field(self, t):
        """B(t); a float for a scalar t, an array for an array of times.  A
        zero field is 0, never -0, whatever the amplitude's sign."""
        t = np.asarray(t, dtype=float)
        if self.kind == "sinusoid":
            b = self.amplitude * np.sin(self.angular_rate * t)
        elif self.kind == "linear_ramp":
            frac = (t - self.t_start) / (self.t_end - self.t_start)
            b = self.amplitude * (2.0 * frac - 1.0)
        else:
            b = np.full(t.shape, self.amplitude)
        return _as_float(0.0 + b)


def _as_float(value):
    """A float for a scalar, a float array otherwise."""
    value = np.asarray(value, dtype=float)
    return value if value.ndim else float(value)


def transition_rate(A: float, inv_temp: float, delta):
    """One-phonon rate A*delta^3/(1-exp(-inv_temp*delta)), elementwise
    for an array delta; its limit A*delta^2/inv_temp where inv_temp*delta
    underflows to 0 (so W(0)=0), and W=0 below the exp underflow."""
    if A <= 0 or inv_temp <= 0:
        raise ConfigError("transition_rate needs A > 0 and inv_temp > 0")
    delta = np.asarray(delta, dtype=float)
    t = inv_temp * delta
    with np.errstate(all="ignore"):  # dead entries (0/0, overflow) masked below
        rate = np.where(t == 0.0, A * delta * (delta / inv_temp),
                        -A * delta * delta * delta / np.expm1(-t))
    return _as_float(np.where(t < _EXP_UNDERFLOW, 0.0, rate))


def level_transition_rates(scale, params: RateParams) -> dict:
    """All six W_{NN'} for the ladder E_N = scale*N (scale may be an array),
    from its four deltas: (+,0) shares one with (0,-), (-,0) with (0,+)."""
    steps = {(a, b): _N_OF[a] - _N_OF[b] for a, b in LEVEL_PAIRS}
    rates = {step: transition_rate(params.A, params.inv_temp, scale * step)
             for step in set(steps.values())}
    return {pair: rates[step] for pair, step in steps.items()}


class RateCoefficients(NamedTuple):
    C1: float
    C2: float
    C3: float
    C4: float
    E: float
    F: float


def rate_matrix_coefficients(W: dict, mode: str = "derived") -> RateCoefficients:
    """Reduce the three-population master equation to (x, rho00).

    x = rho_++ - rho_--; d/dt (x, rho00) = [[C1,C2],[C3,C4]]·(x, rho00)
    + (E, F).  mode="derived" is the reduction itself;
    mode="paper_verbatim" reproduces a printed variant whose C1 differs
    from the derivation by +W_{+0}.  Rates may be arrays of equal shape;
    the coefficients are then arrays too.
    """
    if mode not in COEFF_MODES:
        raise ConfigError(f"unknown coefficient mode {mode!r}")
    try:
        w = {pair: _as_float(W[pair]) for pair in LEVEL_PAIRS}
    except KeyError as missing:
        raise ConfigError(f"rate table missing pair {missing}") from None
    if not all(np.min(rate) >= 0 for rate in w.values()):  # NaN fails too
        raise ConfigError("negative transition rate")
    wpo, wop = w[("+", "0")], w[("0", "+")]
    wmo, wom = w[("-", "0")], w[("0", "-")]
    wpm, wmp = w[("+", "-")], w[("-", "+")]
    c1 = -0.5 * (wpo + wmo) - wpm - wmp
    if mode == "paper_verbatim":
        c1 += wpo
    return RateCoefficients(
        C1=c1,
        C2=0.5 * (wpo - wmo) + wop - wom + wpm - wmp,
        C3=0.5 * (wpo - wmo),
        C4=-0.5 * (wpo + wmo + 2.0 * wop + 2.0 * wom),
        E=0.5 * (wmo - wpo) + wmp - wpm,
        F=0.5 * (wpo + wmo),
    )


def _populations(n, rho00):
    """(rho_++, rho_00, rho_--) from (n, rho00), floats or arrays."""
    return 0.5 * (1.0 - rho00 - n), rho00, 0.5 * (1.0 - rho00 + n)


def boltzmann_populations(scale: float, inv_temp: float) -> np.ndarray:
    """Boltzmann populations (p_+, p_0, p_-) over the ladder E_N = scale*N."""
    z = np.array([-inv_temp * scale, 0.0, inv_temp * scale])
    z -= z.max()
    p = np.exp(z)
    return p / p.sum()


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    B: np.ndarray
    M_norm: np.ndarray
    rho00: np.ndarray
    n: np.ndarray

    def populations(self):
        """(rho_++, rho_00, rho_--) arrays reconstructed from (n, rho00)."""
        return _populations(self.n, self.rho00)

    def population_defect(self) -> float:
        """Worst excursion of any population outside [0, 1]."""
        stacked = np.concatenate(self.populations())
        return float(max(np.max(stacked) - 1.0, -np.min(stacked), 0.0))

    def to_csv(self) -> Iterator[str]:
        return csv_pieces("t,B,M_norm,rho00,n",
                          (self.t, self.B, self.M_norm, self.rho00, self.n))


def _initial_state(init, scale0: float, params: RateParams):
    if isinstance(init, str):
        if init == "equilibrium":
            p = boltzmann_populations(scale0, params.inv_temp)
            return float(p[2] - p[0]), float(p[1])
        if init == "polarized_up":
            return -1.0, 0.0
        raise ConfigError(
            f"unknown init {init!r}; use 'equilibrium', 'polarized_up', "
            "or an explicit (n0, rho00) pair")
    try:
        n0, rho00 = (float(v) for v in init)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot interpret init {init!r}") from None
    pops = _populations(n0, rho00)
    if not all(-1e-9 <= pop <= 1.0 + 1e-9 for pop in pops):  # NaN fails too
        raise ConfigError(
            f"explicit init (n0={n0}, rho00={rho00}) implies populations "
            f"{pops} outside [0, 1]")
    return n0, rho00


def _apply(a, b):
    """The linear part of affine map a applied to affine map b, each stored
    as its 2x3 matrix [M | v] over any trailing axes, elementwise."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1]


def _advance(maps, y):
    """The states y + D·y + v, each y = (n, rho00) along the first axis."""
    return y + (maps[:, 0] * y[0] + maps[:, 1] * y[1] + maps[:, 2])


def _rk4_step_maps(d, h: float):
    """Each RK4 step as y_{i+1} = y_i + D_i·y_i + v_i, as [D | v], from the
    derivative maps at the nodes (one more than steps), then the half-nodes.
    Keeping the identity out keeps D's digits when h·D is small."""
    d_node, d_half = np.split(d, [(d.shape[-1] + 1) // 2], axis=-1)
    k1 = d_node[..., :-1]
    k2 = d_half + 0.5 * h * _apply(d_half, k1)
    k3 = d_half + 0.5 * h * _apply(d_half, k2)
    k4 = d_node[..., 1:] + h * _apply(d_node[..., 1:], k3)
    return (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _scan(maps, y0):
    """The states after each step [D | v] of maps (2x3 by m) from the (2, 1)
    column y0 = (n, rho00), in O(m) work: the steps as rows of _ROW (zero
    maps pad the last), composed a column at a time, the rows' totals scanned
    by doubling, and each row's prefixes applied to the state carried in."""
    p = np.pad(maps, [(0, 0), (0, 0), (0, -maps.shape[-1] % _ROW)])
    p = p.reshape(2, 3, -1, _ROW).swapaxes(2, 3).copy()  # columns contiguous
    for j in range(1, _ROW):  # step j of each row after steps 0..j-1
        p[:, :, j] += p[:, :, j - 1] + _apply(p[:, :, j], p[:, :, j - 1])
    total = p[:, :, -1].copy()
    for shift in (2 ** k for k in range((total.shape[-1] - 1).bit_length())):
        later, earlier = total[..., shift:], total[..., :-shift]
        later += earlier + _apply(later, earlier)
    y_in = np.concatenate([y0, _advance(total[..., :-1], y0)], axis=1)
    out = _advance(p, y_in[:, None]).swapaxes(1, 2).reshape(2, -1)
    return out[:, :maps.shape[-1]]


def _check_populations(t, n, rho00):
    """Raise at the first state outside the population window (or NaN)."""
    pops = np.array(_populations(n, rho00))
    inside = np.all((pops >= -POPULATION_WINDOW)
                    & (pops <= 1.0 + POPULATION_WINDOW), axis=0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise NumericalCheckError(
            f"populations left [0, 1] (window {POPULATION_WINDOW}) at t = "
            f"{t[i]:.6g}: ({pops[0, i]:.3e}, {pops[1, i]:.3e}, "
            f"{pops[2, i]:.3e}); increase n_steps")


def integrate_magnetization(params: RateParams, profile: FieldProfile,
                            init="equilibrium", n_steps: int = 2000,
                            lzs_mode: str = "off",
                            coeff_mode: str = "derived") -> Trajectory:
    """Fixed-step RK4 trajectory of (n, rho00) under the swept field: the
    affine maps of ``_COEFF_BLOCK`` steps at a time are scanned by ``_scan``
    from the state carried into the block, in O(n) work."""
    if n_steps < 10:
        raise ConfigError("n_steps must be at least 10")
    if lzs_mode not in LZS_MODES:
        raise ConfigError(f"unknown lzs_mode {lzs_mode!r}")

    gamma, gap = params.gamma, params.delta_gap
    adiabatic = lzs_mode == "adiabatic"

    def level_scale(b):
        return np.hypot(gamma * b, gap) if adiabatic else gamma * b

    def derivative(b):
        """d/dt (n, rho00) = [[C1, -C2], [-C3, C4]]·(n, rho00) + (-E, F),
        n = -x, as affine maps [M | v] at each field of the array b."""
        c = rate_matrix_coefficients(
            level_transition_rates(level_scale(b), params), coeff_mode)
        return np.array([[c.C1, -c.C2, -c.E], [-c.C3, c.C4, c.F]])

    h = (profile.t_end - profile.t_start) / n_steps
    t_nodes = profile.t_start + h * np.arange(n_steps + 1)
    b_nodes = profile.field(t_nodes)
    b_half = profile.field(t_nodes[:-1] + 0.5 * h)
    y = np.empty((2, n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # gated below
        b_peak = max(b_nodes.min(), b_nodes.max(), b_half.min(),
                     b_half.max(), key=abs)
        if not np.isfinite(derivative(np.array([b_peak]))).all():
            raise NumericalCheckError(
                f"transition rates are not finite at B = {b_peak:.6g}")
        y[:, 0] = _initial_state(init, level_scale(b_nodes[0]), params)
        for start in range(0, n_steps, _COEFF_BLOCK):
            stop = min(start + _COEFF_BLOCK, n_steps)
            maps = _rk4_step_maps(derivative(np.concatenate(
                [b_nodes[start:stop + 1], b_half[start:stop]])), h)
            y[:, start + 1:stop + 1] = _scan(maps, y[:, start:start + 1])
            _check_populations(t_nodes[start:stop + 1], *y[:, start:stop + 1])

    n = m_norm = y[0]  # one array, formatted once by the writer
    if adiabatic:  # times cos(beta); 0.0 + so that a zero is never -0
        omega = level_scale(b_nodes)
        m_norm = 0.0 + n * np.where(omega > 0.0, gamma * b_nodes / np.where(
            omega > 0.0, omega, 1.0), 0.0)
    return Trajectory(*read_only(t_nodes, b_nodes, m_norm, y[1], n))


def enclosed_area(traj: Trajectory, t_start: float = None,
                  t_end: float = None) -> float:
    """|closed-path integral of M dB| over the selected time window."""
    mask = np.ones(traj.t.size, dtype=bool)
    if t_start is not None:
        mask &= traj.t >= t_start - 1e-12
    if t_end is not None:
        mask &= traj.t <= t_end + 1e-12
    if mask.sum() < 2:
        raise ConfigError("window selects fewer than two samples")
    return float(abs(np.trapezoid(traj.M_norm[mask], traj.B[mask])))


# --- coupled two-moment model and its three-level reduction -----------

def lzs_three_level(B: float, delta_gap: float):
    """Avoided-crossing 3x3 block, its mixing angle, and eigenvalues.

    Returns (matrix, beta, eigenvalues-ascending).  beta satisfies
    cos(beta) = B/sqrt(B^2+delta_gap^2); it is undefined at B = delta_gap = 0.
    """
    if B == 0.0 and delta_gap == 0.0:
        raise ConfigError("mixing angle undefined at B = 0, delta_gap = 0")
    d = delta_gap / math.sqrt(2.0)
    matrix = np.array([
        [B, d, 0.0],
        [d, 0.0, d],
        [0.0, d, -B],
    ])
    beta = math.atan2(delta_gap, B)
    omega = math.hypot(B, delta_gap)
    return matrix, beta, np.array([-omega, 0.0, omega])


def lzs_eigenvectors(beta: float) -> np.ndarray:
    """Closed-form eigenvector columns, ordered like the ascending
    eigenvalues (-omega, 0, +omega) of :func:`lzs_three_level`."""
    c, s = math.cos(beta), math.sin(beta)
    r2 = math.sqrt(2.0)
    v_minus = np.array([0.5 * (1.0 - c), -s / r2, 0.5 * (1.0 + c)])
    v_zero = np.array([-s / r2, c, s / r2])
    v_plus = np.array([0.5 * (1.0 + c), s / r2, 0.5 * (1.0 - c)])
    return np.column_stack([v_minus, v_zero, v_plus])


# The joint eigenbasis of the exchange parity C = swap * exp(i pi S^z_tot)
# and the flip Gamma = F (x) F (F: m -> -m) of two spin-1 moments, as signs
# over the kets |m1 m2> at 3 (1 - m1) + 1 - m2: Gamma = +1, then -1, C = +1 first.
_PAIR_BASIS = np.array([[(c == "+") - (c == "-") for c in row] for row in (
    "+0000000+ 0000+0000 00+000+00 0+0-0-0+0 0+0+0+0+0 "
    "+0000000- 0+0-0+0-0 00+000-00 0+0+0-0-0").split()], dtype=float)


@functools.cache
def _spin1_pair_terms():
    """The Zeeman sum Lz + Rz and the y-cross term Lz Rx - Lx Rz of two
    spin-1 moments as read-only 5x4 blocks from Gamma = -1 to +1, gated once:
    all else is 0, as is each entry between C = +1 and C = -1."""
    sz, sx = np.diag([1.0, 0.0, -1.0]), np.eye(3, k=1) + np.eye(3, k=-1)
    norms = np.sum(_PAIR_BASIS ** 2, axis=1)  # squared; sx is sqrt(2) S^x (k = 2)
    zeeman, cross = (_PAIR_BASIS @ term @ _PAIR_BASIS.T / np.sqrt(k * np.outer(norms, norms))
                     for term, k in ((np.kron(sz, np.eye(3)) + np.kron(np.eye(3), sz), 1.0),
                                     (np.kron(sz, sx) - np.kron(sx, sz), 2.0)))
    blocks = np.zeros((9, 9), dtype=bool)
    blocks[:4, 5:7] = blocks[5:7, :4] = blocks[4, 7:] = blocks[7:, 4] = True
    if np.any(zeeman[~blocks]) or np.any(cross[~blocks]):
        raise NumericalCheckError("the (C, Gamma) basis does not block the pair")
    return read_only(zeeman[:5, 5:], cross[:5, 5:])


def _sorted3(x, y, z):
    """x, y, z ascending on a new last axis by a min/max network; NaN spreads."""
    low, high = np.minimum(x, y), np.maximum(x, y)
    middle = np.minimum(high, z)
    return np.stack([np.minimum(low, middle), np.maximum(low, middle),
                     np.maximum(high, z)], axis=-1)


def _closed_form_magnitudes(b: np.ndarray, omega: np.ndarray, delta_gap: float):
    """Sorted magnitudes (2, n, 3) of the printed and the corrected radical at
    fields b, omega = hypot(b, delta_gap); True if a squared printed level is < 0."""
    # **4 on numpy scalars: np.power may differ in the last bit, and a
    # float's ** raises OverflowError where a numpy scalar gives inf
    b4 = np.array([value ** 4 for value in b])
    middle = 30.0 * b * b  # the corrected reading multiplies it by delta_gap^2
    radical = np.sqrt([9.0 * b4 + term + np.float64(delta_gap) ** 4
                       for term in (middle, middle * (delta_gap * delta_gap))])
    base = 5.0 * b * b + 3.0 * delta_gap * delta_gap
    ea_sq = 0.5 * (base + radical)
    eb_sq = 0.5 * (base - radical)
    imaginary = bool(np.any((eb_sq[0] < 0.0) | (ea_sq[0] < 0.0)))
    ea = np.sqrt(np.where(ea_sq < 0.0, 0.0, ea_sq))
    eb = np.sqrt(np.where(eb_sq < 0.0, 0.0, eb_sq))
    return _sorted3(omega, ea, eb), imaginary


@dataclass(frozen=True)
class LevelComparisonReport:
    b_grid: np.ndarray
    numeric: np.ndarray          # (n_grid, 3) ascending level magnitudes m
    printed: np.ndarray          # (n_grid, 3) uncorrected closed forms
    corrected: np.ndarray        # (n_grid, 3) dimensionally repaired forms
    printed_max_dev: np.ndarray  # (3,) per-magnitude worst gap vs numeric
    corrected_max_dev: np.ndarray
    printed_goes_imaginary: bool
    min_zero_count: int
    invariant_pair_max_dev: float

    def to_csv(self) -> Iterator[str]:
        """Nine rows per field point, one per level -m3..m3, as
        :func:`table.ladder_pieces` lays out each column's magnitudes."""
        return ladder_pieces("B,level,numeric,printed,corrected", self.b_grid,
                             (self.numeric, self.printed, self.corrected))


def _check_nine_levels(b_grid, m, omega, delta_gap):
    """Zero count and +-omega pair of the nine levels from sorted magnitudes m,
    each bound times max(1, max |m|): a level -m_k is as far from -omega as m_k
    from omega.  Raises at the first failing point, else (fewest zeros, worst gap)."""
    scale = np.maximum(1.0, m[:, 2])
    bound = LEVEL_ZERO_COUNT_ATOL * scale
    zeros = 3 * (0.0 <= bound) + 2 * np.count_nonzero(m <= bound[:, None], axis=1)
    gap = np.minimum(np.min(np.abs(m - omega[:, None]), axis=1), omega)
    missing = gap > INVARIANT_LEVEL_ATOL * scale
    failed = (zeros < 3) | missing
    if np.any(failed):
        i = int(np.argmax(failed))
        if zeros[i] < 3:
            raise NumericalCheckError(
                f"only {zeros[i]} zero eigenvalues at B = {b_grid[i]:.6g} "
                f"(delta_gap = {delta_gap})")
        raise NumericalCheckError(
            f"level {omega[i]:.6g} missing from 9x9 spectrum at "
            f"B = {b_grid[i]:.6g}: nearest is {gap[i]:.3e} away")
    return int(zeros.min()), float(gap.max())


def _eigvalsh2(a, b, c):
    """Eigenvalues (rt1, rt2), |rt1| >= |rt2|, of symmetric [[a, b], [b, c]] by
    LAPACK's dlae2 in correctly rounded ufuncs: the same bits on any kernels."""
    sm, adf, ab = a + c, np.abs(a - c), np.abs(b + b)
    big, small = np.maximum(adf, ab), np.minimum(adf, ab)
    rt = big * np.sqrt(1.0 + (small / np.where(big > 0.0, big, 1.0)) ** 2)
    rt1 = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
    acmx, acmn = (np.where(np.abs(a) > np.abs(c), *pair) for pair in ((a, c), (c, a)))
    with np.errstate(divide="ignore", invalid="ignore"):  # rt1 = 0 only where sm = 0
        rt2 = np.where(sm != 0.0, (acmx / rt1) * acmn - (b / rt1) * b, 0.0 - rt1)
    return rt1, rt2


def coupled_levels_report(B_grid, delta_gap: float,
                          gamma: float = 1.0) -> LevelComparisonReport:
    """Exact 9x9 spectra against both readings of the closed forms.

    Asserts only the robust pieces - at least three zero eigenvalues
    and the +-sqrt((gamma*B)^2+delta_gap^2) pair - and reports the rest.
    In the basis of ``_spin1_pair_terms`` each 9x9 is [[0, M], [M^T, 0]]:
    its levels are 0 three times and +-the singular values of M.
    """
    b_grid = np.asarray(B_grid, dtype=float).reshape(-1)
    if b_grid.size == 0:
        raise ConfigError("empty field grid")
    zeeman, cross = _spin1_pair_terms()
    with np.errstate(over="ignore", invalid="ignore"):  # rejected or gated here
        b_eff = gamma * b_grid
        if not (np.all(np.isfinite(b_eff)) and math.isfinite(delta_gap)):
            raise ConfigError("levels report needs finite fields, gamma*B and delta_gap")
        # M's 4x2 block of C = +1 and 1x2 block of C = -1, fields last
        plus = zeeman[:4, :2, None] * b_eff + delta_gap * cross[:4, :2, None]
        minus = zeeman[4, 2:, None] * b_eff + delta_gap * cross[4, 2:, None]
        # each C = +1 block scaled to 1: a Gram matrix never overflows
        scale = np.max(np.abs(plus), axis=(0, 1))
        unit = plus / np.where(scale > 0.0, scale, 1.0)
        # its Gram entries summed over the four rows in turn, then gated as a stack
        g00, g01, g11 = sum(unit[:, [0, 0, 1]] * unit[:, [0, 1, 1]])
        hermitian(np.stack([g00, g01, g01, g11], axis=1).reshape(-1, 2, 2))
    sigma = (scale * np.sqrt(np.maximum(rt, 0.0)) for rt in _eigvalsh2(g00, g01, g11))
    m = _sorted3(np.hypot(*minus), *sigma)
    # math.hypot, not np.hypot, whose last bits differ: the pinned closed forms use it
    omega = np.array([math.hypot(value, delta_gap) for value in b_eff.tolist()])
    closed, any_imag = _closed_form_magnitudes(b_eff, omega, delta_gap)
    gates = _check_nine_levels(b_grid, m, omega, delta_gap)
    if not np.isfinite(closed).all():
        raise NumericalCheckError("closed-form levels overflow on this grid")
    dev = np.max(np.abs(closed - m), axis=1)
    return LevelComparisonReport(b_grid, m, *closed, *dev, any_imag, *gates)
