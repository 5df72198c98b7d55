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
from .operators import hermitian, read_only, spin_matrices
from .table import csv_pieces

DETAILED_BALANCE_RTOL = 1e-12
POPULATION_WINDOW = 1e-6      # integrator abort threshold
LEVEL_ZERO_COUNT_ATOL = 1e-9  # times max(1, max |level|) at each field
INVARIANT_LEVEL_ATOL = 1e-9   # times max(1, max |level|) at each field
_EXP_UNDERFLOW = -700.0
_COEFF_BLOCK = 4096  # RK4 steps per coefficient evaluation; bounds memory
_FIELD_BLOCK = 4096  # field points per stacked 9x9 eigvalsh; bounds memory

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
        """B(t); a float for a scalar t, an array for an array of times."""
        t = np.asarray(t, dtype=float)
        if self.kind == "sinusoid":
            b = self.amplitude * np.sin(self.angular_rate * t)
        elif self.kind == "linear_ramp":
            frac = (t - self.t_start) / (self.t_end - self.t_start)
            b = self.amplitude * (2.0 * frac - 1.0)
        else:
            b = np.full(t.shape, self.amplitude)
        return _as_float(b)


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
    """All six W_{NN'} for the ladder E_N = scale*N (scale may be an array)."""
    rates = {}
    for a, b in LEVEL_PAIRS:
        delta = scale * (_N_OF[a] - _N_OF[b])
        rates[(a, b)] = transition_rate(params.A, params.inv_temp, delta)
    return rates


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
    as the six component rows (M00, M01, M10, M11, v0, v1), elementwise."""
    a00, a01, a10, a11 = a[:4]
    b00, b01, b10, b11, w0, w1 = b
    return np.array([a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
                     a10 * b00 + a11 * b10, a10 * b01 + a11 * b11,
                     a00 * w0 + a01 * w1, a10 * w0 + a11 * w1])


def _rk4_step_maps(d_node, d_half, h: float):
    """Each RK4 step as y_{i+1} = y_i + D_i·y_i + v_i, rows (D, v), from the
    derivative maps at the nodes (one more than steps) and half-nodes.
    Keeping the identity out keeps D's digits when h·D is small."""
    k1 = d_node[:, :-1]
    k2 = d_half + 0.5 * h * _apply(d_half, k1)
    k3 = d_half + 0.5 * h * _apply(d_half, k2)
    k4 = d_node[:, 1:] + h * _apply(d_node[:, 1:], k3)
    return (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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
    affine maps of ``_COEFF_BLOCK`` steps at a time are composed by
    Hillis-Steele doubling and applied to the state carried into the block."""
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
        n = -x, as affine-map rows at each field of the array b."""
        c = rate_matrix_coefficients(
            level_transition_rates(level_scale(b), params), coeff_mode)
        return np.array([c.C1, -c.C2, -c.C3, c.C4, -c.E, c.F])

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
            maps = _rk4_step_maps(derivative(b_nodes[start:stop + 1]),
                                  derivative(b_half[start:stop]), h)
            for shift in (2 ** k for k in range((stop - start - 1).bit_length())):
                later, earlier = maps[:, shift:], maps[:, :-shift]
                maps[:, shift:] = later + earlier + _apply(later, earlier)
            (d00, d01, d10, d11, v0, v1), (n0, rho0) = maps, y[:, start]
            y[:, start + 1:stop + 1] = (n0 + (d00 * n0 + d01 * rho0 + v0),
                                        rho0 + (d10 * n0 + d11 * rho0 + v1))
            _check_populations(t_nodes[start:stop + 1], *y[:, start:stop + 1])

    n = m_norm = y[0]  # one array, formatted once by the writer
    if adiabatic:  # times cos(beta)
        omega = level_scale(b_nodes)
        m_norm = n * np.where(omega > 0.0, gamma * b_nodes / np.where(
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


@functools.cache
def _spin1_pair_terms():
    """The Zeeman sum Lz + Rz and the y-cross term (L x R)_y = Lz Rx - Lx Rz
    of two spin-1 moments as real read-only 9x9 matrices, gated once: both
    are exactly symmetric, so every b * Zeeman + delta_gap * cross is too."""
    sx, _, sz = (op.real for op in spin_matrices(1.0))  # S^y alone is complex
    eye = np.eye(3)
    (lx, rx), (lz, rz) = ((np.kron(op, eye), np.kron(eye, op)) for op in (sx, sz))
    return read_only(*hermitian(np.stack([lz + rz, lz @ rx - lx @ rz])))


def coupled_spin1_hamiltonian(B, delta_gap: float,
                              gamma: float = 1.0) -> np.ndarray:
    """Two exchange-locked moments: Zeeman term plus y-component of the
    antisymmetric coupling, on the 3x3 product space of two spin-1's.
    An array of fields gives a stack of 9x9 matrices, one per field."""
    zeeman, cross = _spin1_pair_terms()
    b_eff = gamma * np.asarray(B, dtype=float)
    return b_eff[..., None, None] * zeeman + delta_gap * cross


def _nine_level_closed_forms(b: np.ndarray, omega: np.ndarray, delta_gap: float):
    """Sorted 9-level predictions of the printed and the corrected radical,
    one row per effective field in b, where omega is hypot(b, delta_gap);
    flag True if a squared printed level went negative."""
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
    zero, omega = np.zeros_like(ea), np.broadcast_to(omega, ea.shape)
    printed, corrected = np.sort(np.stack(
        [zero, zero, zero, omega, -omega, ea, -ea, eb, -eb], axis=2), axis=2)
    return printed, corrected, imaginary


@dataclass(frozen=True)
class LevelComparisonReport:
    b_grid: np.ndarray
    delta_gap: float
    gamma: float
    numeric: np.ndarray          # (n_grid, 9) sorted eigenvalues
    printed: np.ndarray          # (n_grid, 9) uncorrected closed forms
    corrected: np.ndarray        # (n_grid, 9) dimensionally repaired forms
    printed_max_dev: np.ndarray  # (9,) per-level worst gap vs numeric
    corrected_max_dev: np.ndarray
    printed_goes_imaginary: bool
    min_zero_count: int
    invariant_pair_max_dev: float

    def to_csv(self) -> Iterator[str]:
        """One row per field point and level; each field and the level
        indices, floats 0.0 ... 8.0 that print as 0 ... 8, are encoded once."""
        point, level = np.divmod(np.arange(self.numeric.size), 9)
        return csv_pieces("B,level,numeric,printed,corrected", (
            (self.b_grid, point), (np.arange(9.0), level),
            self.numeric.ravel(), self.printed.ravel(), self.corrected.ravel()))


def _check_nine_levels(b_grid, evals, omega, delta_gap):
    """Zero count and the +-omega pair at each point, each bound times
    max(1, max_k |E_k|) there; raises at the first failing point.  Returns
    (fewest zeros, worst pair gap)."""
    scale = np.maximum(1.0, np.max(np.abs(evals), axis=1, keepdims=True))
    zeros = np.count_nonzero(np.abs(evals) <= LEVEL_ZERO_COUNT_ATOL * scale, axis=1)
    targets = np.stack([omega, -omega], axis=1)
    devs = np.min(np.abs(evals[:, None, :] - targets[:, :, None]), axis=2)
    missing = devs > INVARIANT_LEVEL_ATOL * scale
    failed = (zeros < 3) | np.any(missing, axis=1)
    if np.any(failed):
        i = int(np.argmax(failed))
        if zeros[i] < 3:
            raise NumericalCheckError(
                f"only {zeros[i]} zero eigenvalues at B = {b_grid[i]:.6g} "
                f"(delta_gap = {delta_gap})")
        k = int(np.argmax(missing[i]))
        raise NumericalCheckError(
            f"level {targets[i, k]:.6g} missing from 9x9 spectrum at "
            f"B = {b_grid[i]:.6g}: nearest is {devs[i, k]:.3e} away")
    return int(zeros.min()), float(devs.max())


def coupled_levels_report(B_grid, delta_gap: float,
                          gamma: float = 1.0) -> LevelComparisonReport:
    """Exact 9x9 spectra against both readings of the closed forms.

    Asserts only the robust pieces - at least three zero eigenvalues
    and the +-sqrt((gamma*B)^2+delta_gap^2) pair - and reports the rest.
    Real symmetric, eigenvalues only: ``_FIELD_BLOCK`` points per eigvalsh.
    """
    b_grid = np.asarray(B_grid, dtype=float).reshape(-1)
    if b_grid.size == 0:
        raise ConfigError("empty field grid")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        b_eff = gamma * b_grid
    if not (np.all(np.isfinite(b_eff)) and math.isfinite(delta_gap)):
        raise ConfigError(
            "levels report needs finite fields, gamma*B and delta_gap")
    numeric = np.empty((b_grid.size, 9))
    for start in range(0, b_grid.size, _FIELD_BLOCK):
        block = slice(start, start + _FIELD_BLOCK)
        stack = coupled_spin1_hamiltonian(b_grid[block], delta_gap, gamma)
        if not np.isfinite(stack).all():  # overflowed: its bound is NaN
            hermitian(stack)
        numeric[block] = np.linalg.eigvalsh(stack)
    # math.hypot: np.hypot may take a SIMD path that differs in the last bit
    omega = np.array([math.hypot(value, delta_gap) for value in b_eff.tolist()])
    printed, corrected, any_imag = _nine_level_closed_forms(b_eff, omega, delta_gap)
    min_zeros, worst_invariant = _check_nine_levels(b_grid, numeric, omega,
                                                    delta_gap)
    if not (np.isfinite(printed).all() and np.isfinite(corrected).all()):
        raise NumericalCheckError("closed-form levels overflow on this grid")
    return LevelComparisonReport(
        b_grid=b_grid,
        delta_gap=float(delta_gap),
        gamma=float(gamma),
        numeric=numeric,
        printed=printed,
        corrected=corrected,
        printed_max_dev=np.max(np.abs(printed - numeric), axis=0),
        corrected_max_dev=np.max(np.abs(corrected - numeric), axis=0),
        printed_goes_imaginary=any_imag,
        min_zero_count=min_zeros,
        invariant_pair_max_dev=worst_invariant,
    )
