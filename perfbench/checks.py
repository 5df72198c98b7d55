"""Output checks, made from outside the program.

Each checker takes the text an invocation wrote to stdout and the spec it
was generated from, and returns a list of problems (empty when the output
is correct).  The checks compare values within tolerances, never bytes,
so an output format that changes within stated bounds still passes.
Reference values are built here from first principles (Pauli matrices,
``np.linalg.eigvalsh``), not with the package's own functions.
"""

import json
import math
import random

import numpy as np

TRAJECTORY_POP_TOL = 1e-7   # population bound the program claims for output
VALUE_RTOL = 1e-9
LOOP_AREA_RTOL = 1e-9
PHASE_SAMPLES = 64

_MULTIPLICITY = {"quintet": 5, "triplet1": 3, "triplet2": 3, "triplet3": 3,
                 "singlet_plus": 1, "singlet_minus": 1}
_SPIN = {"quintet": 2.0, "triplet1": 1.0, "triplet2": 1.0, "triplet3": 1.0,
         "singlet_plus": 0.0, "singlet_minus": 0.0}


def _parse_numeric_csv(text, header, n_rows, problems):
    """Float table of a CSV whose columns are all numbers, or None."""
    lines = text.split("\n")
    if lines[0] != header:
        problems.append(f"header {lines[0][:80]!r} != {header!r}")
        return None
    if lines[-1] != "" or len(lines) - 2 != n_rows:
        problems.append(f"{len(lines) - 2} data rows, expected {n_rows}")
        return None
    n_cols = header.count(",") + 1
    fields = ",".join(lines[1:-1]).split(",")
    if len(fields) != n_rows * n_cols:
        problems.append(f"{len(fields)} fields, expected {n_rows * n_cols}")
        return None
    try:
        table = np.array(fields, dtype=float).reshape(n_rows, n_cols)
    except ValueError as exc:
        problems.append(f"unparsable number: {exc}")
        return None
    if not np.isfinite(table).all():
        problems.append("non-finite value in CSV")
        return None
    return table


def _worst(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def check_simulate(text, spec):
    problems = []
    n_steps = spec["n_steps"]
    table = _parse_numeric_csv(text, "t,B,M_norm,rho00,n", n_steps + 1,
                               problems)
    if table is None:
        return problems
    t, b, m_norm, rho00, n = table.T
    t0, t1 = spec["t_start"], spec["t_end"]
    grid = t0 + (t1 - t0) / n_steps * np.arange(n_steps + 1)
    if _worst(t, grid) > VALUE_RTOL * max(1.0, abs(t0), abs(t1)):
        problems.append("t grid is not uniform on [t_start, t_end]")
    field = spec["amplitude"] * np.sin(spec["angular_rate"] * t)
    if _worst(b, field) > VALUE_RTOL * max(1.0, abs(spec["amplitude"])):
        problems.append("B != A sin(omega t)")
    plus = 0.5 * (1.0 - rho00 - n)
    minus = 0.5 * (1.0 - rho00 + n)
    pops = np.concatenate([plus, rho00, minus])
    if pops.min() < -TRAJECTORY_POP_TOL or pops.max() > 1 + TRAJECTORY_POP_TOL:
        problems.append(f"populations leave [0, 1]: {pops.min():.3e}, "
                        f"{pops.max():.3e}")
    if spec["lzs_mode"] == "adiabatic":
        zb = spec["gamma"] * b
        omega = np.hypot(zb, spec["delta_gap"])
        want = np.where(omega > 0, zb / np.where(omega > 0, omega, 1.0), 0.0) * n
    else:
        want = n
    if _worst(m_norm, want) > VALUE_RTOL:
        problems.append(f"M_norm does not match lzs_mode {spec['lzs_mode']}")
    if spec.get("loop_area") is not None:
        area = abs(float(np.trapezoid(m_norm, b)))
        if abs(area - spec["loop_area"]) > LOOP_AREA_RTOL * spec["loop_area"]:
            problems.append(f"loop area {area!r} != recorded "
                            f"{spec['loop_area']!r}")
    return problems


def _pauli_spins(n_sites):
    """Site spin operators S_k = sigma_k / 2 of an n-site register."""
    half = [np.array([[0, 0.5], [0.5, 0]], dtype=complex),
            np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
            np.array([[0.5, 0], [0, -0.5]], dtype=complex)]
    return [[np.kron(np.kron(np.eye(2**site), s), np.eye(2**(n_sites - site - 1)))
             for s in half] for site in range(n_sites)]


_SPINS4 = _pauli_spins(4)


def parallelogram_dense(a12, a13):
    """Dense 16x16 Heisenberg Hamiltonian of the four-site family member
    with both opposite edges equal (a34 = a12)."""
    couplings = {(1, 2): a12, (3, 4): a12, (1, 3): a13, (2, 4): a13,
                 (1, 4): (a12 + 2 * a13) / 3.0,
                 (2, 3): (5 * a12 - 2 * a13) / 3.0}
    h = np.zeros((16, 16), dtype=complex)
    for (i, j), value in couplings.items():
        si, sj = _SPINS4[i - 1], _SPINS4[j - 1]
        h += value * sum(a @ b for a, b in zip(si, sj))
    return h


def check_phase_map(text, spec):
    problems = []
    n_grid = spec["n_grid"]
    lines = text.split("\n")
    header = "a12,a13,ground_labels,ground_S,ground_energy"
    if lines[0] != header:
        return [f"header {lines[0][:80]!r} != {header!r}"]
    if lines[-1] != "" or len(lines) - 2 != n_grid * n_grid:
        return [f"{len(lines) - 2} rows, expected {n_grid * n_grid}"]
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != 5 for row in rows):
        return ["row without 5 fields"]
    try:
        nums = np.array([(r[0], r[1], r[4]) for r in rows], dtype=float)
    except ValueError as exc:
        return [f"unparsable number: {exc}"]
    if not np.isfinite(nums).all():
        return ["non-finite value in phase map"]
    a12_axis = np.linspace(*spec["a12_range"], n_grid)
    a13_axis = np.linspace(*spec["a13_range"], n_grid)
    scale = max(1.0, *map(abs, spec["a12_range"] + spec["a13_range"]))
    if (_worst(nums[:, 0], np.repeat(a12_axis, n_grid)) > VALUE_RTOL * scale
            or _worst(nums[:, 1], np.tile(a13_axis, n_grid)) > VALUE_RTOL * scale):
        problems.append("coupling grid differs from the requested window")
    rng = random.Random(spec["sample_seed"])
    for k in rng.sample(range(len(rows)), PHASE_SAMPLES):
        a12, a13, energy = nums[k]
        labels = rows[k][2].split(";")
        if any(label not in _MULTIPLICITY for label in labels):
            problems.append(f"row {k}: unknown label in {rows[k][2]!r}")
            continue
        evals = np.linalg.eigvalsh(parallelogram_dense(a12, a13))
        tol = 10 * VALUE_RTOL * max(1.0, float(np.max(np.abs(evals))))
        if abs(energy - evals[0]) > tol:
            problems.append(f"row {k}: ground energy {energy!r} != "
                            f"eigvalsh {evals[0]!r}")
        degeneracy = int(np.count_nonzero(evals <= evals[0] + tol))
        if degeneracy != sum(_MULTIPLICITY[label] for label in labels):
            problems.append(f"row {k}: labels {labels} do not give the "
                            f"ground degeneracy {degeneracy}")
        spins = {_SPIN[label] for label in labels}
        want_s = "degenerate-mixed" if len(spins) > 1 else spins.pop()
        got_s = rows[k][3]
        if isinstance(want_s, str):
            ok = got_s == want_s
        else:
            ok = got_s != "degenerate-mixed" and float(got_s) == want_s
        if not ok:
            problems.append(f"row {k}: ground_S {got_s!r}, expected {want_s}")
    return problems


def _spin1_operators():
    s = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
    sz = np.diag([1.0, 0.0, -1.0])
    eye = np.eye(3)
    return (np.kron(sx, eye), np.kron(sz, eye),
            np.kron(eye, sx), np.kron(eye, sz))


def coupled_spin1_stack(b_grid, delta_gap, gamma):
    """Stacked 9x9 Hamiltonians gamma B (Lz + Rz) + delta (L x R)_y of two
    spin-1 moments, one per field value; real because only x and z enter."""
    lx, lz, rx, rz = _spin1_operators()
    zeeman = lz + rz
    cross_y = lz @ rx - lx @ rz
    return (gamma * np.asarray(b_grid)[:, None, None] * zeeman
            + delta_gap * cross_y)


def check_levels_report(text, spec):
    problems = []
    n = spec["n_grid"]
    table = _parse_numeric_csv(text, "B,level,numeric,printed,corrected",
                               9 * n, problems)
    if table is None:
        return problems
    b_grid = np.linspace(spec["b_min"], spec["b_max"], n)
    scale = max(1.0, abs(spec["b_min"]), abs(spec["b_max"]))
    if _worst(table[:, 0], np.repeat(b_grid, 9)) > VALUE_RTOL * scale:
        problems.append("field grid differs from the requested sweep")
    if not np.array_equal(table[:, 1], np.tile(np.arange(9.0), n)):
        problems.append("level column is not 0..8 per field point")
    numeric = table[:, 2].reshape(n, 9)
    want = np.linalg.eigvalsh(coupled_spin1_stack(
        b_grid, spec["delta_gap"], spec["gamma"]))
    tol = VALUE_RTOL * max(1.0, float(np.max(np.abs(want))))
    worst = _worst(numeric, want)
    if worst > tol:
        problems.append(f"numeric levels differ from eigvalsh by {worst:.3e}")
    zeros = np.count_nonzero(np.abs(numeric) <= 1e-9, axis=1)
    if zeros.min() < 3:
        problems.append(f"a field point has only {zeros.min()} zero levels")
    omega = np.hypot(spec["gamma"] * b_grid, spec["delta_gap"])[:, None]
    for sign in (1.0, -1.0):
        gap = np.min(np.abs(numeric - sign * omega), axis=1).max()
        if gap > 1e-9 * scale:
            problems.append(f"level {sign:+.0f}*sqrt((gamma B)^2 + delta^2) "
                            f"missing (off by {gap:.3e})")
    return problems


def _reject_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


def _finite(doc):
    if isinstance(doc, dict):
        return all(_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite(v) for v in doc)
    if isinstance(doc, float):
        return math.isfinite(doc)
    return True


def _load_json(text, problems):
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"invalid JSON: {exc}")
        return None
    if not isinstance(doc, dict) or not _finite(doc):
        problems.append("JSON output is not a finite object")
        return None
    return doc


def _close(got, want, scale=1.0):
    return abs(got - want) <= VALUE_RTOL * max(1.0, abs(scale))


def _algebra_checks(kind, doc, spec):
    dim = 2 ** spec["sites"]
    if kind == "q-spectrum":
        total = sum(e["multiplicity"] for e in doc["eigenvalues"])
        if total != dim or len(doc["states"]) != dim:
            yield f"multiplicities sum to {total}, expected {dim}"
    elif kind == "check-yangian":
        if not doc["level_zero_residual"] <= VALUE_RTOL:
            yield f"level-zero residual {doc['level_zero_residual']!r}"
    elif kind == "commutant":
        want = {3: 2, 4: 3}[spec["sites"]]
        if doc["dimension"] != want or len(doc["basis"]) != want:
            yield f"commutant dimension {doc['dimension']}, expected {want}"
    elif kind == "moments":
        want = -spec["g"] * spec["m"]
        if not _close(doc["total"], want, spec["g"]):
            yield f"moments total {doc['total']!r} != -g m = {want!r}"
        if len(doc["mu"]) != spec["sites"] or doc["label"] != spec["label"]:
            yield "moments output does not match the requested state"
    elif kind == "spectrum":
        total = sum(lev["multiplicity"] for lev in doc["levels"])
        if total != dim:
            yield f"multiplicities sum to {total}, expected {dim}"
        scale = sum(abs(lev["energy"]) * lev["multiplicity"]
                    for lev in doc["levels"])
        if not _close(doc["weighted_sum"], 0.0, scale):
            yield f"weighted sum {doc['weighted_sum']!r} != 0"


def check_algebra(kind, text, spec):
    problems = []
    doc = _load_json(text, problems)
    if doc is None:
        return problems
    try:
        problems.extend(_algebra_checks(kind, doc, spec))
    except (KeyError, TypeError) as exc:
        problems.append(f"{kind} output lacks a field: {exc!r}")
    return problems


def check(command, text, spec):
    """Problems with the output of one invocation of ``command``."""
    if command == "simulate":
        return check_simulate(text, spec)
    if command == "phase-map":
        return check_phase_map(text, spec)
    if command == "levels-report":
        return check_levels_report(text, spec)
    return check_algebra(command, text, spec)
