"""Command-line front end.

One JSON config document per invocation (positional path or
``--config``), optionally seeded from a named preset; scalar flags
override config fields.  All output is deterministic: JSON with sorted
keys, CSV floats at 17 significant digits.  Exit codes: 0 success,
2 configuration/validation problem, 3 failed numerical check.
"""

import argparse
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, multiplets, observables, spectra, symmetry, yangian
from .errors import ConfigError, NumericalCheckError
from .operators import SpinRegister

PRESETS = {
    "v6-triangle": {
        "spectrum": {"family": "triangle", "J12": 65.0, "J13": 7.0},
        "moments": {"sites": 3, "J12": 65.0, "J13": 7.0, "m": -0.5},
    },
    "v8-ground": {
        "spectrum": {"family": "parallelogram", "a12": 1.0, "a13": -3.0},
        "moments": {"sites": 4, "a12": 1.0, "a13": -3.0, "m": -1.0},
    },
    "fig4-loop": {
        "simulate": {
            "field": {"kind": "sinusoid", "amplitude": 10.0,
                      "angular_rate": 1.0, "t_start": 0.0,
                      "t_end": 2.0 * math.pi},
            "init": "equilibrium",
            "n_steps": 100000,
            "lzs_mode": "off",
        },
    },
    "fig5-lzs": {
        "simulate": {
            "field": {"kind": "sinusoid", "amplitude": 10.0,
                      "angular_rate": 1.0, "t_start": 0.0,
                      "t_end": math.pi},
            "delta_gap": 0.1,
            "init": "equilibrium",
            "n_steps": 100000,
            "lzs_mode": "adiabatic",
        },
    },
}

# closed-form family -> config keys of its two couplings
_COUPLINGS = {"triangle": ("J12", "J13"), "parallelogram": ("a12", "a13")}
_FAMILY_OF_SITES = {3: "triangle", 4: "parallelogram"}
_FIELD_KEYS = {"kind", "amplitude", "angular_rate", "t_start", "t_end"}
_SCHEMAS = {
    "q-spectrum": {"sites", "weights"},
    "check-yangian": {"sites", "weights"},
    "commutant": {"sites", "weights"},
    "spectrum": {"family", "J12", "J13", "a12", "a13"},
    "phase-map": {"a12_range", "a13_range", "n_grid"},
    "moments": {"sites", "J12", "J13", "a12", "a13", "m", "g", "label"},
    "levels-report": {"b_min", "b_max", "n_grid", "delta_gap", "gamma"},
    "simulate": {"A", "inv_temp", "gamma", "delta_gap", "field", "init",
                 "n_steps", "lzs_mode", "mode"},
}


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _validate_keys(cfg: dict, command: str):
    unknown = set(cfg) - _SCHEMAS[command]
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {sorted(unknown)}")
    if "field" in cfg:
        if not isinstance(cfg["field"], dict):
            raise ConfigError("'field' must be an object")
        bad = set(cfg["field"]) - _FIELD_KEYS
        if bad:
            raise ConfigError(f"unknown field keys: {sorted(bad)}")


def _require(cfg: dict, command: str, *names):
    missing = [name for name in names if name not in cfg]
    if missing:
        raise ConfigError(f"{command} config is missing {missing}")
    return [cfg[name] for name in names]


def _integer(value, name: str) -> int:
    """A config value read by ``int``; ConfigError when it cannot be."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _finite(value, name: str) -> float:
    """A config value read by ``float``; ConfigError unless finite."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _register_and_weights(cfg):
    sites = _integer(cfg.get("sites", 3), "sites")
    register = SpinRegister(sites)
    weights = cfg.get("weights", [0.0] * sites)
    if not isinstance(weights, (list, tuple)) or len(weights) != sites:
        raise ConfigError(f"weights must be a list of {sites} numbers")
    return register, [_finite(w, "weights") for w in weights]


def _cmd_q_spectrum(cfg) -> str:
    register, weights = _register_and_weights(cfg)
    spectrum = yangian.q_spectrum(register, weights)
    states = yangian.q_joint_labels(register, weights)
    doc = {
        "sites": register.n_sites,
        "weights": weights,
        "eigenvalues": [{"value": value, "multiplicity": count}
                        for value, count in spectrum.multiplicities()],
        "states": [{"S": st.S, "m": st.m, "q": st.q,
                    "degenerate": st.degenerate} for st in states],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_check_yangian(cfg) -> str:
    register, weights = _register_and_weights(cfg)
    report = yangian.check_yangian_axioms(register, weights)
    doc = {"sites": register.n_sites, "weights": weights}
    doc.update(dataclasses.asdict(report))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_commutant(cfg) -> str:
    register, weights = _register_and_weights(cfg)
    family = symmetry.commutant_family(register, yangian.build_q(register, weights))
    pairs = symmetry.pair_order(register.n_sites)
    doc = {
        "sites": register.n_sites,
        "weights": weights,
        "dimension": family.dimension,
        "pair_order": [f"{i}-{j}" for i, j in pairs],
        "basis": [{f"{i}-{j}": member.a[(i, j)] for i, j in pairs}
                  for member in family.basis],
        "singular_values": [float(s) for s in family.singular_values],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _levelset_for(cfg, command: str, family: str):
    if family not in _COUPLINGS:
        raise ConfigError(f"unknown family {family!r}")
    names = _COUPLINGS[family]
    params = {name: _finite(value, name)
              for name, value in zip(names, _require(cfg, command, *names))}
    levels = (spectra.triangle_levels if family == "triangle"
              else spectra.parallelogram_levels)
    return params, levels(*params.values())


def _cmd_spectrum(cfg) -> str:
    family = cfg.get("family", "parallelogram")
    params, levelset = _levelset_for(cfg, "spectrum", family)
    doc = {
        "family": family,
        "params": params,
        "levels": [dataclasses.asdict(lev) for lev in levelset.levels],
        "weighted_sum": levelset.weighted_sum(),
        "ground_labels": levelset.ground_labels(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_phase_map(cfg) -> str:
    a12_range, a13_range, n_grid = _require(
        cfg, "phase-map", "a12_range", "a13_range", "n_grid")
    points = spectra.phase_map(a12_range, a13_range,
                               _integer(n_grid, "n_grid"))
    lines = ["a12,a13,ground_labels,ground_S,ground_energy"]
    for pt in points:
        spin = pt.ground_S if isinstance(pt.ground_S, str) else _fmt(pt.ground_S)
        lines.append(",".join([
            _fmt(pt.a12), _fmt(pt.a13), ";".join(pt.ground_labels),
            spin, _fmt(pt.ground_energy),
        ]))
    return "\n".join(lines) + "\n"


def _cmd_moments(cfg) -> str:
    sites = _integer(cfg.get("sites", 4), "sites")
    if sites not in _FAMILY_OF_SITES:
        raise ConfigError("moments needs sites = 3 or 4")
    register = SpinRegister(sites)
    family = _FAMILY_OF_SITES[sites]
    params, levelset = _levelset_for(cfg, "moments", family)
    g = _finite(cfg.get("g", 2.0), "g")
    label = cfg.get("label")
    if label is None:
        winners = levelset.ground_labels()
        if len(winners) > 1:
            raise ConfigError(
                f"ground level is degenerate ({winners}); pass 'label'")
        label = winners[0]
    if label not in levelset.by_label():
        raise ConfigError(f"unknown level label {label!r}")
    level = levelset.by_label()[label]
    m = _finite(cfg.get("m", -level.S), "m")
    if abs(m) > level.S or (2.0 * m) != round(2.0 * m):
        raise ConfigError(f"m = {m} is not a valid projection for S = {level.S}")
    spin, q_target, occurrence = spectra.invariant_key(family, label)
    matches = [st for st in multiplets.invariant_eigenstates(register)
               if st.S == spin and st.m == m and abs(st.q - q_target) < 1e-9]
    if occurrence >= len(matches):
        raise ConfigError(
            f"no invariant state with S = {spin}, m = {m} for {label!r}")
    state = matches[occurrence]
    hamiltonian = (spectra.triangle_hamiltonian if family == "triangle"
                   else spectra.parallelogram_hamiltonian)
    ham = hamiltonian(register, *params.values())
    residual = float(np.linalg.norm(ham @ state.vector - level.energy * state.vector))
    scale = max(1.0, abs(level.energy))
    if residual > 1e-9 * scale:
        raise NumericalCheckError(
            f"state for {label!r} fails its eigen-equation: residual {residual:.3e}")
    moments = observables.local_moments(register, state.vector, g)
    doc = {
        "sites": sites,
        "params": params,
        "label": label,
        "S": level.S,
        "m": m,
        "energy": level.energy,
        "g": moments.g,
        "mu": [float(v) for v in moments.mu],
        "total": moments.total,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_levels_report(cfg) -> str:
    b_min, b_max, n_grid = _require(cfg, "levels-report", "b_min", "b_max", "n_grid")
    n_grid = _integer(n_grid, "n_grid")
    if n_grid < 1:
        raise ConfigError("n_grid must be at least 1")
    grid = np.linspace(_finite(b_min, "b_min"), _finite(b_max, "b_max"), n_grid)
    report = dynamics.coupled_levels_report(
        grid, _finite(cfg.get("delta_gap", 0.1), "delta_gap"),
        _finite(cfg.get("gamma", 1.0), "gamma"))
    return report.to_csv()


def _cmd_simulate(cfg) -> str:
    params = dynamics.RateParams(
        A=float(cfg.get("A", 1.0)),
        inv_temp=float(cfg.get("inv_temp", 1.0)),
        gamma=float(cfg.get("gamma", 1.0)),
        delta_gap=float(cfg.get("delta_gap", 0.1)),
    )
    field_cfg = cfg.get("field", {})
    profile = dynamics.FieldProfile(**{k: (v if k == "kind" else float(v))
                                       for k, v in field_cfg.items()})
    init = cfg.get("init", "equilibrium")
    if isinstance(init, list):
        init = tuple(init)
    trajectory = dynamics.integrate_magnetization(
        params, profile, init=init,
        n_steps=int(cfg.get("n_steps", 2000)),
        lzs_mode=cfg.get("lzs_mode", "off"),
        coeff_mode=cfg.get("mode", "derived"),
    )
    return trajectory.to_csv()


_HANDLERS = {
    "q-spectrum": _cmd_q_spectrum,
    "check-yangian": _cmd_check_yangian,
    "commutant": _cmd_commutant,
    "spectrum": _cmd_spectrum,
    "phase-map": _cmd_phase_map,
    "moments": _cmd_moments,
    "levels-report": _cmd_levels_report,
    "simulate": _cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincluster",
        description="Spin-cluster invariants, spectra, and dynamics.")
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("config_path", nargs="?", metavar="CONFIG",
                       help="JSON config document")
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
        if name in ("q-spectrum", "check-yangian", "commutant"):
            p.add_argument("--sites", type=int)
        if name == "simulate":
            p.add_argument("--steps", type=int)
            p.add_argument("--mode", choices=list(dynamics.COEFF_MODES))
    return parser


def _load_config(args) -> dict:
    cfg = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        per_command = PRESETS[args.preset]
        if args.command not in per_command:
            raise ConfigError(
                f"preset {args.preset!r} does not configure {args.command!r}")
        cfg.update(copy.deepcopy(per_command[args.command]))
    paths = [p for p in (args.config_path, args.config) if p]
    if len(paths) > 1:
        raise ConfigError("give the config as a positional path or --config, not both")
    if paths:
        try:
            loaded = json.loads(Path(paths[0]).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {paths[0]}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        for key, value in loaded.items():
            if key == "field" and isinstance(cfg.get("field"), dict) \
                    and isinstance(value, dict):
                cfg["field"].update(value)
            else:
                cfg[key] = value
    if getattr(args, "sites", None) is not None:
        cfg["sites"] = args.sites
    if getattr(args, "steps", None) is not None:
        cfg["n_steps"] = args.steps
    if getattr(args, "mode", None) is not None:
        cfg["mode"] = args.mode
    _validate_keys(cfg, args.command)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        text = _HANDLERS[args.command](_load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalCheckError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
