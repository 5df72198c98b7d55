"""Command-line front end.

One JSON config document per invocation (positional path or
``--config``), optionally seeded from a named preset; scalar flags
override config fields.  The merged config is read once against its
subcommand's spec in ``_SPECS``.  All output is deterministic: JSON with
sorted keys, CSV floats at 17 significant digits, returned by a handler as
pieces that ``main`` writes to stdout or ``--out`` once every check has
passed.  Exit codes: 0 success, 2 configuration/validation problem or failed
write, 3 failed numerical check.
"""

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import dynamics, multiplets, observables, spectra, symmetry, yangian
from .errors import ConfigError, NumericalCheckError
from .operators import SpinRegister, multiplicities

_SINUSOID = {"kind": "sinusoid", "amplitude": 10.0, "angular_rate": 1.0,
             "t_start": 0.0}
PRESETS = {
    "v6-triangle": {
        "spectrum": {"family": "triangle", "J12": 65.0, "J13": 7.0},
        "moments": {"sites": 3, "J12": 65.0, "J13": 7.0, "m": -0.5},
    },
    "v8-ground": {
        "spectrum": {"family": "parallelogram", "a12": 1.0, "a13": -3.0},
        "moments": {"sites": 4, "a12": 1.0, "a13": -3.0, "m": -1.0},
    },
    "fig4-loop": {"simulate": {
        "field": {**_SINUSOID, "t_end": 2.0 * math.pi},
        "init": "equilibrium", "n_steps": 100000, "lzs_mode": "off",
    }},
    "fig5-lzs": {"simulate": {
        "field": {**_SINUSOID, "t_end": math.pi}, "delta_gap": 0.1,
        "init": "equilibrium", "n_steps": 100000, "lzs_mode": "adiabatic",
    }},
}


# Config value kinds: each reads one JSON value or raises ConfigError.
def _number(value, name: str) -> float:
    """A finite JSON number, not a bool or a numeric string, as a float."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integral(value, name: str) -> int:
    """An integral JSON number of size at most 2**53, as an int."""
    if type(value) not in (int, float) \
            or not (abs(value) <= 2 ** 53 and value == int(value)):
        raise ConfigError(f"{name} must be an integer up to 2**53, got {value!r}")
    return int(value)


def _string(value, name: str) -> str:
    if type(value) is not str:
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _numbers(value, name: str) -> list:
    if type(value) is not list:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_number(item, name) for item in value]


def _init(value, name: str):
    """A named initial state, or a list of numbers: the (n0, rho00) pair."""
    return value if type(value) is str else _numbers(value, name)


# subcommand -> config key -> kind; a dict is the spec of a nested object.
# Only the keys a config sets reach the library, whose defaults fill in
# the rest.
_WEIGHTED = {"sites": _integral, "weights": _numbers}
_COUPLING_KINDS = {name: _number for family in spectra.FAMILIES.values()
                   for name in family.couplings}
_SPECS = {
    "q-spectrum": _WEIGHTED,
    "check-yangian": _WEIGHTED,
    "commutant": _WEIGHTED,
    "spectrum": {"family": _string, **_COUPLING_KINDS},
    "phase-map": {"a12_range": _numbers, "a13_range": _numbers,
                  "n_grid": _integral},
    "moments": {"sites": _integral, **_COUPLING_KINDS, "m": _number,
                "g": _number, "label": _string},
    "levels-report": {"b_min": _number, "b_max": _number, "n_grid": _integral,
                      "delta_gap": _number, "gamma": _number},
    "simulate": {"A": _number, "inv_temp": _number, "gamma": _number,
                 "delta_gap": _number, "init": _init,
                 "n_steps": _integral, "lzs_mode": _string, "mode": _string,
                 "field": {"kind": _string, "amplitude": _number,
                           "angular_rate": _number, "t_start": _number,
                           "t_end": _number}},
}


def _read(cfg, spec: dict, where: str) -> dict:
    """The config object ``cfg`` with every value read by its kind."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(cfg) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config keys for {where}: {sorted(unknown)}")
    return {key: _read(value, spec[key], key) if isinstance(spec[key], dict)
            else spec[key](value, key) for key, value in cfg.items()}


def _given(cfg: dict, *names) -> dict:
    """The named keys that the config sets, for a library call's kwargs."""
    return {name: cfg[name] for name in names if name in cfg}


def _require(cfg: dict, command: str, *names):
    missing = [name for name in names if name not in cfg]
    if missing:
        raise ConfigError(f"{command} config is missing {missing}")
    return [cfg[name] for name in names]


def _json(doc) -> tuple:
    try:
        return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",)
    except ValueError:
        raise NumericalCheckError("result is not finite (NaN or infinity)") from None


def _register_and_weights(cfg):
    sites = cfg.get("sites", 3)
    return SpinRegister(sites), cfg.get("weights", [0.0] * sites)


def _cmd_q_spectrum(cfg) -> Iterable[str]:
    register, weights = _register_and_weights(cfg)
    states = [{"S": S, "m": m, "q": float(q), "degenerate": flag}
              for S, spec, degenerate in yangian.q_sector_spectra(register, weights)
              for m in multiplets.projections(S)
              for q, flag in zip(spec.eigenvalues, degenerate)]
    return _json({
        "sites": register.n_sites,
        "weights": weights,
        "eigenvalues": [{"value": value, "multiplicity": count} for value, count
                        in multiplicities(np.sort([st["q"] for st in states]))],
        "states": states,
    })


def _cmd_check_yangian(cfg) -> Iterable[str]:
    register, weights = _register_and_weights(cfg)
    report = yangian.check_yangian_axioms(register, weights)
    return _json({"sites": register.n_sites, "weights": weights,
                  **dataclasses.asdict(report)})


def _cmd_commutant(cfg) -> Iterable[str]:
    register, weights = _register_and_weights(cfg)
    family = symmetry.commutant_family(register, yangian.hermitian_q(register, weights))
    pairs = symmetry.pair_order(register.n_sites)
    return _json({
        "sites": register.n_sites,
        "weights": weights,
        "dimension": family.dimension,
        "pair_order": [f"{i}-{j}" for i, j in pairs],
        "basis": [{f"{i}-{j}": member.a[(i, j)] for i, j in pairs}
                  for member in family.basis],
        "singular_values": [float(s) for s in family.singular_values],
    })


def _levelset_for(cfg, command: str, family: str):
    """The family's couplings read from the config, and its levels there;
    a coupling key of another family is rejected."""
    if family not in spectra.FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    names = spectra.FAMILIES[family].couplings
    params = dict(zip(names, _require(cfg, command, *names)))
    stray = sorted(set(cfg) & set(_COUPLING_KINDS) - set(names))
    if stray:
        raise ConfigError(f"{family} takes couplings {list(names)}, not {stray}")
    return params, spectra.levels(family, *params.values())


def _cmd_spectrum(cfg) -> Iterable[str]:
    family = cfg.get("family", "parallelogram")
    params, levelset = _levelset_for(cfg, "spectrum", family)
    return _json({
        "family": family,
        "params": params,
        "levels": [dataclasses.asdict(lev) for lev in levelset.levels],
        "weighted_sum": levelset.weighted_sum(),
        "ground_labels": levelset.ground_labels(),
    })


def _cmd_phase_map(cfg) -> Iterable[str]:
    return spectra.phase_map(
        *_require(cfg, "phase-map", "a12_range", "a13_range", "n_grid")).to_csv()


def _cmd_moments(cfg) -> Iterable[str]:
    sites = cfg.get("sites", 4)
    family_of = {family.sites: name for name, family in spectra.FAMILIES.items()}
    if sites not in family_of:
        raise ConfigError(
            f"moments needs sites = {' or '.join(map(str, sorted(family_of)))}")
    register = SpinRegister(sites)
    family = family_of[sites]
    params, levelset = _levelset_for(cfg, "moments", family)
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
    m = cfg.get("m", -level.S)
    state = multiplets.level_state(register, label, m)
    ham = spectra.hamiltonian(family, *params.values())
    residual = float(np.linalg.norm(ham @ state - level.energy * state))
    if not residual <= 1e-9 * max(1.0, abs(level.energy)):  # NaN fails too
        raise NumericalCheckError(
            f"state for {label!r} fails its eigen-equation: residual {residual:.3e}")
    moments = observables.local_moments(register, state, **_given(cfg, "g"))
    return _json({
        "sites": sites,
        "params": params,
        "label": label,
        "S": level.S,
        "m": m,
        "energy": level.energy,
        "g": moments.g,
        "mu": [float(v) for v in moments.mu],
        "total": moments.total,
    })


def _cmd_levels_report(cfg) -> Iterable[str]:
    b_min, b_max, n_grid = _require(cfg, "levels-report", "b_min", "b_max", "n_grid")
    if n_grid < 1:
        raise ConfigError("n_grid must be at least 1")
    return dynamics.coupled_levels_report(
        np.linspace(b_min, b_max, n_grid), cfg.get("delta_gap", 0.1),
        **_given(cfg, "gamma")).to_csv()


def _cmd_simulate(cfg) -> Iterable[str]:
    params = dynamics.RateParams(
        **_given(cfg, "A", "inv_temp", "gamma", "delta_gap"))
    profile = dynamics.FieldProfile(**cfg.get("field", {}))
    options = _given(cfg, "init", "n_steps", "lzs_mode")
    if "mode" in cfg:
        options["coeff_mode"] = cfg["mode"]
    return dynamics.integrate_magnetization(params, profile, **options).to_csv()


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


@functools.cache
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
        except ValueError as exc:  # bad JSON, an int too long, not UTF-8
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        if isinstance(cfg.get("field"), dict) \
                and isinstance(loaded.get("field"), dict):
            loaded["field"] = {**cfg["field"], **loaded["field"]}
        cfg.update(loaded)
    for flag, key in (("sites", "sites"), ("steps", "n_steps"), ("mode", "mode")):
        if getattr(args, flag, None) is not None:
            cfg[key] = getattr(args, flag)
    return _read(cfg, _SPECS[args.command], args.command)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    out = None
    try:
        # non-finite intermediates are caught by the gates and by _json
        with np.errstate(all="ignore"):
            pieces = _HANDLERS[args.command](_load_config(args))
            # every gate has run: only now is --out opened or a byte written
            with (open(args.out, "w") if args.out
                  else contextlib.nullcontext(sys.stdout)) as out:
                out.writelines(pieces)
                out.flush()
    except OSError as exc:  # a given path, or a write once out is open
        if out is not None and not args.out:  # devnull takes the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # a reader stopped early
            return 0
        print(f"{'config' if out is None else 'output'} error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalCheckError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
