"""Seeded workload generators.

A workload is a list of CLI invocations.  Each invocation is a dict with
``argv`` (what ``spincluster.cli.main`` receives; its subcommand picks the
output checker) and ``spec`` (the values the checker needs).  The program
only ever sees the argv and the generated config files.

Every drawn value comes from ``RANGES`` below, which also records why the
range was chosen.  Nothing drawn is filtered afterwards: an input that
makes the program fail stays in the workload and counts as a failure.
"""

import json
import math
import random
from pathlib import Path

SWEEP_STEPS = 100_000
PHASE_GRID = 300
LEVEL_POINTS = 20_000

# name -> (low, high, why)
RANGES = {
    "inv_temp": (0.5, 3.0, "from warm (kT = 2) to cold (kT = 1/3) against "
                 "the Zeeman spacing gamma*B <= 10, so both the thermal and "
                 "the frozen-in regime of the loop are swept"),
    "angular_rate": (0.5, 2.0, "one field period per run (t_end = 2*pi/rate); "
                     "the slowest rate keeps the RK4 step h*|lambda| < 2 "
                     "at 100k steps, the fastest leaves a wide loop"),
    "delta_gap": (0.05, 1.0, "avoided-crossing gap from the paper's 0.1 "
                  "scale up to a tenth of the field amplitude"),
    "coupling": (-10.0, 10.0, "exchange constants of either sign, so every "
                 "closed-form level can be the ground state"),
    "window_low": (-6.0, 2.0, "lower edge of a phase-map coupling window; "
                   "windows straddle the origin, where the ground state "
                   "changes label"),
    "window_width": (1.0, 8.0, "width of a phase-map coupling window"),
    "b_min": (-12.0, -4.0, "lower end of the levels-report field sweep, "
                  "past the crossing at B = 0"),
    "b_max": (4.0, 12.0, "upper end of the levels-report field sweep"),
    "gamma": (0.5, 2.0, "gyromagnetic factor around 1"),
    "weight": (-1.0, 1.0, "site weights u_k of the vector charge, same "
               "scale as the spin-spin terms"),
    "g": (1.5, 2.5, "g-factor around the free-electron value 2"),
}

TRIANGLE_LEVELS = {"alpha": 0.5, "beta": 0.5, "quartet": 1.5}
PARALLELOGRAM_LEVELS = {"quintet": 2.0, "triplet1": 1.0, "triplet2": 1.0,
                        "triplet3": 1.0, "singlet_plus": 0.0,
                        "singlet_minus": 0.0}

# Median latency of each algebra invocation kind, (subcommand, sites) ->
# ms, measured in one fresh interpreter on 2 cores with numpy 2.4.6.
MEASURED_MS = {
    ("spectrum", 3): 0.9, ("spectrum", 4): 0.8,
    ("commutant", 3): 1.7, ("commutant", 4): 3.4,
    ("check-yangian", 3): 2.4, ("check-yangian", 4): 3.4,
    ("moments", 3): 3.3, ("moments", 4): 34.7,
    ("q-spectrum", 3): 3.7, ("q-spectrum", 4): 11.8,
}

# Invocations per algebra pass.  The seven fast kinds take 140 of 360
# (39 %), so p50 lands inside the 80 three-site q-spectrum calls
# (39-61 %) and p90 inside the 80 four-site moments calls (78-100 %).
# Neither percentile sits on the edge between two latency clusters,
# where it would flip from run to run: with equal shares of 1/9, p90
# fell exactly between four-site moments and four-site q-spectrum.
ALGEBRA_MIX = {
    ("spectrum", 3): 20, ("spectrum", 4): 20,
    ("commutant", 3): 20, ("commutant", 4): 20,
    ("check-yangian", 3): 20, ("check-yangian", 4): 20,
    ("moments", 3): 20,
    ("q-spectrum", 3): 80, ("q-spectrum", 4): 60,
    ("moments", 4): 80,
}

# |closed-path integral of M dB| of the two fixed presets, as recorded at
# the commit that introduced this benchmark.
PRESET_LOOP_AREA = {"fig4-loop": 3.2599145128643263,
                    "fig5-lzs": 1.1108501847847627}
PRESET_SPEC = {
    "fig4-loop": {"A": 1.0, "inv_temp": 1.0, "gamma": 1.0, "delta_gap": 0.1,
                  "amplitude": 10.0, "angular_rate": 1.0, "t_start": 0.0,
                  "t_end": 2.0 * math.pi, "n_steps": SWEEP_STEPS,
                  "lzs_mode": "off"},
    "fig5-lzs": {"A": 1.0, "inv_temp": 1.0, "gamma": 1.0, "delta_gap": 0.1,
                 "amplitude": 10.0, "angular_rate": 1.0, "t_start": 0.0,
                 "t_end": math.pi, "n_steps": SWEEP_STEPS,
                 "lzs_mode": "adiabatic"},
}

def _draw(rng, name):
    low, high, _ = RANGES[name]
    return rng.uniform(low, high)


def _plane_weights(rng):
    """Three-site weights on the Hermitian plane u2 = u1 + u3."""
    u1, u3 = _draw(rng, "weight"), _draw(rng, "weight")
    return [u1, u1 + u3, u3]


class _Workload:
    """Collects invocations and writes their config files."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.items = []

    def add(self, command, spec, cfg=None, preset=None):
        argv = [command]
        if preset is not None:
            argv += ["--preset", preset]
        if cfg is not None:
            path = self.workdir / f"cfg{len(self.items):04d}.json"
            path.write_text(json.dumps(cfg))
            argv.append(str(path))
        self.items.append({"argv": argv, "spec": spec})


def _sweep(rng, b):
    for name in ("fig4-loop", "fig5-lzs"):
        spec = dict(PRESET_SPEC[name], loop_area=PRESET_LOOP_AREA[name])
        b.add("simulate", spec, preset=name)
    for mode in ("off", "adiabatic", "off", "adiabatic"):
        rate = _draw(rng, "angular_rate")
        spec = {"A": 1.0, "inv_temp": _draw(rng, "inv_temp"), "gamma": 1.0,
                "delta_gap": _draw(rng, "delta_gap"), "amplitude": 10.0,
                "angular_rate": rate, "t_start": 0.0,
                "t_end": 2.0 * math.pi / rate, "n_steps": SWEEP_STEPS,
                "lzs_mode": mode, "loop_area": None}
        cfg = {key: spec[key] for key in
               ("A", "inv_temp", "gamma", "delta_gap", "n_steps", "lzs_mode")}
        cfg["init"] = "equilibrium"
        cfg["field"] = {"kind": "sinusoid", "amplitude": spec["amplitude"],
                        "angular_rate": rate, "t_start": 0.0,
                        "t_end": spec["t_end"]}
        b.add("simulate", spec, cfg=cfg)


def _window(rng):
    low = _draw(rng, "window_low")
    return [low, low + _draw(rng, "window_width")]


def _scan(rng, b):
    for _ in range(3):
        cfg = {"a12_range": _window(rng), "a13_range": _window(rng),
               "n_grid": PHASE_GRID}
        b.add("phase-map", dict(cfg, sample_seed=rng.getrandbits(32)), cfg=cfg)
    cfg = {"b_min": _draw(rng, "b_min"), "b_max": _draw(rng, "b_max"),
           "n_grid": LEVEL_POINTS, "delta_gap": _draw(rng, "delta_gap"),
           "gamma": _draw(rng, "gamma")}
    b.add("levels-report", dict(cfg), cfg=cfg)


def _algebra_config(rng, command, sites):
    if command == "spectrum":
        if sites == 3:
            return {"family": "triangle", "J12": _draw(rng, "coupling"),
                    "J13": _draw(rng, "coupling")}
        return {"family": "parallelogram", "a12": _draw(rng, "coupling"),
                "a13": _draw(rng, "coupling")}
    if command == "moments":
        levels = TRIANGLE_LEVELS if sites == 3 else PARALLELOGRAM_LEVELS
        label = rng.choice(sorted(levels))
        spin = levels[label]
        m = rng.choice([-spin + k for k in range(int(round(2 * spin)) + 1)])
        keys = ("J12", "J13") if sites == 3 else ("a12", "a13")
        cfg = {key: _draw(rng, "coupling") for key in keys}
        cfg.update(sites=sites, label=label, m=m, g=_draw(rng, "g"))
        return cfg
    if command == "check-yangian":
        weights = [_draw(rng, "weight") for _ in range(sites)]
    elif sites == 3:
        weights = _plane_weights(rng)
    else:
        # Q is Hermitian on four sites only at u = 0.
        weights = [0.0] * sites
    return {"sites": sites, "weights": weights}


def _algebra(rng, b):
    order = [key for key, count in sorted(ALGEBRA_MIX.items())
             for _ in range(count)]
    rng.shuffle(order)
    for command, sites in order:
        cfg = _algebra_config(rng, command, sites)
        b.add(command, dict(cfg, sites=sites), cfg=cfg)


GENERATORS = {"sweep": _sweep, "scan": _scan, "algebra": _algebra}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the config files of one workload into ``workdir`` and return
    its invocations.  The same seed gives the same invocations."""
    workdir.mkdir(parents=True, exist_ok=True)
    invocations = _Workload(workdir)
    GENERATORS[workload](random.Random(f"{workload}:{seed}"), invocations)
    return invocations.items
