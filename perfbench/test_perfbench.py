"""Tests of the benchmark harness itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

The checkers must accept the program's real output and reject corrupted
copies of it; the tracer's self-time arithmetic must hold on nested spans.
"""

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def cli_output(tmp_path, command, cfg=None, *extra):
    from spincluster.cli import main
    argv = [command, *extra]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# --- checkers ---------------------------------------------------------------

SIM_SPEC = {"A": 1.0, "inv_temp": 1.5, "gamma": 1.0, "delta_gap": 0.3,
            "amplitude": 2.0, "angular_rate": 1.0, "t_start": 0.0,
            "t_end": 2 * math.pi, "n_steps": 2000, "loop_area": None}


def simulate_output(tmp_path, lzs_mode):
    spec = dict(SIM_SPEC, lzs_mode=lzs_mode)
    cfg = {key: spec[key] for key in
           ("A", "inv_temp", "gamma", "delta_gap", "n_steps", "lzs_mode")}
    cfg["field"] = {"kind": "sinusoid", "amplitude": spec["amplitude"],
                    "angular_rate": 1.0, "t_start": 0.0,
                    "t_end": spec["t_end"]}
    return cli_output(tmp_path, "simulate", cfg), spec


@pytest.mark.parametrize("lzs_mode", ["off", "adiabatic"])
def test_simulate_checker_accepts_real_output(tmp_path, lzs_mode):
    text, spec = simulate_output(tmp_path, lzs_mode)
    assert checks.check("simulate", text, spec) == []


def test_simulate_checker_rejects_truncated_csv(tmp_path):
    text, spec = simulate_output(tmp_path, "off")
    truncated = "\n".join(text.split("\n")[:-2]) + "\n"
    assert checks.check("simulate", truncated, spec)


def test_simulate_checker_rejects_wrong_mode_and_population(tmp_path):
    text, spec = simulate_output(tmp_path, "adiabatic")
    assert checks.check("simulate", text, dict(spec, lzs_mode="off"))
    lines = text.split("\n")
    t, b, m, rho, n = lines[5].split(",")
    lines[5] = ",".join([t, b, m, "1.5", n])
    assert checks.check("simulate", "\n".join(lines), spec)


def test_simulate_checker_compares_loop_area(tmp_path):
    text, spec = simulate_output(tmp_path, "off")
    assert checks.check("simulate", text, dict(spec, loop_area=1.0))


PHASE_SPEC = {"a12_range": [-3.0, 2.0], "a13_range": [-2.5, 4.0],
              "n_grid": 12, "sample_seed": 5}


def phase_output(tmp_path):
    cfg = {key: PHASE_SPEC[key] for key in ("a12_range", "a13_range", "n_grid")}
    return cli_output(tmp_path, "phase-map", cfg)


def test_phase_checker_accepts_real_output(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "PHASE_SAMPLES", 144)
    assert checks.check("phase-map", phase_output(tmp_path), PHASE_SPEC) == []


def test_phase_checker_rejects_perturbed_ground_energy(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "PHASE_SAMPLES", 144)
    lines = phase_output(tmp_path).split("\n")
    fields = lines[40].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[40] = ",".join(fields)
    problems = checks.check("phase-map", "\n".join(lines), PHASE_SPEC)
    assert any("ground energy" in p for p in problems)


def test_phase_checker_rejects_wrong_labels(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "PHASE_SAMPLES", 144)
    text = phase_output(tmp_path)
    swapped = text.replace(",singlet_minus,", ",quintet,")
    assert swapped != text
    assert checks.check("phase-map", swapped, PHASE_SPEC)


LEVEL_SPEC = {"b_min": -3.0, "b_max": 2.0, "n_grid": 7, "delta_gap": 0.4,
              "gamma": 1.3}


def test_levels_checker_accepts_real_output(tmp_path):
    text = cli_output(tmp_path, "levels-report", LEVEL_SPEC)
    assert checks.check("levels-report", text, LEVEL_SPEC) == []


def test_levels_checker_rejects_row_missing_a_zero(tmp_path):
    lines = cli_output(tmp_path, "levels-report", LEVEL_SPEC).split("\n")
    row = next(i for i, line in enumerate(lines[1:], 1)
               if abs(float(line.split(",")[2])) < 1e-9)
    fields = lines[row].split(",")
    fields[2] = "0.25"
    lines[row] = ",".join(fields)
    problems = checks.check("levels-report", "\n".join(lines), LEVEL_SPEC)
    assert any("zero levels" in p for p in problems)


def algebra_cases():
    rng = random.Random(3)
    for command, sites in sorted(workloads.ALGEBRA_MIX):
        cfg = workloads._algebra_config(rng, command, sites)
        yield command, cfg, dict(cfg, sites=sites)


@pytest.mark.parametrize("command,cfg,spec", list(algebra_cases()))
def test_algebra_checker_accepts_real_output(tmp_path, command, cfg, spec):
    text = cli_output(tmp_path, command, cfg)
    assert checks.check(command, text, spec) == []


def test_algebra_checker_rejects_bad_moments_and_nan(tmp_path):
    cfg = {"sites": 4, "a12": 1.0, "a13": -3.0, "label": "triplet2",
           "m": -1.0, "g": 2.0}
    spec = dict(cfg)
    doc = json.loads(cli_output(tmp_path, "moments", cfg))
    assert checks.check("moments", json.dumps(doc), spec) == []
    assert checks.check("moments", json.dumps(dict(doc, total=1.5)), spec)
    assert checks.check("moments", json.dumps(dict(doc, energy=math.nan)), spec)


def test_spectrum_checker_rejects_nonzero_weighted_sum(tmp_path):
    cfg = {"family": "triangle", "J12": 2.0, "J13": -1.0}
    doc = json.loads(cli_output(tmp_path, "spectrum", cfg))
    doc["weighted_sum"] = 1e-3
    assert checks.check("spectrum", json.dumps(doc), dict(cfg, sites=3))


# --- tracer -----------------------------------------------------------------

def test_self_times_on_nested_spans():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("leaf", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0),
             ("leaf", 6.0, 6.5, 3),
             ("root", 20.0, 21.0, -1)]
    totals = tracer.self_times(spans)
    assert totals["root"] == (2, pytest.approx(3.0 + 1.0))
    assert totals["a"] == (1, pytest.approx(2.0))
    assert totals["b"] == (1, pytest.approx(3.5))
    assert totals["leaf"] == (2, pytest.approx(1.5))
    assert sum(s for _, s in totals.values()) == pytest.approx(11.0)


def test_tracer_wraps_calls_across_modules(monkeypatch):
    """Spans nest through references another module imported by name."""
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    operators = types.ModuleType("fakepkg.operators")
    operators.site_spin = lambda register, site: site
    cli = types.ModuleType("fakepkg.cli")
    cli.site_spin = operators.site_spin
    cli.main = lambda argv: [cli.site_spin(4, s % 2) for s in argv]
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.operators", operators),
                         ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, module)
    tr.install("fakepkg")
    assert cli.main([0, 1, 2]) == [0, 1, 0]
    summary = tr.summary()
    # main: ticks 0..7, three children of one tick each.
    assert summary["spans"]["cli.main"] == (1, 4.0)
    assert summary["spans"]["operators.site_spin"] == (3, 3.0)
    assert summary["spans"]["operators.embed"] == (0, 0.0)
    assert summary["repeat_ratio"]["operators.site_spin"] == pytest.approx(1 / 3)


# --- workloads and the runner ----------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_workloads_are_seeded(tmp_path, name):
    first = workloads.build(name, 11, tmp_path / "a")
    again = workloads.build(name, 11, tmp_path / "b")
    other = workloads.build(name, 12, tmp_path / "c")
    assert [i["spec"] for i in first] == [i["spec"] for i in again]
    assert [i["spec"] for i in first] != [i["spec"] for i in other]


def test_algebra_percentiles_sit_inside_latency_clusters():
    kinds = sorted(workloads.ALGEBRA_MIX, key=workloads.MEASURED_MS.get)
    total = sum(workloads.ALGEBRA_MIX.values())
    edges, below = [], 0
    for kind in kinds:
        below += workloads.ALGEBRA_MIX[kind]
        edges.append(below / total)
    for q in (0.5, 0.9):
        assert min(abs(q - edge) for edge in edges) > 0.05


def test_runner_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
