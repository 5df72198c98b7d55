"""End-to-end exercises of the command-line front end.

Everything runs in-process through ``main`` so exit codes and the exact
bytes on stdout/stderr are all observable.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import spincluster
from spincluster import cli, multiplets, operators, yangian
from spincluster.cli import PRESETS, main
from spincluster.dynamics import FieldProfile, RateParams
from spincluster.spectra import FAMILIES
from test_dynamics import (SCAN_ATOL, assert_levels_near_complex_eigh,
                           complex_eigh_levels, rk4_oracle)
from test_surface import CONFIGS

# main runs its handler with numpy warnings off; none may leak to stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_cfg(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def assert_refused_without_writing(tmp_path, code, *argv):
    """Run argv with --out, at an absent path and at an existing file: each
    run exits with code, and --out is neither created nor changed."""
    path = tmp_path / "refused.out"
    for before in (None, b"earlier output\n"):
        if before is not None:
            path.write_bytes(before)
        assert run(*argv, "--out", str(path))[:2] == (code, "")
        assert (path.read_bytes() if path.exists() else None) == before


# --- plumbing -------------------------------------------------------------

def test_no_command_prints_usage():
    code, out, err = run()
    assert code == 2
    assert "usage" in err.lower()


def test_help_exits_cleanly():
    code, out, _ = run("--help")
    assert code == 0
    assert "spincluster" in out


def test_unknown_subcommand():
    code, _, err = run("frobnicate")
    assert code == 2


def test_missing_config_file():
    code, _, err = run("spectrum", "/no/such/file.json")
    assert code == 2
    assert "not found" in err


def test_unusable_paths_are_config_errors(tmp_path):
    code, out, err = run("spectrum", str(tmp_path))  # a directory
    assert (code, out) == (2, "")
    assert err.startswith("config error:")
    code, out, err = run("spectrum", "--preset", "v6-triangle",
                         "--out", str(tmp_path / "missing" / "out.json"))
    assert (code, out) == (2, "")
    assert err.startswith("config error:")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run("spectrum", str(path))
    assert code == 2
    assert "JSON" in err


def test_positional_and_flag_conflict(tmp_path):
    path = write_cfg(tmp_path, {"family": "triangle", "J12": 1, "J13": 1})
    code, _, err = run("spectrum", path, "--config", path)
    assert code == 2


def test_unknown_config_key(tmp_path):
    path = write_cfg(tmp_path, {"family": "triangle", "J12": 1, "J13": 1,
                                "bogus": 2})
    code, _, err = run("spectrum", path)
    assert code == 2
    assert "bogus" in err


def test_bad_preset_name():
    code, _, err = run("spectrum", "--preset", "nope")
    assert code == 2
    assert "unknown preset" in err


def test_preset_subcommand_mismatch():
    code, _, err = run("simulate", "--preset", "v6-triangle")
    assert code == 2
    assert "does not configure" in err


def test_each_flag_sets_a_key_of_its_own_command_spec():
    # so a row cannot add a flag whose value its own config would reject
    used = set()
    for name, (_, spec, flags) in cli._COMMANDS.items():
        for flag in flags:
            assert flag in cli._FLAGS, (name, flag)
            assert cli._FLAGS[flag][0] in spec, (name, flag)
        used.update(flags)
    assert used == set(cli._FLAGS)


# --- invariant / symmetry commands -----------------------------------------

def test_q_spectrum_defaults_to_three_sites():
    code, out, _ = run("q-spectrum")
    assert code == 0
    doc = json.loads(out)
    assert doc["sites"] == 3
    groups = sorted((e["value"], e["multiplicity"]) for e in doc["eigenvalues"])
    assert [value for value, _ in groups] == pytest.approx([-2.25, -1.0, -0.25])
    assert [count for _, count in groups] == [2, 4, 2]
    assert len(doc["states"]) == 8


def test_q_spectrum_flags_the_shared_four_site_level():
    # at u = 0 only q = -1/2 is shared, by two S = 1 levels, at each m
    states = json.loads(run("q-spectrum", "--sites", "4")[1])["states"]
    assert [state["degenerate"] for state in states] == [
        state["S"] == 1.0 and abs(state["q"] + 0.5) < 1e-9 for state in states]
    assert sum(state["degenerate"] for state in states) == 6


def test_q_spectrum_rejects_non_hermitian_weights(tmp_path):
    path = write_cfg(tmp_path, {"sites": 3, "weights": [0.4, 0.9, 0.6]})
    code, _, err = run("q-spectrum", path)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("weights, code", [
    ([0.3, 0.3, 5e-11], 2),      # u1 - u2 + u3 = 5e-11
    ([1e-11, 0.0, 0.0, 0.0], 2),
    ([0.3, 0.3, 0.0], 0),
    ([1e200, 2e200, 1e200], 3),  # Hermitian weights whose Q overflows
])
def test_q_spectrum_and_commutant_share_one_hermiticity_rule(tmp_path, weights,
                                                             code):
    path = write_cfg(tmp_path, {"sites": len(weights), "weights": weights})
    spectrum, commutant = run("q-spectrum", path), run("commutant", path)
    assert spectrum[0] == commutant[0] == code
    assert spectrum[2] == commutant[2]
    if code == 2:
        assert commutant[2].startswith(
            "config error: Q is not Hermitian for these weights; triple prefactors")


@seed(506)
@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0).filter(lambda a: abs(a) >= 0.1),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=6.0))
def test_hermitian_plane_is_scale_free(tmp_path_factory, a, b, log_scale):
    # weights s*(a, b, b - a) lie on the plane u1 - u2 + u3 = 0 up to rounding
    s = 10.0 ** log_scale
    on = [s * a, s * b, s * (b - a)]
    off = on[:2] + [on[2] + 1e-6 * max(map(abs, on))]
    path = tmp_path_factory.getbasetemp() / "plane.json"
    for weights, code in ((on, 0), (off, 2)):
        path.write_text(json.dumps({"sites": 3, "weights": weights}))
        spectrum, commutant = run("q-spectrum", str(path)), run("commutant", str(path))
        assert spectrum[0] == commutant[0] == code, (spectrum[2], commutant[2])
    # half-integer spins: every degenerate group is a union of even multiplets
    path.write_text(json.dumps({"sites": 3, "weights": on}))
    groups = json.loads(run("q-spectrum", str(path))[1])["eigenvalues"]
    assert all(group["multiplicity"] % 2 == 0 for group in groups)


def test_check_yangian_at_zero_weights():
    code, out, _ = run("check-yangian", "--sites", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["level_zero_residual"] < 1e-12
    assert doc["fitted_lambda"] == pytest.approx(4.0, abs=1e-9)
    assert doc["serre_consistent"] is True


@pytest.mark.parametrize("sites", [2, 3, 4])
def test_q_spectrum_and_check_yangian_build_each_operator_once(monkeypatch,
                                                                sites):
    calls = dict.fromkeys(("build_yangian", "build_q", "total_spin"), 0)
    inner = dict.fromkeys(("fix_phase", "cross_component"), 0)

    def count(module, name, tally):
        original = getattr(module, name)

        def wrapper(*args):
            tally[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        count(yangian, name, calls)
    for name in inner:
        count(operators, name, inner)
    solved, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: solved.append(len(m)) or eigvalsh(m))
    yangian._pair_crosses.cache_clear()
    assert run("q-spectrum", "--sites", str(sites))[0] == 0
    assert calls == {"build_yangian": 1, "build_q": 1, "total_spin": 0}
    assert solved and max(solved) < 2 ** sites  # spin-sector blocks only
    sectors = len(multiplets.sectors(operators.SpinRegister(sites)))
    assert len(solved) == sectors  # one eigenvalue solve per spin sector
    # no eigenvector is phase-fixed: only eigenvalues are printed; the first
    # call fills the shared cross table, one product per pair and axis
    assert inner == {"fix_phase": 0, "cross_component": 3 * sites * (sites - 1) // 2}
    inner.update(dict.fromkeys(inner, 0))
    assert run("q-spectrum", "--sites", str(sites))[0] == 0
    assert inner == {"fix_phase": 0, "cross_component": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert run("check-yangian", "--sites", str(sites))[0] == 0
    assert calls == {"build_yangian": 1, "build_q": 0, "total_spin": 1}


def test_commutant_dimensions():
    code, out, _ = run("commutant", "--sites", "3")
    doc = json.loads(out)
    assert code == 0 and doc["dimension"] == 2
    code, out, _ = run("commutant", "--sites", "4")
    doc = json.loads(out)
    assert code == 0 and doc["dimension"] == 3
    assert len(doc["pair_order"]) == 6
    assert len(doc["basis"]) == 3
    assert all(set(row) == set(doc["pair_order"]) for row in doc["basis"])


# --- spectra / moments ------------------------------------------------------

def test_spectrum_triangle_preset():
    code, out, _ = run("spectrum", "--preset", "v6-triangle")
    assert code == 0
    doc = json.loads(out)
    energies = {lev["label"]: lev["energy"] for lev in doc["levels"]}
    assert energies == pytest.approx(
        {"alpha": -63.25, "beta": -5.25, "quartet": 34.25})
    assert doc["ground_labels"] == ["alpha"]
    assert doc["weighted_sum"] == pytest.approx(0.0, abs=1e-12)


def test_spectrum_parallelogram_config(tmp_path):
    path = write_cfg(tmp_path,
                     {"family": "parallelogram", "a12": 1.0, "a13": -3.0})
    code, out, _ = run("spectrum", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ground_labels"] == ["triplet3"]
    energies = {lev["label"]: lev["energy"] for lev in doc["levels"]}
    assert energies["triplet3"] == pytest.approx(-23.0 / 6.0)


def test_moments_flagship_preset():
    code, out, _ = run("moments", "--preset", "v8-ground")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "triplet3"
    assert doc["S"] == 1.0 and doc["m"] == -1.0
    assert doc["mu"] == pytest.approx([0.9, 0.1, 0.1, 0.9], abs=1e-12)
    assert doc["total"] == pytest.approx(2.0, abs=1e-12)


def test_moments_degenerate_ground_needs_label(tmp_path):
    path = write_cfg(tmp_path, {"sites": 4, "a12": 1.0, "a13": 1.0})
    code, _, err = run("moments", path)
    assert code == 2
    assert "label" in err
    path = write_cfg(tmp_path, {"sites": 4, "a12": 1.0, "a13": 1.0,
                                "label": "singlet_minus"})
    code, out, _ = run("moments", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == 0.0
    assert doc["mu"] == pytest.approx([0.0] * 4, abs=1e-12)


@pytest.mark.parametrize("command, payload, message", [
    ("spectrum", {"family": "triangle", "J12": 1, "J13": 2, "a12": 5},
     "triangle takes couplings ['J12', 'J13'], not ['a12']"),
    ("moments", {"sites": 3, "J12": 1, "J13": 2, "a13": 5},
     "triangle takes couplings ['J12', 'J13'], not ['a13']"),
    ("moments", {"sites": 4, "a12": 1, "a13": -3, "J12": 5, "J13": 0},
     "parallelogram takes couplings ['a12', 'a13'], not ['J12', 'J13']"),
    ("spectrum", {"family": "bogus", "a12": 1, "a13": 2}, "unknown family 'bogus'"),
    ("moments", {"sites": 2}, "moments needs sites = 3 or 4"),
], ids=["spectrum", "moments-3", "moments-4", "unknown-family", "moments-2"])
def test_other_family_couplings_are_config_errors(tmp_path, command, payload,
                                                  message):
    code, out, err = run(command, write_cfg(tmp_path, payload))
    assert (code, out, err) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("kind", ["linear_ramp", "sinusoid", "constant"])
def test_simulate_rejects_an_overflowing_time_span(tmp_path, kind):
    path = write_cfg(tmp_path, {"field": {"kind": kind, "t_start": -1e308,
                                          "t_end": 1e308}})
    code, out, err = run("simulate", path)
    assert (code, out, err) == (2, "", "config error: t_end - t_start must be finite\n")


def test_moments_rejects_invalid_projection(tmp_path):
    # triplet3 has S = 1: out of range, off the half-integers, wrong parity
    for m in (-2.0, 0.25, 0.5):
        path = write_cfg(tmp_path, {"sites": 4, "a12": 1.0, "a13": -3.0, "m": m})
        code, _, err = run("moments", path)
        assert code == 2
        assert err == f"config error: m = {m} is not a valid projection for S = 1.0\n"


@pytest.mark.parametrize("command, payload", [
    ("spectrum", {"family": "parallelogram", "a12": float("nan"), "a13": -3.0}),
    ("spectrum", {"family": "triangle", "J12": float("inf"), "J13": 7.0}),
    ("moments", {"sites": 4, "a12": 1.0, "a13": -3.0, "g": float("nan")}),
])
def test_non_finite_couplings_and_g_are_config_errors(tmp_path, command,
                                                      payload):
    code, out, err = run(command, write_cfg(tmp_path, payload))
    assert code == 2
    assert out == ""
    assert "finite" in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, payload", [
    ("commutant", {"sites": "four"}),
    ("q-spectrum", {"sites": "four"}),
    ("check-yangian", {"sites": "four"}),
    ("moments", {"sites": "four", "a12": 1.0, "a13": -3.0}),
    ("q-spectrum", {"sites": 3, "weights": ["a", 0, 0]}),
    ("check-yangian", {"sites": 3, "weights": [NAN, 0, 0]}),
    ("phase-map", {"a12_range": [0, 1], "a13_range": [0, 1], "n_grid": "x"}),
    ("moments", {"sites": 4, "a12": 1.0, "a13": -3.0, "m": NAN}),
    ("levels-report", {"b_min": -1, "b_max": 1, "n_grid": 3,
                       "delta_gap": NAN}),
    ("levels-report", {"b_min": NAN, "b_max": 1, "n_grid": 3}),
    ("levels-report", {"b_min": -1, "b_max": 1, "n_grid": 3, "gamma": INF}),
    ("levels-report", {"b_min": -1, "b_max": 1, "n_grid": "x"}),
    ("levels-report", {"b_min": -1e200, "b_max": 1e200, "n_grid": 3,
                       "gamma": 1e200}),
    ("simulate", {"A": "x"}),
    ("simulate", {"n_steps": "x"}),
    ("simulate", {"field": {"amplitude": "x"}}),
    ("phase-map", {"a12_range": ["x", 1], "a13_range": [0, 1], "n_grid": 3}),
    ("phase-map", {"a12_range": 5, "a13_range": [0, 1], "n_grid": 3}),
    ("phase-map", {"a12_range": [1], "a13_range": [0, 1], "n_grid": 3}),
    ("spectrum", {"family": ["x"], "a12": 1.0, "a13": -3.0}),
    ("moments", {"sites": 4, "a12": 1.0, "a13": -3.0, "label": ["x"]}),
    # values that used to be coerced silently
    ("moments", {"sites": 4.9, "a12": 1.0, "a13": -3.0}),
    ("phase-map", {"a12_range": [0, 1], "a13_range": [0, 1], "n_grid": 2.5}),
    ("simulate", {"n_steps": 20.7}),
    ("simulate", {"A": True}),
    ("spectrum", {"family": "triangle", "J12": "65", "J13": 7.0}),
    # weights off the Hermitian plane at a scale where Q would overflow:
    # the triple-prefactor rule refuses them before Q is built
    ("commutant", {"sites": 3, "weights": [1e200, 2e200, 1.1e200]}),
    # an explicit initial state is a pair of numbers, like any other number
    ("simulate", {"init": [True, False]}),
    ("simulate", {"init": ["0.5", "0"]}),
    # one weight per site
    ("q-spectrum", {"sites": 3, "weights": [0.0, 0.0]}),
    ("check-yangian", {"sites": 4, "weights": [0.0, 0.0, 0.0]}),
    ("commutant", {"weights": [0.0, 0.0, 0.0, 0.0]}),
    # an explicit initial state is a pair, not one number
    ("simulate", {"init": [0.0]}),
    # a nested object, and the document itself, must be JSON objects
    ("simulate", {"field": 3}),
    ("simulate", [0.0, 1.0]),
])
def test_malformed_numbers_are_config_errors(tmp_path, command, payload):
    cfg = write_cfg(tmp_path, payload)
    code, out, err = run(command, cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert_refused_without_writing(tmp_path, 2, command, cfg)


@pytest.mark.parametrize("command, payload", [
    ("spectrum", {"family": "parallelogram", "a12": 1e308, "a13": 1e308}),
    ("check-yangian", {"sites": 3, "weights": [1e308, 1e308, 1e308]}),
    ("q-spectrum", {"sites": 3, "weights": [1e200, 2e200, 1e200]}),
    ("phase-map", {"a12_range": [1e308, 1e308], "a13_range": [0, 1],
                   "n_grid": 2}),
    ("levels-report", {"b_min": 1, "b_max": 2, "n_grid": 3,
                       "delta_gap": 1e200}),
    ("commutant", {"sites": 3, "weights": [1e200, 2e200, 1e200]}),
])
def test_non_finite_results_are_numerical_failures(tmp_path, command, payload):
    code, out, err = run(command, write_cfg(tmp_path, payload))
    assert code == 3
    assert out == ""
    assert err.startswith("numerical check failed:")


def test_levels_report_overflowing_matrix_fails_the_hermiticity_gate(tmp_path):
    # 2 * 1.7e308 overflows on the 9x9 diagonal: refused before any solve
    payload = {"b_min": 1.7e308, "b_max": 1.7e308, "n_grid": 2}
    code, out, err = run("levels-report", write_cfg(tmp_path, payload))
    assert (code, out) == (3, "")
    assert err == ("numerical check failed: matrix is not Hermitian: "
                   "max |M - M^dag| = nan\n")


@pytest.mark.parametrize("b", [1e100, -1e100, 1e160, -1e160, 1e200, -1e200])
def test_levels_report_overflowing_closed_forms_fail_after_the_solve(tmp_path, b):
    # the solve is finite at these fields (its Gram matrices are scaled);
    # the closed forms' B**4 overflows
    payload = {"b_min": b, "b_max": b, "n_grid": 2, "delta_gap": 0.1}
    code, out, err = run("levels-report", write_cfg(tmp_path, payload))
    assert (code, out) == (3, "")
    assert err == ("numerical check failed: closed-form levels overflow on "
                   "this grid\n")


def _reject_constant_in_sum(name):
    raise AssertionError(f"{name} in JSON output")


@pytest.mark.parametrize("payload", [
    {"family": "parallelogram", "a12": 1, "a13": 1e308},
    {"family": "triangle", "J12": 1e308, "J13": -1e308},
])
def test_weighted_sum_of_finite_levels_survives_product_overflow(tmp_path, payload):
    # every level is finite, but E*(2S+1) overflows for the largest ones
    code, out, err = run("spectrum", write_cfg(tmp_path, payload))
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_reject_constant_in_sum)
    peak = max(abs(lev["energy"]) for lev in doc["levels"])
    assert abs(doc["weighted_sum"]) <= 1e-10 * peak


def test_size_beyond_memory_is_a_config_error(tmp_path):
    # numpy refuses the 7.28 TiB axis before allocating any of it
    payload = {"a12_range": [0, 1], "a13_range": [0, 1], "n_grid": 1e12}
    code, out, err = run("phase-map", write_cfg(tmp_path, payload))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: Unable to allocate")


def test_phase_map_csv(tmp_path):
    path = write_cfg(tmp_path, {"a12_range": [0.5, 1.0],
                                "a13_range": [-4.0, -3.0], "n_grid": 2})
    code, out, _ = run("phase-map", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a12,a13,ground_labels,ground_S,ground_energy"
    assert len(lines) == 5
    assert all(line.split(",")[2] == "triplet3" for line in lines[1:])


# --- dynamics commands -------------------------------------------------------

def test_simulate_writes_trajectory_csv(tmp_path):
    cfg = {"field": {"kind": "constant", "amplitude": 0.5, "t_end": 1.0},
           "n_steps": 50}
    out_path = tmp_path / "traj.csv"
    code, out, _ = run("simulate", write_cfg(tmp_path, cfg),
                       "--out", str(out_path))
    assert code == 0 and out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,B,M_norm,rho00,n"
    assert len(lines) == 52


def test_simulate_stiff_run_exits_three(tmp_path):
    argv = ("simulate", "--preset", "fig4-loop", "--steps", "3000")
    code, _, err = run(*argv)
    assert code == 3
    assert "numerical check failed" in err
    # the integrator's gate fires before --out is opened
    assert_refused_without_writing(tmp_path, 3, *argv)


def cli_process(argv, stdout):
    """``python -m spincluster.cli argv`` in a subprocess, stderr piped.
    Its stdout is block-buffered, as from a shell, so small outputs wait
    for a flush."""
    src = str(Path(spincluster.__file__).parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, "-m", "spincluster.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("argv, read", [
    (("simulate", "--preset", "fig4-loop"), 10),  # mid-stream, 10 MB to go
    (("spectrum", "--preset", "v6-triangle"), 0),  # closed before the write
])
def test_a_closed_stdout_pipe_ends_the_output_quietly(argv, read):
    # no "config error", and no "Exception ignored" from the flush at exit
    proc = cli_process(argv, subprocess.PIPE)
    head = proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), len(head), err) == (0, read, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, to_stdout", [
    (("spectrum", "--preset", "v6-triangle"), True),  # fails in main's flush
    (("simulate", "--preset", "fig4-loop"), True),  # fails mid-stream
    (("phase-map", "PM"), True),
    (("simulate", "--preset", "fig4-loop", "--out", "/dev/full"), False),
    (("spectrum", "--preset", "v6-triangle", "--out", "/dev/full"), False),
])
def test_a_failed_write_is_an_output_error(tmp_path, argv, to_stdout):
    # exit 2 with one "output error" line: not "config error", and no
    # "Exception ignored" from the flush at exit
    cfg = write_cfg(tmp_path, {"a12_range": [-6, 2], "a13_range": [-5, 3],
                               "n_grid": 300})
    argv = [cfg if arg == "PM" else arg for arg in argv]
    with open("/dev/full" if to_stdout else os.devnull, "w") as stdout:
        proc = cli_process(argv, stdout)
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert err == "output error: [Errno 28] No space left on device\n"


def test_simulate_overflowing_rates_do_not_ask_for_steps(tmp_path):
    # no step count helps: the rates overflow at this field
    path = write_cfg(tmp_path, {"field": {"kind": "constant",
                                          "amplitude": 1e200}})
    code, out, err = run("simulate", path)
    assert (code, out) == (3, "")
    assert err == ("numerical check failed: transition rates are not "
                   "finite at B = 1e+200\n")


def test_simulate_mode_flag_changes_output(tmp_path):
    cfg = {"field": {"kind": "constant", "amplitude": 0.4, "t_end": 5.0},
           "init": "polarized_up", "n_steps": 200}
    path = write_cfg(tmp_path, cfg)
    _, derived, _ = run("simulate", path)
    code, verbatim, _ = run("simulate", path, "--mode", "paper_verbatim")
    assert code == 0
    assert derived != verbatim


def test_simulate_level_mixing_preset_returns_home():
    # half a drive period with no field sign change: magnetization must
    # come back to where it started
    code, out, _ = run("simulate", "--preset", "fig5-lzs", "--steps", "20000")
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert abs(float(last[2])) < 1e-6


def test_levels_report_csv(tmp_path):
    path = write_cfg(tmp_path, {"b_min": -1.0, "b_max": 1.0, "n_grid": 3,
                                "delta_gap": 1.0})
    code, out, _ = run("levels-report", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "B,level,numeric,printed,corrected"
    assert len(lines) == 1 + 3 * 9


def _trajectory_against_step_loop(out, payload):
    """Bound M_norm,rho00,n of a default-parameter simulate CSV against
    the step-loop oracle; return the t,B columns as CSV text."""
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["t", "B", "M_norm", "rho00", "n"]
    want = rk4_oracle(RateParams(), FieldProfile(**payload["field"]),
                      n_steps=payload["n_steps"])
    got = np.array(rows[1:], dtype=float)
    for k, name in enumerate(("M_norm", "rho00", "n"), start=2):
        assert np.max(np.abs(got[:, k] - getattr(want, name))) <= SCAN_ATOL
    return "".join(",".join(row[:2]) + "\n" for row in rows)


def _levels_against_complex_eigh(out, payload):
    """Bound the numeric column of a levels-report CSV against complex eigh
    at each field (LEVELS_RTOL); return the CSV text whole."""
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["B", "level", "numeric", "printed", "corrected"]
    want = complex_eigh_levels(
        np.linspace(payload["b_min"], payload["b_max"], payload["n_grid"]),
        payload["delta_gap"], payload["gamma"])
    got = np.array([row[2] for row in rows[1:]], dtype=float)
    assert_levels_near_complex_eigh(got.reshape(want.shape), want)
    return out


# sha256 of stdout of each CSV output, or of the columns that its bounding
# oracle returns.  The levels-report digests were taken once its closed
# forms were assembled from sorted magnitudes as 0.0 - m, 0, m, so that no
# level prints as -0 whatever numpy's sort kernel does with equal zeros
# (before, some printed and corrected cells read -0; no other cell moved).
# The phase-map digests were taken once each level energy was summed from
# 0.0, so that a zero energy is 0, never -0 (before, the origin's ground
# energy read -0 on x86, where np.min keeps the second of tied zeros; no
# other cell moved).
# The others come from the writers that each command had before all three
# shared one, and the 101-point phase map from the writer before it
# indexed its grid columns.  The writer's blocks hold about 5 * 1024 floats
# of the distinct plain float columns: 1024 rows of adiabatic simulate,
# 1280 of simulate with lzs_mode off (M_norm is n) and 5120 of phase-map;
# levels-report has no plain float column, so its blocks hold 5120 rows,
# and its field grid and level magnitudes are formatted per block over the
# range of fields its rows use.  A piece of the text is one block.
# simulate-5000 (5001 rows), levels-report-5 (45 rows), -400 (3600) and
# phase-map-101 (10201) cross block edges or fill one block in part.  The
# phase maps hold the six-way tie at the origin, the singlet ties on the
# diagonal and degenerate-mixed rows.
# The simulate digest covers its t,B columns only: the integrator composes
# its steps in a prefix scan, so M_norm,rho00,n are bounded against the
# step loop instead (SCAN_ATOL); its 5000 steps fill part of one 8192-step
# block, the last of its 32-step rows with 8 steps.
# levels-report-37 and -400 pin their whole CSV: the numeric column, solved
# in the (C, Gamma) blocks by elementwise Grams and dlae2, has the same bits
# on every BLAS/LAPACK and SIMD kernel set.  It lies a few ulps off complex
# eigh, so it is also bounded against that (LEVELS_RTOL at each field).
# levels-report-5 (gap 0) still matches complex eigh to the byte.
@pytest.mark.parametrize("command, payload, bounded, digest", [
    pytest.param(
        "levels-report", {"b_min": -3.0, "b_max": 2.0, "n_grid": 37,
                          "delta_gap": 0.7, "gamma": 1.3},
        _levels_against_complex_eigh,
        "eb11b88ac6a44905b48dfe469102adf8b3ebfe2e868d74464908a237b361b3e1",
        id="levels-report-37"),
    pytest.param(
        "levels-report", {"b_min": 1.0, "b_max": -1.0, "n_grid": 5,
                          "delta_gap": 0.0},
        None,
        "31d3b0b915a5c9265105f2ce80231cc9d29245698c9e250ec058466366560164",
        id="levels-report-5"),
    pytest.param(
        "phase-map", {"a12_range": [-35, 35], "a13_range": [-35, 35],
                      "n_grid": 71},
        None,
        "0b89ee98fd139199183fef7a9353f23c4d62241127a3ee84ed530d28e09c4135",
        id="phase-map-71"),
    pytest.param(
        "phase-map", {"a12_range": [-35, 35], "a13_range": [-35, 35],
                      "n_grid": 101},
        None,
        "3e94f42fb0120782b483ee09a19a61dca250b2f54f0c96bb15417b3b1dbee927",
        id="phase-map-101"),
    pytest.param(
        "levels-report", {"b_min": -3.0, "b_max": 2.0, "n_grid": 400,
                          "delta_gap": 0.7, "gamma": 1.3},
        _levels_against_complex_eigh,
        "c00caa32c4be3592f46f817b625ed935020b7a42014dc9f121679ef4c6258432",
        id="levels-report-400"),
    pytest.param(
        "simulate", {"field": {"kind": "sinusoid", "amplitude": 2.0,
                               "t_end": 6.283185307179586}, "n_steps": 5000},
        _trajectory_against_step_loop,
        "2f8674bc4a47e316c1bf465fb5e3d609da5729825e22d9abf9d1276d128fdf75",
        id="simulate-5000"),
])
def test_csv_bytes_are_pinned(tmp_path, command, payload, bounded, digest):
    code, out, _ = run(command, write_cfg(tmp_path, payload))
    assert code == 0
    if bounded is not None:
        out = bounded(out, payload)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_is_deterministic():
    first = run("moments", "--preset", "v8-ground")
    second = run("moments", "--preset", "v8-ground")
    assert first == second


def test_preset_overlaid_by_config(tmp_path):
    # a config file on top of a preset replaces only the keys it names
    path = write_cfg(tmp_path, {"J13": 9.0})
    code, out, _ = run("spectrum", "--preset", "v6-triangle", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"J12": 65.0, "J13": 9.0}


def test_field_merges_item_wise_over_a_preset(tmp_path):
    # the file's field amplitude replaces the preset's; its t_end = pi stays
    # (FieldProfile's own default is 2 pi)
    merged = run("simulate", "--preset", "fig5-lzs", "--steps", "20000",
                 write_cfg(tmp_path, {"field": {"amplitude": 5.0}}))
    explicit = run("simulate", "--steps", "20000", write_cfg(tmp_path, {
        "field": {"kind": "sinusoid", "amplitude": 5.0, "angular_rate": 1.0,
                  "t_start": 0.0, "t_end": math.pi},
        "delta_gap": 0.1, "init": "equilibrium", "lzs_mode": "adiabatic"}))
    assert merged[0] == 0
    assert merged == explicit
    assert merged[1].splitlines()[-1].split(",")[0] == "%.17g" % math.pi


# -0 or -0.0 as a whole JSON number or CSV cell
NEGATIVE_ZERO = re.compile(r"(?<![\w.+-])-0(\.0*)?(?![\w.])")


@pytest.mark.parametrize("command, payload", [
    ("commutant", {"sites": 3}),  # a basis vector's zeros after its sign flip
    ("spectrum", {"family": "parallelogram", "a12": 0.0, "a13": 0.0}),
    ("spectrum", {"family": "triangle", "J12": 0.0, "J13": 0.0}),
    # unpolarized sites, and m = -S of an S = 0 level
    ("moments", {"sites": 4, "a12": 1.0, "a13": 1.0, "label": "singlet_minus"}),
    # the six levels tied at zero at the origin
    ("phase-map", {"a12_range": [-1.0, 1.0], "a13_range": [-1.0, 1.0],
                   "n_grid": 3}),
    # a zero field crossed with a negative amplitude
    ("simulate", {"n_steps": 200,
                  "field": {"kind": "sinusoid", "amplitude": -2.0}}),
    ("simulate", {"n_steps": 200,
                  "field": {"kind": "linear_ramp", "amplitude": -2.0,
                            "t_start": -1.0, "t_end": 1.0}}),
    # cos(beta) = 0 at B = 0 times a negative n
    ("simulate", {"n_steps": 200, "lzs_mode": "adiabatic",
                  "init": "polarized_up",
                  "field": {"kind": "sinusoid", "amplitude": 2.0}}),
] + CONFIGS + [(command, preset) for preset, commands in PRESETS.items()
               for command in commands])
def test_computed_zeros_are_written_as_zero(tmp_path, command, payload):
    argv = ([command, "--preset", payload] if isinstance(payload, str)
            else [command, write_cfg(tmp_path, payload)])
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert NEGATIVE_ZERO.search(out) is None


@pytest.mark.parametrize("command, payload", [
    ("q-spectrum", {"sites": 3, "weights": [-0.0, 0.5, 0.5]}),
    ("check-yangian", {"sites": 3, "weights": [-0.0, 0.5, 0.5]}),
    ("commutant", {"sites": 3, "weights": [-0.0, 0.5, 0.5]}),
    ("spectrum", {"family": "triangle", "J12": -0.0, "J13": 1}),
    ("phase-map", {"a12_range": [-0.0, 1.0], "a13_range": [-1.0, -0.0],
                   "n_grid": 2}),
    ("moments", {"sites": 4, "a12": 1, "a13": 1, "label": "singlet_minus",
                 "m": -0.0}),
    ("levels-report", {"b_min": -0.0, "b_max": 1.0, "n_grid": 2,
                       "delta_gap": -0.0, "gamma": 1.0}),
    # the initial n = -0.0 is the first row's n and M_norm
    ("simulate", {"init": [-0.0, 0.0], "n_steps": 50000,
                  "field": {"kind": "sinusoid", "amplitude": 2.0}}),
])
def test_input_negative_zeros_are_read_as_zero(tmp_path, command, payload):
    code, out, err = run(command, write_cfg(tmp_path, payload))
    assert (code, err) == (0, "")
    assert NEGATIVE_ZERO.search(out) is None


# --- the CLI contract over generated configs ---------------------------------

# spectrum and moments also take the coupling keys of one closed-form
# family, which their family or sites value names seven times in eight
KEY_SETS = {
    "q-spectrum": ["sites", "weights"],
    "check-yangian": ["sites", "weights"],
    "commutant": ["sites", "weights"],
    "spectrum": ["family"],
    "phase-map": ["a12_range", "a13_range", "n_grid"],
    "moments": ["sites", "m", "g", "label"],
    "levels-report": ["b_min", "b_max", "n_grid", "delta_gap", "gamma"],
    "simulate": ["A", "inv_temp", "gamma", "delta_gap", "field", "init",
                 "n_steps", "lzs_mode", "mode"],
}
FIELD_KEYS = ["kind", "amplitude", "angular_rate", "t_start", "t_end"]
WORDS = ["triangle", "parallelogram", "sinusoid", "linear_ramp", "constant",
         "triplet3", "singlet_minus", "alpha", "quartet", "equilibrium",
         "polarized_up", "off", "adiabatic", "derived", "paper_verbatim", "x"]
# sizes stay small so every example runs in milliseconds; a size too large
# to allocate is test_size_beyond_memory_is_a_config_error
SIZES = [0, -1, 1, 2, 3, 10, 40, 2.5, "x", True, None, [3]]

EXTREMES = [0.0, 1e-300, 1e200, 1e308, -1e308]
NUMBERS = st.floats(-10.0, 10.0) | st.sampled_from(EXTREMES)
SCALARS = (st.none() | st.booleans() | st.integers(-4, 4) | NUMBERS
           | st.sampled_from([NAN, INF, -INF]) | st.sampled_from(WORDS)
           | st.sampled_from(["65", "3", "1e3", "nan"]))
WILD = SCALARS | st.lists(SCALARS, max_size=4)
# values each subcommand accepts, drawn more often than wild ones so that
# runs also reach the numerics
PLAUSIBLE = {
    "sites": st.sampled_from([2, 3, 4]),
    "weights": st.lists(NUMBERS, min_size=2, max_size=4),
    "a12_range": st.lists(NUMBERS, min_size=2, max_size=2).map(sorted),
    "a13_range": st.lists(NUMBERS, min_size=2, max_size=2).map(sorted),
    "family": st.sampled_from(["triangle", "parallelogram"]),
    "label": st.sampled_from(["alpha", "beta", "quartet", "quintet",
                              "triplet1", "triplet3", "singlet_minus"]),
    "A": st.floats(0.01, 10.0),
    "inv_temp": st.floats(0.01, 10.0),
    "delta_gap": st.floats(0.0, 10.0),
    "m": st.sampled_from([-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2]),
    "init": st.sampled_from(["equilibrium", "polarized_up"])
    | st.lists(NUMBERS, min_size=2, max_size=2),
    "kind": st.sampled_from(["sinusoid", "linear_ramp", "constant"]),
    "t_start": st.floats(-1.0, 0.0),
    "t_end": st.floats(0.5, 10.0),
    "lzs_mode": st.sampled_from(["off", "adiabatic"]),
    "mode": st.sampled_from(["derived", "paper_verbatim"]),
}


def _value(key, plausible):
    if key in ("n_grid", "n_steps"):
        return st.sampled_from(SIZES)
    if key == "field":
        return st.sampled_from([_object(FIELD_KEYS)] * 7 + [WILD]).flatmap(
            lambda values: values)
    # one value in eight is a wild one
    return st.sampled_from([plausible.get(key, NUMBERS)] * 7 + [WILD]).flatmap(
        lambda values: values)


def _object(keys, plausible=PLAUSIBLE):
    """Config objects over keys, with a few of them left out and, one time
    in eight, an unknown key."""
    def trim(doc, dropped, unknown):
        return {k: v for k, v in doc.items()
                if k not in dropped and (unknown or k != "bogus")}
    return st.builds(
        trim, st.fixed_dictionaries({k: _value(k, plausible)
                                     for k in keys + ["bogus"]}),
        st.sets(st.sampled_from(keys), max_size=2),
        st.sampled_from([False] * 7 + [True]))


def _case(command):
    """(command, config object) over the command's keys."""
    if command not in ("spectrum", "moments"):
        return st.tuples(st.just(command), _object(KEY_SETS[command]))
    return st.sampled_from(sorted(FAMILIES)).flatmap(lambda family: st.tuples(
        st.just(command),
        _object(KEY_SETS[command] + list(FAMILIES[family].couplings),
                {**PLAUSIBLE, "family": st.just(family),
                 "sites": st.just(FAMILIES[family].sites)})))


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@seed(505)
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(KEY_SETS)).flatmap(_case))
def test_any_config_exits_cleanly(tmp_path_factory, case):
    command, doc = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(command, str(path))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == ""
    elif out.startswith("{"):
        json.loads(out, parse_constant=_reject_constant)
    else:
        for line in out.splitlines()[1:]:
            for cell in line.split(","):
                try:
                    number = float(cell)
                except ValueError:  # a level label
                    continue
                assert math.isfinite(number), line
