"""The library's public surface is what the CLI reaches, plus named paper checks.

Every preset and every subcommand on two to four sites runs through
``main`` under ``sys.setprofile``.  Each public function or method of the
package must then be either reached, or listed in ``PAPER_CHECKS`` under
the test that reads it; and no listed name may be reached by the CLI, or
it belongs to the CLI's surface instead.
"""

import contextlib
import inspect
import io
import json
import pkgutil
import re
import sys
from importlib import import_module
from pathlib import Path

import spincluster
from spincluster.cli import PRESETS, main

# "file::test" -> the public names that only this paper check reads
PAPER_CHECKS = {
    "test_acceptance.py::test_criterion_03_commuting_coupling_families":
        ("symmetry.commutator_defect", "symmetry.family_projection_residual"),
    "test_acceptance.py::test_criterion_04_mixing_angle_relation":
        ("symmetry.extract_mixing_theta", "symmetry.mixing_relation_residual"),
    "test_acceptance.py::test_criterion_05_closed_form_levels":
        ("spectra.closed_form_defect",),
    "test_acceptance.py::test_criterion_06_ground_state_over_wedge_grid":
        ("symmetry.CouplingSet.vector",),
    "test_acceptance.py::test_criterion_07_corner_moment_pattern":
        ("multiplets.invariant_eigenstates",),
    "test_acceptance.py::test_criterion_09_expansion_and_action_blocks":
        ("yangian.action_blocks", "yangian.expanded_q", "yangian.numeric_action_block"),
    "test_acceptance.py::test_criterion_11_level_mixing_closed_forms":
        ("dynamics.lzs_eigenvectors", "dynamics.lzs_three_level"),
    "test_acceptance.py::test_criterion_12_hysteresis_endurance":
        ("dynamics.Trajectory.population_defect", "dynamics.enclosed_area"),
    "test_dynamics.py::test_constant_field_relaxes_to_equilibrium":
        ("dynamics.Trajectory.populations",),
    "test_multiplets.py::test_members_carry_exact_labels": ("operators.casimir",),
    "test_multiplets.py::test_mixing_pair_spans_degenerate_invariant_block":
        ("multiplets.mixing_pair",),
    "test_operators.py::test_cross_antisymmetry_and_triple": ("operators.scalar_triple",),
    "test_spectra.py::test_parallelogram_closed_form_matches_diagonalization":
        ("spectra.LevelSet.expanded",),
    "test_symmetry.py::test_block_elements_match_numeric_block":
        ("symmetry.degenerate_block_elements", "symmetry.numeric_degenerate_block"),
    "test_symmetry.py::test_diagonalizing_theta_kills_offdiagonal":
        ("symmetry.diagonalizing_theta", "symmetry.rotated_offdiagonal"),
    "test_symmetry.py::test_family_members_commute_with_invariant":
        ("symmetry.family_fill_residual",),
    "test_symmetry.py::test_members_without_real_root_fail_loudly":
        ("symmetry.has_real_mixing_angle",),
}
CHECKED = {name: where for where, names in PAPER_CHECKS.items() for name in names}

# configs beyond the presets: both families, the CSV subcommands, the
# other field kinds, an init pair, the printed coefficients, every size
CONFIGS = [
    ("spectrum", {"family": "triangle", "J12": 65.0, "J13": 7.0}),
    ("spectrum", {"family": "parallelogram", "a12": 1.0, "a13": -3.0}),
    ("phase-map", {"a12_range": [-3.0, 3.0], "a13_range": [-3.0, 3.0], "n_grid": 7}),
    ("levels-report", {"b_min": -3.0, "b_max": 3.0, "n_grid": 9}),
    ("simulate", {"n_steps": 200, "mode": "paper_verbatim",
                  "field": {"kind": "linear_ramp", "amplitude": 0.5}}),
    ("simulate", {"n_steps": 200, "init": [0.0, 0.5],
                  "field": {"kind": "constant", "amplitude": 0.5}}),
] + [(command, {"sites": sites})
     for command in ("q-spectrum", "check-yangian", "commutant")
     for sites in (2, 3, 4)]

MODULES = [import_module(f"spincluster.{info.name}")
           for info in pkgutil.iter_modules(spincluster.__path__)]


def _public():
    """{'module.name' or 'module.Class.method': code object} of every
    public function and method defined in the package."""
    found = {}
    for module in MODULES:
        short = module.__name__.split(".", 1)[1]
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = {name: value}
            if inspect.isclass(value):
                members = {f"{name}.{attr}": member
                           for attr, member in vars(value).items()
                           if not attr.startswith("_")}
            for key, member in members.items():
                # a property's getter, a classmethod's function, a cache's target
                member = getattr(member, "fget", getattr(member, "__func__", member))
                member = inspect.unwrap(member)
                if inspect.isfunction(member):
                    found[f"{short}.{key}"] = member.__code__
    return found


def _reached(tmp_path):
    """Code objects that ``main`` runs for every preset and every config."""
    invocations = [[command, "--preset", preset]
                   + (["--steps", "200"] if command == "simulate" else [])
                   for preset, commands in PRESETS.items() for command in commands]
    for k, (command, doc) in enumerate(CONFIGS):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        invocations.append([command, str(path)])
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):  # cached builders must run again
                value.cache_clear()
    codes = set()
    sink = io.StringIO()
    sys.setprofile(lambda frame, event, _: event == "call" and codes.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exits = [main(argv) for argv in invocations]
    finally:
        sys.setprofile(None)
    # at 200 steps the swept presets stop at the integrator's population gate
    assert set(exits) <= {0, 3}, sink.getvalue()
    return codes


def test_every_public_function_is_reached_or_a_paper_check(tmp_path):
    public = _public()
    reached = _reached(tmp_path)
    assert sorted(set(CHECKED) - set(public)) == []
    unused = sorted(name for name, code in public.items()
                    if code not in reached and name not in CHECKED)
    assert unused == []
    assert sorted(name for name in CHECKED if public[name] in reached) == []
    for name, where in CHECKED.items():
        file, test = where.split("::")
        source = (Path(__file__).parent / file).read_text() + "\nend"
        body = re.search(rf"^def {test}\(.*?(?=^\S)", source, re.M | re.S)
        assert body and name.rsplit(".", 1)[1] in body.group(), (name, where)
