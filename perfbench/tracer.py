"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each function named in ``TRACED`` with a
wrapper, in every ``spincluster`` module that holds a reference to it, so
calls between modules are seen too.  Nothing in the package changes on
disk.  Spans are kept in memory as ``(name, start, end, parent)`` tuples,
where ``parent`` is the index of the enclosing span or -1, and reduced
to per-function call counts and self times when the pass ends.  A name
the package no longer defines is skipped and reports zero calls.
"""

import functools
import sys
import time

# module -> functions traced in it ("Class.method" for methods)
TRACED = {
    "operators": ("embed", "site_spin", "total_spin", "casimir",
                  "hermitian_eig"),
    "multiplets": ("multiplet_table", "branches", "invariant_eigenstates",
                   "mixing_pair"),
    "yangian": ("build_yangian", "build_q", "check_yangian_axioms",
                "q_joint_labels", "q_spectrum"),
    "symmetry": ("heisenberg_hamiltonian", "commutant_family"),
    "spectra": ("phase_map", "classify_ground", "parallelogram_levels",
                "triangle_levels"),
    "observables": ("local_moments",),
    "dynamics": ("integrate_magnetization", "Trajectory.to_csv",
                 "coupled_levels_report", "coupled_spin1_hamiltonian"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items()
                   for name in names)


def _freeze(value):
    """Hashable stand-in for an argument, equal for equal arguments."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if hasattr(value, "tobytes"):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def _argument_key(args, kwargs):
    return _freeze(args) + _freeze(tuple(sorted(kwargs.items())))


# Spans whose distinct arguments are counted, for repeat_ratio.
REPEATED = ("operators.site_spin", "multiplets.multiplet_table",
            "yangian.build_q")

# work counter -> (span, work done by one call, from its result)
WORK = {
    "dynamics.rk4_steps": ("dynamics.integrate_magnetization",
                           lambda result: len(result.t) - 1),
    "spectra.grid_points": ("spectra.phase_map", len),
    "dynamics.field_points": ("dynamics.coupled_levels_report",
                              lambda result: len(result.b_grid)),
}


def self_times(spans):
    """{name: (calls, self seconds)}: each span's duration less the time
    its direct children cover.  Children of one span never overlap,
    because calls nest on a single thread."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (name, start, end, _), cover in zip(spans, covered):
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start) - cover)
    return totals


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.distinct = {name: set() for name in REPEATED}
        self.work = {name: 0 for name in WORK}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        distinct = self.distinct.get(name)
        counters = [(counter, amount) for counter, (span, amount)
                    in WORK.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add(_argument_key(args, kwargs))
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            for counter, amount in counters:
                self.work[counter] += amount(result)
            return result

        return traced

    def install(self, package="spincluster"):
        """Wrap every traced function of the imported package."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"{package}.{module_name}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{qualname}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def summary(self):
        """Per-span calls and self time, repeat ratios and work counts."""
        totals = self_times(self.spans)
        return {
            "spans": {name: totals.get(name, (0, 0.0)) for name in SPAN_NAMES},
            "repeat_ratio": {
                name: (1.0 - len(keys) / totals[name][0]
                       if name in totals else 0.0)
                for name, keys in self.distinct.items()},
            "work": dict(self.work),
        }
