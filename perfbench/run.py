"""spincluster benchmark: seeded CLI workloads, timed and checked from outside.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,scan,algebra} --seed N \
        --seconds S --trace {0,1}

One client drives the CLI in a closed loop: each pass of a workload runs
in one fresh child interpreter (``child.py``), which calls
``spincluster.cli.main(argv)`` for every invocation in turn; the next
call starts only after the previous one returned and its output was
checked.  Passes repeat until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without
a result when the package source is not present.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this client and its children: the client is single
# threaded, and the matrices are at most 16x16.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# Import time alone is bimodal across fresh interpreters (45-69 ms), so
# setup_s is the median over this many spawns plus one per pass.
SETUP_SPAWNS = 20
WORKDIR = Path(".bench_build") / "perfbench"


def _child_env():
    """Children import the package from ``src`` and keep its bytecode in
    the work directory, as an installed package keeps its own: setup_s
    then times loading, not compiling, whatever the caller's settings."""
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str((WORKDIR / "pycache").resolve())
    return env


class Child:
    """A child interpreter, timed from spawn to its ``ready`` line."""

    def __init__(self, args, env):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready != b"ready\n":
            self.close()
            raise RuntimeError("the package did not import in a fresh "
                               "interpreter")

    def header(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child interpreter ended early")
        return json.loads(line)

    def payload(self):
        parts = []
        while True:
            size = int(self.proc.stdout.readline())
            if size == 0:
                return b"".join(parts)
            parts.append(self.proc.stdout.read(size))

    def ack(self):
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Pass:
    """Measurements of one pass."""

    def __init__(self, setup_s):
        self.setup_s = setup_s
        self.latencies = []
        self.failed = 0
        self.out_bytes = 0
        self.problems = []
        self.peak_rss_mb = None
        self.trace = None

    @property
    def wall_s(self):
        return sum(self.latencies)


def _check(item, header, text):
    """Why an invocation failed, or None."""
    if header["traceback"] or "Traceback" in header["stderr"]:
        return (header["traceback"] or header["stderr"]).strip()[-300:]
    if header["code"] != 0:
        return f"exit code {header['code']}: {header['stderr'].strip()[:200]}"
    try:
        problems = checks.check(item["argv"][0], text, item["spec"])
    except Exception as exc:  # a malformed output must not stop the run
        problems = [f"checker raised {exc!r}"]
    return "; ".join(problems[:3]) if problems else None


def run_pass(plan_path, items, env):
    child = Child([str(plan_path)], env)
    result = Pass(child.setup_s)
    try:
        for item in items:
            header = child.header()
            data = child.payload()
            result.latencies.append(header["seconds"])
            result.out_bytes += len(data)
            problem = _check(item, header, data.decode())
            if problem:
                result.failed += 1
                result.problems.append(f"{' '.join(item['argv'])}: {problem}")
            child.ack()
        final = child.header()
        result.peak_rss_mb = final["peak_rss_kb"] / 1024.0
        result.trace = final["trace"]
    finally:
        child.close()
    return result


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _environment():
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS, "git_commit": None}
    try:
        info["blas"] = np.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        info["blas"] = None
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        info["git_commit"] = done.stdout.strip() or None
    return info


def end_to_end(passes, setups):
    """Medians over passes; latency percentiles are taken per pass first,
    so one disturbed pass cannot move them."""
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"perfbench: {len(passes)} passes of {len(passes[0].latencies)} "
          f"calls (the latency samples of each percentile), "
          f"{len(setups)} setup spawns")

    def median(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median(lambda p: p.wall_s), "s"),
        "peak_rss_mb": (median(lambda p: p.peak_rss_mb), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "op_p50_ms": (1e3 * median(lambda p: percentile(p.latencies, 50)), "ms"),
        "op_p90_ms": (1e3 * median(lambda p: percentile(p.latencies, 90)), "ms"),
    }


def per_layer(plain, traced):
    metrics = {}
    spans = [p.trace["spans"] for p in traced]
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = (spans[0][name][0], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s[name][1] for s in spans), "s")
    for name, ratio in traced[0].trace["repeat_ratio"].items():
        metrics[f"{name}.repeat_ratio"] = (ratio, "ratio")
    metrics["cli.out_bytes"] = (traced[0].out_bytes, "bytes")
    for name, count in traced[0].trace["work"].items():
        metrics[name] = (count, "count")
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.self_sum_s"] = (statistics.median(
        sum(v[1] for v in s.values()) for s in spans), "s")
    metrics["trace.overhead_ratio"] = (
        traced_wall / statistics.median(p.wall_s for p in plain), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/spincluster/cli.py").is_file():
        print("perfbench: run from the repository root; src/spincluster "
              "is missing", file=sys.stderr)
        return 2
    env = _child_env()
    workdir = WORKDIR / f"{args.workload}-{args.seed}"
    items = workloads.build(args.workload, args.seed, workdir)
    argvs = [item["argv"] for item in items]
    plans = {}
    for trace in (False, True):
        plans[trace] = workdir / f"plan-trace{int(trace)}.json"
        plans[trace].write_text(json.dumps({"argvs": argvs, "trace": trace}))
    print("perfbench: env " + json.dumps(_environment()))

    # A first spawn compiles the package's bytecode; it is not timed.
    Child(["--setup-only"], env).close()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SPAWNS):
            child = Child(["--setup-only"], env)
            setups.append(child.setup_s)
            child.close()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(plans[False], items, env))
        setups.append(plain[-1].setup_s)
        if args.trace:
            traced.append(run_pass(plans[True], items, env))
    passes = plain + traced
    for p in passes:
        for problem in p.problems[:5]:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, setups)
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
