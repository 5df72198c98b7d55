"""One fresh interpreter that runs one pass of a workload.

Usage: ``python3 perfbench/child.py PLAN`` with ``src`` on PYTHONPATH, or
``python3 perfbench/child.py --setup-only``.

The child imports ``spincluster.cli`` first and writes ``ready`` on
stdout, so the parent can time interpreter start plus import.  It then
calls ``spincluster.cli.main(argv)`` for each argv of the plan, one after
the other, with stdout and stderr captured in memory.  After each call it
sends a JSON header line (exit code, seconds, captured stderr, traceback)
and the captured output as length-prefixed UTF-8 chunks ended by ``0``,
then waits for one line on stdin before the next call, so the parent's
output checks never overlap a timed call.  A final header carries the
peak resident memory and, with ``"trace": true`` in the plan, the tracer
summary.
"""

import io
import json
import sys
import time

import spincluster.cli

_CHUNK = 1 << 20


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code, trace_text = spincluster.cli.main(argv), None
    except Exception:
        import traceback
        code, trace_text = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    sys.stdout, sys.stderr = real_out, real_err
    return code, seconds, out.getvalue(), err.getvalue(), trace_text


def _peak_rss_kb():
    """High-water resident memory of this process image.  Not ru_maxrss:
    that also counts the parent's pages this process had before exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    pipe = sys.stdout.buffer
    pipe.write(b"ready\n")
    pipe.flush()
    if sys.argv[1] == "--setup-only":
        return
    # Imported after "ready": it is the harness's, not the program's.
    from tracer import Tracer

    with open(sys.argv[1]) as handle:
        plan = json.load(handle)
    tracer = None
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()
    for argv in plan["argvs"]:
        code, seconds, text, err_text, trace_text = _invoke(argv)
        header = {"code": code, "seconds": seconds,
                  "stderr": err_text[-2000:], "traceback": trace_text}
        pipe.write(json.dumps(header).encode() + b"\n")
        for i in range(0, len(text), _CHUNK):
            chunk = text[i:i + _CHUNK].encode()
            pipe.write(b"%d\n" % len(chunk) + chunk)
        pipe.write(b"0\n")
        pipe.flush()
        del text
        sys.stdin.readline()
    summary = {"done": True, "peak_rss_kb": _peak_rss_kb(),
               "trace": tracer.summary() if tracer else None}
    pipe.write(json.dumps(summary).encode() + b"\n")
    pipe.flush()


if __name__ == "__main__":
    main()
