"""One process of the benchmark, started fresh the way a CLI user starts one.

Usage: python3 perfbench/worker.py JOB_JSON

JOB_JSON holds ``mode`` and ``spawned_at`` (the parent's ``time.monotonic()``
just before the spawn).  The modes:

- ``calibrate`` runs :func:`reference_work` and reports its time.  It never
  imports modmult, so the program cannot change it.
- ``setup`` imports ``modmult.cli`` from ``src/`` of the current directory
  and reports how long that took from the spawn.
- ``pass`` also runs each argv in ``calls`` through ``modmult.cli.main`` with
  stdout captured.  With ``trace`` set it records spans (see ``tracing.py``)
  and appends them to ``span_file`` under ``pass_id``.

The worker prints one JSON line with the timings, the peak RSS and every
report.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction


def reference_work():
    """Fixed pure-Python work of the kinds modmult does, about 0.4 s.

    On a shared machine other tenants can slow every process down for
    minutes at a time (up to 1.8x on a shared 2-core VM).  The time of this
    work, taken next to each pass, measures that slowdown.
    """
    n = 60
    gens = ((1, 1, 0, 1), (0, n - 1, 1, 0))
    seen = {(1, 0, 0, 1)}
    frontier = list(seen)
    while frontier:                     # SL2(Z/60) as a closure of tuples
        a, b, c, d = frontier.pop()
        for e, f, g, h in gens:
            y = ((a * e + b * g) % n, (a * f + b * h) % n,
                 (c * e + d * g) % n, (c * f + d * h) % n)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    sums = {}
    for i in range(1, 80000):           # small-denominator Fraction sums
        k = i % 31
        sums[k] = sums.get(k, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)
    return len(seen), sum(sums.values())


def run_calls(cli, calls):
    """Run each call through ``cli.main``; return a result per call."""
    results = []
    for argv in calls:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                status = cli.main(argv)
            error = None
        except SystemExit as exc:
            status, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception as exc:  # a failed call is counted, not fatal
            status, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"argv": argv, "status": status, "error": error,
                        "seconds": time.perf_counter() - start,
                        "report": out.getvalue()})
    return results


def main(job) -> dict:
    if job["mode"] == "calibrate":
        start = time.perf_counter()
        reference_work()
        return {"calib_s": time.perf_counter() - start}

    import modmult.cli as cli

    ready = time.monotonic()
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(cli.__file__).startswith(src):
        raise SystemExit(f"modmult imported from {cli.__file__}, not {src}")
    result = {"setup_s": ready - job["spawned_at"]}
    if job["mode"] == "setup":
        return result

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer(job["pass_id"]).install()
    start = time.perf_counter()
    result["calls"] = run_calls(cli, job["calls"])
    result["pass_s"] = time.perf_counter() - start
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write(job["span_file"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
