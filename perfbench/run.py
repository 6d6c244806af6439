"""The modmult benchmark: timed `modmult verify` passes over a fixed workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload char-table --seed 1 --seconds 30 --trace 0

A pass is one fresh interpreter (``worker.py``) that imports ``modmult.cli``
from ``src/`` and runs every verify call of the workload, in an order the
seed shuffles.  Passes run one at a time (a closed loop with one client)
until ``--seconds`` have gone, and every report is compared byte for byte
with its golden copy in ``golden/``.

With ``--trace 0`` the result holds the end-to-end metrics: the median
set-up time of a pass process and the median time of a pass, both scaled to
a reference machine speed (see ``run_untraced``), and the largest peak RSS
of a pass.  With ``--trace 1`` untraced and traced passes alternate, and the
result holds the per-layer metrics from the traced passes' spans, in plain
wall seconds (see ``tracing.py``); the spans go to ``out/spans-<workload>.tsv``.

The last line of standard output is the result as JSON; the line before it
is a record of the environment and of every sample.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

from tracing import CALLS, SPANS
from workloads import WORKLOADS, pass_orders

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
OUT_DIR = HERE / "out"

SETUP_PROBES = 2        # set-up-only processes before each untraced pass
CAL_REF_S = 0.4         # reference_work's time at the speed times are scaled to
MIN_PASSES = 3          # passes (or traced/untraced pairs) per run, at least
PASS_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{metric: "s" for metric in SPANS},
    **{metric: "count" for metric in CALLS},
    "exact.cyclo_ops": "count",
    "cosets.cosets_total": "count",
    "reps.q_characters": "count",
    "sl2.ambient_order": "count",
    "sl2.G_order": "count",
    "sl2.classes": "count",
    "sl2.cyclic_subgroups": "count",
    "cli.report_bytes": "bytes",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def golden_path(argv: list[str]) -> Path:
    """Golden report of one ``verify --pair P --kmax K`` call."""
    pair, kmax = argv[argv.index("--pair") + 1], argv[argv.index("--kmax") + 1]
    return GOLDEN_DIR / f"{pair.replace(':', '-').replace('/', '_')}_k{kmax}.json"


def spawn(job: dict) -> dict:
    """Run one worker process to its end and return its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job = dict(job, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took more than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def check_calls(calls: list[dict], goldens: dict) -> list[str]:
    """One line per failed call: non-zero exit, exception or report drift."""
    failures = []
    for call in calls:
        what = " ".join(call["argv"])
        if call["error"] is not None or call["status"] != 0:
            failures.append(f"{what}: status {call['status']}, {call['error']}")
        elif call["report"].encode() != goldens[golden_path(call["argv"])]:
            failures.append(f"{what}: report differs from its golden copy")
    return failures


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modmult").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def calibrate() -> float:
    return spawn({"mode": "calibrate"})["calib_s"]


def run_untraced(calls_of_pass, seconds: float) -> tuple[dict, dict, list]:
    """Cycles of set-up probes and one pass, with a calibration between.

    On a shared 2-core VM, other tenants slowed every process down by up to
    1.8x for minutes at a time, which moved the median pass time of a 30 s
    run by up to 40% between runs.  So each time of a cycle is scaled by ``CAL_REF_S`` over the mean time of
    the calibrations on either side of its pass: a time as the machine would
    take it at the speed where ``reference_work`` takes ``CAL_REF_S``.
    """
    start = time.monotonic()
    calibrations = [calibrate()]
    cycles = []
    while len(cycles) < MIN_PASSES or time.monotonic() - start < seconds:
        probes = [spawn({"mode": "setup"})["setup_s"]
                  for _ in range(SETUP_PROBES)]
        p = spawn({"mode": "pass", "trace": False,
                   "calls": next(calls_of_pass)})
        calibrations.append(calibrate())
        cycles.append((probes + [p["setup_s"]], p))
    scales = [2 * CAL_REF_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    passes = [p for _, p in cycles]
    setups = [s for ss, _ in cycles for s in ss]
    metrics = {
        "setup_s": median(s * k for (ss, _), k in zip(cycles, scales)
                          for s in ss),
        "verify_s": median(p["pass_s"] * k for p, k in zip(passes, scales)),
        # the largest over the run: which pairs run before the biggest one
        # moves a pass's peak, and the seed picks that order
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }
    samples = {
        "wall_median": {"setup_s": median(setups),
                        "pass_s": median(p["pass_s"] for p in passes)},
        "setup_s": setups,
        "pass_s": [p["pass_s"] for p in passes],
        "calib_s": calibrations,
        "scale": scales,
        "call_s": [{" ".join(c["argv"]): c["seconds"] for c in p["calls"]}
                   for p in passes],
        "peak_rss_kb": [p["peak_rss_kb"] for p in passes],
    }
    return metrics, samples, passes


def run_traced(calls_of_pass, seconds: float, span_file: Path):
    """Untraced and traced passes in turn; layer metrics from the traced."""
    span_file.write_text("pass\tid\tparent\tname\tstart\tend\n")
    start = time.monotonic()
    plain, traced = [], []
    while len(traced) < MIN_PASSES or time.monotonic() - start < seconds:
        plain.append(spawn({"mode": "pass", "trace": False,
                            "calls": next(calls_of_pass)}))
        traced.append(spawn({"mode": "pass", "trace": True,
                             "pass_id": len(traced),
                             "span_file": str(span_file),
                             "calls": next(calls_of_pass)}))
    for p in traced:
        p["layers"]["cli.report_bytes"] = sum(
            len(c["report"].encode()) for c in p["calls"])
    # median_low keeps counts whole: it picks one of the measured values
    metrics = {name: median_low(p["layers"].get(name, 0) for p in traced)
               for name in PER_LAYER if not name.startswith("trace.")}
    metrics["trace.pass_s"] = median(p["pass_s"] for p in traced)
    metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                   - median(p["pass_s"] for p in plain))
    samples = {"pass_s": [p["pass_s"] for p in plain],
               "traced_pass_s": [p["pass_s"] for p in traced],
               "layers": [p["layers"] for p in traced]}
    return metrics, samples, plain + traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "modmult" / "cli.py").is_file():
        raise BenchError(f"no modmult sources under {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    goldens = {}
    for call in workload.calls():
        path = golden_path(call)
        if not path.is_file():
            raise BenchError(f"missing golden report {path.name}")
        goldens[path] = path.read_bytes()
    OUT_DIR.mkdir(exist_ok=True)
    calls_of_pass = pass_orders(workload, args.seed)

    if args.trace:
        span_file = OUT_DIR / f"spans-{args.workload}.tsv"
        metrics, samples, passes = run_traced(calls_of_pass, args.seconds,
                                              span_file)
        units = PER_LAYER
    else:
        metrics, samples, passes = run_untraced(calls_of_pass, args.seconds)
        units = END_TO_END

    failures = [f for p in passes for f in check_calls(p["calls"], goldens)]
    attempted = sum(len(p["calls"]) for p in passes)
    record = {"environment": environment(args), "passes": len(passes),
              "samples": samples, "failures": failures}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(record["environment"] | {
        "passes": len(passes), "failed_frac": len(failures) / attempted,
        "wall_median": samples.get("wall_median")}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
