#!/usr/bin/env python3
"""Run the full verification harness on the four standard pairs and write
one JSON report per pair into an output directory (default: reports/).

Exits 0 when all four pass and 1 when one fails; a typed error of modmult,
such as a kmax below the slope window, is one line on stderr and status 2."""
import argparse
import json
import pathlib
import sys
import time

from modmult import ModmultError
from modmult.sl2 import SubgroupSpec
from modmult.verify import VerificationConfig, run_verify

PAIRS = [
    ("gamma0:5/gamma1:5", SubgroupSpec("gamma0", 5), SubgroupSpec("gamma1", 5)),
    ("gamma0:7/gamma1:7", SubgroupSpec("gamma0", 7), SubgroupSpec("gamma1", 7)),
    ("gamma0:8/gamma1:8", SubgroupSpec("gamma0", 8), SubgroupSpec("gamma1", 8)),
    ("SL2Z/gamma:2", SubgroupSpec("full", 1), SubgroupSpec("gamma", 2)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=100)
    ap.add_argument("--out", default="reports")
    args = ap.parse_args(argv)

    try:
        # every config is checked before the directory is made, so a
        # refused run leaves nothing behind
        configs = [VerificationConfig(g, g1, kmax=args.kmax)
                   for _, g, g1 in PAIRS]
        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        all_pass = True
        for (label, _, _), config in zip(PAIRS, configs):
            t0 = time.monotonic()
            report = run_verify(config)
            dt = time.monotonic() - t0
            name = label.replace("/", "__").replace(":", "_") + ".json"
            path = outdir / name
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            status = "PASS" if report["pass"] else "FAIL"
            print(f"{label:24s} {status}  period={report['period']:3d} "
                  f"c={report['pair']['c']:>5s}  {dt:.2f}s  -> {path}")
            all_pass = all_pass and report["pass"]
    except ModmultError as exc:
        print(f"run_verification: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
