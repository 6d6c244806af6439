"""Write the golden report of every workload call into perfbench/golden/.

Usage, from the root of the repository:  python3 perfbench/make_goldens.py

Run it only on a commit whose reports are known to be right: the benchmark
counts every report that differs from these bytes as a failed call.
"""
import sys

from run import GOLDEN_DIR, golden_path, spawn
from workloads import WORKLOADS


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        result = spawn({"mode": "pass", "trace": False,
                        "calls": workload.calls()})
        for call in result["calls"]:
            if call["error"] is not None or call["status"] != 0:
                print(f"{' '.join(call['argv'])}: status {call['status']}, "
                      f"{call['error']}", file=sys.stderr)
                return 1
            path = golden_path(call["argv"])
            path.write_bytes(call["report"].encode())
            print(path.relative_to(GOLDEN_DIR.parent.parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
