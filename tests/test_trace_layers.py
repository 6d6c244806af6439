"""Every layer the benchmark traces is still reached by its workloads.

A traced function that is renamed away fails the benchmark's own tests;
one that stays but is no longer called only makes its metrics read 0.
This runs each workload's calls once, in-process, under the benchmark's
tracer, and requires every metric of the pass to be non-zero.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from modmult import cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_traced_metric_is_reached(name):
    with Tracer() as tracer:
        results = run_calls(cli, WORKLOADS[name].calls())
    assert [(r["status"], r["error"]) for r in results] == \
        [(0, None)] * len(results)
    metrics = tracer.metrics()
    assert [metric for metric, value in metrics.items() if not value] == []
