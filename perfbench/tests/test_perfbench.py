"""Tests of the benchmark itself: workload argv, seeds, tracing wrappers."""
import json
import sys
from itertools import islice
from math import lcm
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

from modmult import cli, dimensions, sl2, verify  # noqa: E402
from run import END_TO_END, PER_LAYER, golden_path  # noqa: E402
from tracing import SPANS, Tracer, self_times  # noqa: E402
from worker import run_calls  # noqa: E402
from workloads import WORKLOADS, pass_orders  # noqa: E402

ALL_CALLS = [call for w in WORKLOADS.values() for call in w.calls()]


@pytest.mark.parametrize("argv", ALL_CALLS, ids=" ".join)
def test_workload_argv_parses_within_default_level_cap(argv):
    args = cli.build_parser().parse_args(argv)
    gamma, gamma1 = args.pair
    assert args.level_cap == sl2.DEFAULT_LEVEL_CAP
    assert lcm(gamma.level, gamma1.level) <= sl2.DEFAULT_LEVEL_CAP
    assert golden_path(argv).is_file()


def test_seed_changes_only_the_order_of_pairs():
    for workload in WORKLOADS.values():
        orders = set()
        for seed in range(5):
            passes = list(islice(pass_orders(workload, seed), 3))
            assert passes == list(islice(pass_orders(workload, seed), 3))
            for calls in passes:
                assert sorted(calls) == sorted(workload.calls())
                orders.add(tuple(map(tuple, calls)))
        assert len(orders) > 1


def test_wrapper_returns_and_raises_what_the_wrapped_function_does():
    tracer = Tracer(pass_id=7)
    token = object()
    wrapped = tracer._span("f", lambda x, y=0: token if x else 1 / y, None)
    assert wrapped(1) is token
    with pytest.raises(ZeroDivisionError):
        wrapped(0)
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("f", None, 7)] * 2


def test_installed_wrappers_keep_reports_and_are_removed():
    calls = [["verify", "--pair", "SL2Z/gamma:2", "--kmax", "100"]]
    original = dimensions.dims
    plain = run_calls(cli, calls)
    with Tracer() as tracer:
        assert verify.dims is not original
        assert verify.dims.__wrapped__ is original
        traced = run_calls(cli, calls)
    assert plain[0]["status"] == 0 and plain[0]["error"] is None
    assert traced[0]["report"] == plain[0]["report"]
    assert verify.dims is original and dimensions.dims is original
    metrics = tracer.metrics()
    assert set(SPANS) <= set(metrics)
    assert metrics["dimensions.dims_calls"] > 0
    assert metrics["exact.cyclo_ops"] > 0
    assert metrics["sl2.G_order"] == 6


def test_self_time_subtracts_child_spans():
    spans = [("a", 0.0, 10.0, None, 0), ("b", 1.0, 4.0, 0, 0),
             ("c", 2.0, 3.0, 1, 0), ("b", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_benchmark_json_matches_the_runner():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
