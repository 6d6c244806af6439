"""Every benchmark workload call reproduces its golden report byte for byte."""
import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

from modmult import cli  # noqa: E402
from run import golden_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALLS = [call for w in WORKLOADS.values() for call in w.calls()]


@pytest.mark.parametrize("argv", CALLS, ids=" ".join)
def test_report_matches_golden(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue().encode() == golden_path(argv).read_bytes()
