"""The benchmark's golden digests, checked in process.

``perfbench/workloads.py`` lists each workload's operations and
``perfbench/golden.json`` the sha256 of each operation's output.  This test
runs every operation of the four workloads at seeds 1 and 2 (two
normalizations B) and asserts its verdict and its digest, so that a change
of any benchmarked output fails here and not only in a benchmark run.  Both
files are only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_operation_passes_with_its_golden_digest(workload, seed):
    ops = WORKLOADS.operations(workload, seed)
    assert sorted(name for name, _ in ops) == sorted(GOLDEN[workload])
    for name, run in ops:
        text, ok = run()
        assert ok, name
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[workload][name], name
