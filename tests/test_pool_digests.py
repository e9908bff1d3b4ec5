"""Every op of the benchmark pools, run in process, prints the bytes
recorded for it: the exit code and the SHA-256 of stdout must equal
perfbench/expected.json.  Both perfbench files are only read."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from betticount.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())
OPS = [(w, argv) for w in WORKLOADS.POOLS for argv in WORKLOADS.pool(w)]


@pytest.mark.parametrize(
    "workload, argv", OPS, ids=[f"{w}:{WORKLOADS.op_key(argv)}" for w, argv in OPS]
)
def test_pool_op_reproduces_its_recorded_digest(capsys, workload, argv):
    expected = EXPECTED[workload][WORKLOADS.op_key(argv)]
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def test_every_recorded_op_is_in_a_pool():
    assert {w: sorted(EXPECTED[w]) for w in EXPECTED} == {
        w: sorted(WORKLOADS.op_key(argv) for argv in WORKLOADS.pool(w)) for w in WORKLOADS.POOLS
    }
