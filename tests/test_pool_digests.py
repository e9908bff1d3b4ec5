"""Every op of the benchmark pools, run in process, prints the bytes
recorded for it: the exit code and the SHA-256 of stdout must equal
perfbench/expected.json.  Both perfbench files are only read.  The same
holds for scripts/paper_tables.py and scripts/census_digest.py, each run as
a script."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betticount
from betticount.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# SHA-256 of the reference tables as scripts/paper_tables.py prints them
PAPER_TABLES_SHA256 = "9b0d87390a5f2c6ad6d0e1b335e5f5b369d6ce76c766c61372f6812332d3b7c5"
# SHA-256 of the 27 census digests as scripts/census_digest.py prints them
CENSUS_DIGEST_SHA256 = "f121e3ca7d3860aea0de0c1f8e9bb5c1e00060376d06450b568efd6ad8c1015b"


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


def _script_stdout(name: str) -> bytes:
    src = os.path.dirname(os.path.dirname(betticount.__file__))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_paper_tables_script_prints_its_recorded_bytes():
    assert hashlib.sha256(_script_stdout("paper_tables.py")).hexdigest() == PAPER_TABLES_SHA256


def test_census_digest_script_prints_its_recorded_bytes():
    assert hashlib.sha256(_script_stdout("census_digest.py")).hexdigest() == CENSUS_DIGEST_SHA256
