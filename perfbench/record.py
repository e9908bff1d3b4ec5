"""Record the expected output of every pool op into expected.json.

    python3 perfbench/record.py

Runs each op of every workload twice, untraced, and stores its exit code
and the SHA-256 of its `--format json` stdout.  Both runs must agree.  Run
it only on a commit whose answers are trusted: the benchmark counts every
later difference from these digests as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    tmp = run.ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    expected: dict[str, dict] = {}
    try:
        for workload in workloads.POOLS:
            entries = expected[workload] = {}
            for argv in workloads.pool(workload):
                seen = []
                for _ in range(2):
                    r = run.run_op(argv, None, tmp)
                    if r["exit"] is None:
                        raise SystemExit(f"timeout: {workloads.op_key(argv)}")
                    digest = hashlib.sha256((tmp / "stdout").read_bytes()).hexdigest()
                    seen.append({"exit": r["exit"], "sha256": digest})
                if seen[0] != seen[1]:
                    raise SystemExit(f"nondeterministic output: {workloads.op_key(argv)}")
                entries[workloads.op_key(argv)] = seen[0]
                print(f"{workload}: {r['wall_s']:.2f} s exit {r['exit']} "
                      f"{digest[:12]} {workloads.op_key(argv)}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
