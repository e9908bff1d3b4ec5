"""Closed-loop benchmark of the `betticount` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one op at a time: a `betticount ... --format json` command
in a fresh interpreter (cold lru_caches, as a user's run has), with `src` on
PYTHONPATH and a pinned environment.  Ops come from the workload's fixed
pool (workloads.py) in seeded rounds until S seconds have passed.  Each op
counts as failed when its exit code or the SHA-256 of its stdout differs
from expected.json, or when it runs past OP_TIMEOUT_S.

--trace 0 reports the end-to-end metrics.  After every timed child (an op
or a set-up sample) the reference task runs: a fixed loop of Fraction
arithmetic in a fresh interpreter.  Each timed child is divided by the mean
of the reference runs on either side of it and reported in seconds at the
reference speed (REF_NOMINAL_S per reference run), which removes the
machine's drift in speed and keeps the program's own changes.  Each pool op
contributes the median of its runs, so every run weighs each op equally.
--trace 1 runs each op twice, untraced and under tracer.py, and reports the
per-layer metrics per pass over the pool plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every op was correct, 1 when
some op failed, and 2 (with no JSON) when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 30.0
# set-up samples taken before the loop; one more is taken before each round,
# so the median spans the same machine phases as the ops
SETUP_REPS = 3
# Fixed so the metric means the same on every commit; today's pools give
# at least ten ops above it in a run.
TAIL_PERCENTILE = 75
CALIBRATION_LOOP = 500_000
# The reference task.  It does the kind of work the program does (Fraction
# arithmetic and dict updates in a fresh interpreter) and is part of the
# benchmark, so no change to the program moves it.  Program and reference
# slow down together when the machine's speed drifts over seconds to
# minutes, which is what made whole runs of the same code differ.
REF_CODE = """\
from fractions import Fraction
d = {}
x = Fraction(1, 3)
for i in range(1, 9000):
    x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
    x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
    d[i & 255] = d.get(i & 255, 0) + x
"""
# Seconds one reference run counts for: about its time on a quiet 2-vCPU
# Xeon host under Python 3.11, so normalized figures read close to seconds.
REF_NOMINAL_S = 0.18


class BenchError(Exception):
    """The benchmark cannot run here (no program, no interpreter, ...)."""


def child_env() -> dict[str, str]:
    """The parent's environment without PYTHON* and BETTICOUNT_* settings
    (an inherited BETTICOUNT_THREADS would change what is measured), with
    the checkout's src on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "BETTICOUNT_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], env: dict, out_path: Path, err_path: Path) -> dict:
    """Run cmd to completion with stdout and stderr in files.  Returns the
    exit code (None on timeout), wall time from spawn to exit, the child's
    user+sys time and its peak RSS."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    return {
        "exit": os.waitstatus_to_exitcode(status) if exited else None,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def check(result: dict, out_path: Path, expected: dict | None) -> str:
    """Why the op failed, or '' when it is correct."""
    if result["exit"] is None:
        return f"timeout after {OP_TIMEOUT_S:.0f} s"
    if expected is None:
        return "no recorded digest"
    if result["exit"] != expected["exit"]:
        return f"exit {result['exit']}, expected {expected['exit']}"
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    if digest != expected["sha256"]:
        return f"stdout sha256 {digest[:12]}, expected {expected['sha256'][:12]}"
    return ""


def run_op(argv: list[str], expected: dict | None, tmp: Path, traced_id: int | None = None) -> dict:
    """One op: spawn, wait, check.  With traced_id set, the op runs under
    tracer.py and the result carries its per-op layer summary."""
    cli_argv = [*argv, "--format", "json"]
    if traced_id is None:
        cmd = [sys.executable, "-m", "betticount.cli", *cli_argv]
    else:
        spans_path = tmp / f"spans-{traced_id}.json"
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), str(traced_id),
               "--", *cli_argv]
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    result = spawn(cmd, child_env(), out_path, err_path)
    result["op"] = workloads.op_key(argv)
    result["error"] = check(result, out_path, expected)
    if traced_id is not None:
        try:
            dump = json.loads(spans_path.read_text())
            spans_path.unlink()
        except FileNotFoundError:  # the child died before writing its spans
            dump = {"spans": [], "extra": {}, "caches": {}, "absent": []}
        result["layers"] = tracer.summarize(dump)
        result["absent"] = dump["absent"]
    return result


def calibrate() -> float:
    """Median time of a fixed pure-Python loop in this process, a record of
    how fast the machine ran (not used to scale any metric)."""
    def once() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(3))


def steal_s() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far, or None where
    /proc/stat does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def import_time(tmp: Path) -> dict:
    """One set-up sample: starting an interpreter and importing betticount.cli."""
    r = spawn([sys.executable, "-c", "import betticount.cli"], child_env(),
              tmp / "stdout", tmp / "stderr")
    if r["exit"] != 0:
        err = (tmp / "stderr").read_text(errors="replace").strip().splitlines()
        raise BenchError(f"cannot import betticount.cli from {SRC}: "
                         f"{err[-1] if err else 'exit ' + str(r['exit'])}")
    return r


def reference(tmp: Path) -> dict:
    """One run of the reference task."""
    r = spawn([sys.executable, "-c", REF_CODE], child_env(), tmp / "stdout", tmp / "stderr")
    if r["exit"] != 0:
        raise BenchError(f"the reference task exited {r['exit']}")
    return r


class Paced:
    """Runs timed children with the reference task after each, and gives
    each child the mean wall and CPU time of the reference runs on either
    side of it (ref_wall_s, ref_cpu_s)."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.last = reference(tmp)

    def __call__(self, fn, *args) -> dict:
        r = fn(*args)
        ref = reference(self.tmp)
        r["ref_wall_s"] = (self.last["wall_s"] + ref["wall_s"]) / 2
        r["ref_cpu_s"] = (self.last["cpu_s"] + ref["cpu_s"]) / 2
        self.last = ref
        return r


def normalized(r: dict, key: str) -> float:
    """A child's wall_s or cpu_s in seconds at the reference speed."""
    ref = r["ref_wall_s"] if key == "wall_s" else r["ref_cpu_s"]
    return r[key] / ref * REF_NOMINAL_S


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def loop(workload: str, seed: int, seconds: float, tmp: Path, trace: bool,
         setup: list[dict]) -> tuple[list, int]:
    """Run ops until the deadline.  Untraced, every op and set-up sample is
    paced by the reference task, SETUP_REPS set-up samples come first and
    one more before each round.  Returns the per-op records (pool index,
    untraced result, traced result or None) and the pool size."""
    ops = workloads.pool(workload)
    paced = None if trace else Paced(tmp)
    if paced:
        setup += [paced(import_time, tmp) for _ in range(SETUP_REPS)]
    expected = json.loads((HERE / "expected.json").read_text()).get(workload, {})
    records = []
    deadline = time.perf_counter() + seconds
    for n, idx in enumerate(workloads.schedule(workload, seed)):
        if time.perf_counter() >= deadline:
            break
        argv = ops[idx]
        want = expected.get(workloads.op_key(argv))
        if not trace:
            if n % len(ops) == 0:
                setup.append(paced(import_time, tmp))
            records.append((idx, paced(run_op, argv, want, tmp), None))
            continue
        # alternate which of the pair runs first, so drift hits both alike
        if n % 2:
            traced = run_op(argv, want, tmp, traced_id=n)
            plain = run_op(argv, want, tmp)
        else:
            plain = run_op(argv, want, tmp)
            traced = run_op(argv, want, tmp, traced_id=n)
        records.append((idx, plain, traced))
    return records, len(ops)


def end_to_end(records: list, pool_size: int, setup: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics, timings in seconds at the reference speed, over
    every op of the run.  ops_per_s is the number of pool ops that ran over
    the sum of each one's median wall: the throughput of one pass over the
    pool, which weighs every op the same whatever the seed."""
    walls = [normalized(r, "wall_s") for _, r, _ in records]
    by_op: dict[int, list[float]] = {}
    for (idx, _, _), wall in zip(records, walls):
        by_op.setdefault(idx, []).append(wall)
    metrics = {
        "wall_s_p50": (statistics.median(walls), "s"),
        "wall_s_tail": (percentile(walls, TAIL_PERCENTILE), "s"),
        "ops_per_s": (len(by_op) / sum(statistics.median(w) for w in by_op.values()), "1/s"),
        "cpu_s_p50": (statistics.median(normalized(r, "cpu_s") for _, r, _ in records), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for _, r, _ in records), "MB"),
        "setup_s": (statistics.median(normalized(r, "wall_s") for r in setup), "s"),
    }
    beyond = sum(w > metrics["wall_s_tail"][0] for w in walls)
    raw = [r["wall_s"] for _, r, _ in records]
    refs = [r["ref_wall_s"] for _, r, _ in records]
    notes = [
        f"timed ops: {len(records)} over {len(by_op)} of {pool_size} pool ops; "
        f"wall_s_tail is p{TAIL_PERCENTILE}, {beyond} ops beyond it",
        f"setup samples: {len(setup)}",
        f"unnormalized: op wall p50 {statistics.median(raw):.4f} s, reference wall p50 "
        f"{statistics.median(refs):.4f} s (counted as {REF_NOMINAL_S} s), set-up p50 "
        f"{statistics.median(r['wall_s'] for r in setup):.4f} s",
    ]
    if len(by_op) < pool_size:
        notes.append("warning: not every pool op ran")
    if beyond < 10:
        notes.append(f"warning: fewer than ten ops beyond p{TAIL_PERCENTILE}")
    return metrics, notes


# unit of a per-layer metric by the last part of its name
PER_LAYER_UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "hit_ratio": "ratio",
    "out_bytes": "bytes", "rss_growth_mb": "MB", "wall_s": "s", "overhead_ratio": "ratio",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for name, _, _, extras in tracer.TARGETS:
        names += [f"{name}.calls", f"{name}.self_s", f"{name}.total_s"]
        names += [f"{name}.{e}" for e in extras]
    return names + ["trace.untraced.wall_s", "trace.traced.wall_s", "trace.overhead_ratio"]


def per_layer(records: list, pool_size: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per pass over the pool: each pool op contributes the
    mean over its traced runs, so the figures do not depend on how many
    rounds fit in the run.  Hit ratios pool the lookups of every run."""
    by_op: dict[int, list] = {}
    for idx, plain, traced in records:
        by_op.setdefault(idx, []).append((plain, traced))
    per_pass: dict[str, float] = {}
    totals: dict[str, float] = {}
    for runs in by_op.values():
        keys = set().union(*(t["layers"] for _, t in runs))
        for key in keys:
            vals = [t["layers"].get(key, 0.0) for _, t in runs]
            if key.endswith(".rss_growth_mb"):
                per_pass[key] = max(per_pass.get(key, 0.0), max(vals))
            else:
                per_pass[key] = per_pass.get(key, 0.0) + statistics.fmean(vals)
            totals[key] = totals.get(key, 0.0) + sum(vals)
        for label, which in (("trace.untraced.wall_s", 0), ("trace.traced.wall_s", 1)):
            per_pass[label] = per_pass.get(label, 0.0) + statistics.fmean(
                pair[which]["wall_s"] for pair in runs)
    for name, _, _, extras in tracer.TARGETS:
        if "hit_ratio" in extras:
            lookups = totals.get(f"{name}.lookups", 0.0)
            per_pass[f"{name}.hit_ratio"] = totals.get(f"{name}.hits", 0.0) / lookups if lookups else 0.0
    per_pass["trace.overhead_ratio"] = (
        per_pass["trace.traced.wall_s"] / per_pass["trace.untraced.wall_s"] - 1)
    absent = sorted({a for _, _, t in records for a in t["absent"]})
    metrics = {name: (per_pass.get(name, 0.0), PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name in per_layer_names()}
    notes = [f"traced pairs: {len(records)}; pool ops covered: {len(by_op)} of {pool_size}"]
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(absent))
    return metrics, notes


def run(args) -> int:
    if not (SRC / "betticount" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'betticount'}")
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(),
            "calibration_s_before": calibrate(),
            "steal_s_before": steal_s(),
        }
        setup: list[dict] = []
        records, pool_size = loop(args.workload, args.seed, args.seconds, tmp,
                                  bool(args.trace), setup)
        env["loadavg_after"] = os.getloadavg()
        env["calibration_s_after"] = calibrate()
        env["steal_s_after"] = steal_s()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not records:
        raise BenchError("no op was attempted")
    results = [r for _, plain, traced in records for r in (plain, traced) if r is not None]
    failed = [r for r in results if r["error"]]
    if args.trace:
        metrics, notes = per_layer(records, pool_size)
    else:
        metrics, notes = end_to_end(records, pool_size, setup)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env))
    for note in notes:
        print(note)
    for r in failed[:10]:
        print(f"FAILED: {r['op']}: {r['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted {len(results)}, failed {len(failed)}, "
          f"fail_ratio {len(failed) / len(results):.4g}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
