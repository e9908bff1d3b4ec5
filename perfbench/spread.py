"""Run the benchmark over several seeds and check its run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--trace-runs 0] [--out perfbench/baseline.json]

For every workload in BENCHMARK.json, runs `run.py` once per seed with
tracing off and prints each end-to-end metric by name and unit: its median,
its quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound.  With --trace-runs N it
then makes N traced runs per workload and prints the per-layer medians.
With --out it writes every value and the drift record of each run there.

Exits 1 when any run failed or printed no result, or when a spread other
than that of setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return {"seed": seed, "exit": proc.returncode, "result": result, "env": env}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, bench["run_seconds"], 0))
            r = runs[-1]
            if r["exit"] == 0 and r["result"]:
                status = "ok, wall_s_p50 {:.4f} s".format(r["result"]["metrics"]["wall_s_p50"]["value"])
            else:
                status = f"FAILED (exit {r['exit']})"
            env = r["env"]
            print(f"{workload} seed {seed}: {status}; calibration "
                  f"{env.get('calibration_s_before', 0):.3f}/{env.get('calibration_s_after', 0):.3f} s",
                  flush=True)
        good = [r["result"] for r in runs if r["exit"] == 0 and r["result"]]
        ok &= len(good) == len(runs)
        entry = report["workloads"][workload] = {"runs": runs, "end_to_end": {}}
        print(f"{workload}: {len(good)} good runs")
        for m in bench["end_to_end"]:
            values = [g["metrics"][m["name"]]["value"] for g in good]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"] or m["name"] == "setup_s"
            ok &= within
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"],
            }
            mark = "ok" if spread <= m["bound"] / 3 else ("within bound" if within else "OVER BOUND")
            print(f"  {m['name']:<12} median {med:10.5g} {m['unit']:<4} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f}  {mark}")
        if args.trace_runs:
            traced = [one_run(workload, seed, bench["run_seconds"], 1)
                      for seed in range(args.first_seed, args.first_seed + args.trace_runs)]
            good = [r["result"] for r in traced if r["exit"] == 0 and r["result"]]
            ok &= len(good) == len(traced)
            entry["traced_runs"] = traced
            layers = entry["per_layer"] = {}
            for m in bench["per_layer"]:
                values = [g["metrics"][m["name"]]["value"] for g in good]
                if values:
                    layers[m["name"]] = statistics.median(values)
            print(f"  per-layer medians over {len(good)} traced runs (nonzero only):")
            for name, value in layers.items():
                if value:
                    print(f"    {name} = {value:.6g}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("spread check: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
