#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 benchmarks/prove.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace-runs 1] [--write benchmarks/trajectory/NAME.json]

Runs ``run.py`` once per seed and workload, one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound.  With
``--trace-runs`` it adds that many traced runs per workload.  With
``--write`` it stores every result, the summary and the run context as
one point of the benchmark trajectory.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("context: "))
    return {"seed": seed, "trace": trace, "wall_s": wall, "context": context,
            "result": json.loads(lines[-1])}


def summarize(runs, metrics):
    rows = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median if median else float("inf"),
                           "values": values}
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--write", default=None)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    point = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        traced = [run_once(name, args.first_seed + i, seconds, 1) for i in range(args.trace_runs)]
        rows = summarize(runs, bench["end_to_end"])
        failed = sum(r["result"]["failed"] for r in runs + traced)
        correct = all(r["result"]["correct"] for r in runs + traced)
        print(f"== {name}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f} s, failed {failed}, correct {correct}")
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for metric, row in rows.items():
            ok = metric == "setup_s" or row["spread"] <= bounds[metric] / 3
            steady &= ok and correct
            print(f"  {metric:22s} median {row['median']:.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f} "
                  f"bound {bounds[metric]}{'' if ok else '  <-- above bound/3'}")
        point["workloads"][name] = {"summary": rows, "runs": runs, "traced_runs": traced}
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(point, indent=1) + "\n")
        print(f"wrote {args.write}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
