#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload discover-cold --seeds 1-10 [--trace 1]

Run from the repository root. For every metric of the JSON line it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. Runs are sequential; a failed or incorrect run stops
the sweep.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    here = os.path.dirname(os.path.abspath(__file__))
    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
              f"spread={share:.4f} bound={bound}")


if __name__ == "__main__":
    main()
