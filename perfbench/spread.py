"""Run the benchmark over several seeds and report each metric's median and
spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --seeds 1-10 --seconds 40
    python3 perfbench/spread.py --workloads study --seeds 1-5 --seconds 40 --trace 1

Runs one workload at a time, in a child process each, from the repository
root. Prints one row per workload and metric and writes every run's result,
with the fit statuses and iteration counts from its run.json, to
.perfbench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("fit-ladder", "select-k")  # the ones BENCHMARK.json lists


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, workload, "run.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    result["rounds"] = [{"wall_s": r["wall_s"], "commands": r["commands"],
                         "outputs": r.get("outputs")} for r in report["rounds"]]
    result["environment"] = report["environment"]
    return result


def summary(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                      if not args.trace), flush=True)
        results[workload] = runs
        print(f"{'workload':<11} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7}")
        for name, first in runs[0]["metrics"].items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
            print(f"{workload:<11} {name:<34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.4f}  {first['unit']}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload:<11} failed share {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in runs)}", flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spread.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
