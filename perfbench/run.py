"""Benchmark for the rsodc package.

    python3 perfbench/run.py --workload fit-ladder --seed 1 --seconds 40 --trace 0

Run from the repository root. The package is imported from ./src. A run
sets its workload up five times (reporting the median), then repeats whole
rounds of the workload's rsodc commands until --seconds have passed, and at
least twice. It checks every round's outputs outside the timed region, and
prints one JSON object as its last line: `correct`, `attempted`, `failed`
and `metrics`.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
alternates untraced and traced rounds, writes the spans of the traced ones
to .perfbench_out/<workload>/spans.json and reports the per-layer metrics
(medians over traced rounds) and the tracing overhead. Every run writes its
per-round record, fit statuses, iteration counts and environment to
.perfbench_out/<workload>/run.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
MIN_ROUNDS = 2  # also one untraced and one traced round with --trace 1

IMPORT_PROBE = ("import time; t = time.perf_counter(); import rsodc.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time `import rsodc.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measured(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rsodc", "__init__.py")):
        sys.exit(f"no rsodc package under {SRC}; run from a checkout of the repository")

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, SRC)
    import rsodc.cli  # noqa: F401  (also binds rsodc and its submodules)
    if os.path.dirname(os.path.dirname(os.path.abspath(rsodc.__file__))) != SRC:
        sys.exit(f"imported rsodc from {rsodc.__file__}, not from {SRC}")

    import checks
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    workload = WORKLOADS[args.workload](rsodc, out, args.seed)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(setups)

    rounds, problems, traced_spans = [], [], []
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        recorder = spans.Recorder() if traced else None
        if traced:
            spans.install(recorder, rsodc)
        start = time.perf_counter()
        try:
            if args.trace:
                # traced runs repeat the input set-up in every round, so that
                # datagen shows in the trace and both kinds of round match
                workload.setup()
            record = workload.round()
        finally:
            if traced:
                recorder.uninstall()
        record["round_s"] = time.perf_counter() - start
        record["traced"] = traced
        if traced:
            record["layers"] = spans.layer_metrics(recorder.spans)
            traced_spans.append(recorder.spans)
        try:
            record["outputs"] = workload.check(record)
        except checks.CheckError as exc:
            problems.append(str(exc))
        rounds.append(record)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - measure_start >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.check_once()
    except checks.CheckError as exc:
        problems.append(str(exc))

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        walls = {kind: statistics.median(r["round_s"] for r in rounds if r["traced"] == kind)
                 for kind in (False, True)}
        layers = [r["layers"] for r in rounds if r["traced"]]
        metrics = {name: measured(statistics.median(layer[name] for layer in layers),
                                  "count" if name in spans.COUNT else "s")
                   for name in list(spans.SELF_TIME) + list(spans.COUNT)}
        metrics["solver.objective_final"]["unit"] = "loss"
        metrics["trace.overhead_s"] = measured(walls[True] - walls[False], "s")
        with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump([[dict(zip(spans.FIELDS, s)) for s in group] for group in traced_spans],
                      handle)
    else:
        aris = [r["outputs"]["ari"] for r in rounds
                if r.get("outputs", {}).get("ari") is not None]
        if not aris:
            problems.append("no round produced a checked ARI")
        metrics = {
            "setup_s": measured(setup_s, "s"),
            "wall_s": measured(statistics.median(r["wall_s"] for r in rounds), "s"),
            "peak_rss_mb": measured(peak_rss_mb, "MB"),
            "ari_median": measured(statistics.median(aris) if aris else 0.0, "ARI"),
        }

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "setup_import_s": imports,
              "setup_inputs_s": setups, "rounds": rounds, "problems": problems,
              "metrics": metrics}
    with open(os.path.join(out, "run.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=float)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(report['environment'])}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
