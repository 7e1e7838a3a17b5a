"""The three benchmark workloads: how each makes its inputs, which rsodc
commands one round runs, and how its outputs are checked.

Every fit pins `--v-mode exact`. Planted inputs come from
`rsodc.datagen.generate` with p=20, k=3, xi=0.5 and the draw seed n (the
row count); the benchmark seed picks the row order of that draw, so a seed
changes every array the program reads but not the problem it solves.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import time

import numpy as np

import checks

P, K, XI = 20, 3, 0.5
ETA1, GAMMA, RHO, TAU, DELTA = 2.5, 0.001, 0.01, 0.1, 25
FIT_FLAGS = ["--eta1", str(ETA1), "--gamma", str(GAMMA), "--rho", str(RHO),
             "--tau", str(TAU), "--delta", str(DELTA), "--v-mode", "exact"]
# seed handed to every rsodc command; the benchmark seed only moves the inputs
PROGRAM_SEED = "0"


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """One workload bound to an output directory and a seed."""

    name = ""
    ops_per_round = 1

    def __init__(self, rsodc, out: str, seed: int):
        self.rsodc = rsodc
        self.out = out
        self.seed = seed
        self.inputs = {}
        self.edges = {}

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def planted(self, n: int, theta: float):
        """The seed-n draw, rows in the order the benchmark seed picks."""
        cfg = self.rsodc.datagen.SimulationConfig(n=n, p=P, k=K, theta=theta, xi=XI, seed=n)
        X, truth = self.rsodc.datagen.generate(cfg)
        order = np.random.default_rng([self.seed, n]).permutation(n)
        return X[order], truth[order]

    def write_input(self, label: str, n: int, theta: float) -> None:
        X, truth = self.planted(n, theta)
        path = self.path(f"{label}.csv")
        np.savetxt(path, X, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"x{j + 1}" for j in range(P)))
        self.inputs[label] = (path, X, truth)

    def setup(self) -> None:
        """Generate and write the inputs (none by default)."""

    def command(self, record: dict, label: str, argv: list) -> bool:
        """Run one rsodc command through its CLI main; time only the call."""
        out = self.path(label)
        shutil.rmtree(out, ignore_errors=True)
        main = self.rsodc.cli.main
        start = time.perf_counter()
        rc = main(argv + ["--out", out])
        seconds = time.perf_counter() - start
        record["commands"].append({"label": label, "seconds": seconds, "rc": rc})
        return rc == 0

    def round(self) -> dict:
        """One round: the commands, then (untimed) the failure count."""
        record = {"commands": []}
        self.run(record)
        record["wall_s"] = sum(c["seconds"] for c in record["commands"])
        record["attempted"] = self.ops_per_round
        record["failed"] = self.failed(record)
        return record

    def failed(self, record: dict) -> int:
        return sum(c["rc"] != 0 for c in record["commands"])

    def check_once(self) -> None:
        """Checks that depend only on the inputs (none by default)."""

    def fit_check(self, label: str, out_label: str, k: int) -> dict:
        _, X, truth = self.inputs[label]
        if label not in self.edges:
            self.edges[label] = checks.knn_union_edges(X, DELTA)
        edges = self.edges[label]
        fit = read_json(self.path(out_label, "fit.json"))
        ari = checks.check_fit(X, truth, fit, k, edges, ETA1, GAMMA, TAU)
        return {"label": out_label, "ari": ari, "objective": fit["objective_trace"][-1],
                "status": fit["status"], "outer_iters": fit["outer_iters"],
                "inner_iters": sum(fit["inner_iterations"])}

    def graph_check(self, label: str) -> None:
        _, X, _ = self.inputs[label]
        graph = self.rsodc.fusion_graph.build_fusion_graph(X, TAU, DELTA, RHO)
        checks.check_graph(X, graph.edges, graph.omega, DELTA, RHO)


class FitLadder(Workload):
    """`rsodc fit` at n=1000 and n=4000 (theta=2.2)."""

    name = "fit-ladder"
    ops_per_round = 2
    sizes = (("fit_1k", 1000), ("fit_4k", 4000))

    def setup(self) -> None:
        for label, n in self.sizes:
            self.write_input(label, n, 2.2)

    def run(self, record: dict) -> None:
        for label, _ in self.sizes:
            self.command(record, label, ["fit", self.inputs[label][0], "--k", str(K),
                                         *FIT_FLAGS, "--seed", PROGRAM_SEED])

    def check(self, record: dict) -> dict:
        fits = [self.fit_check(c["label"], c["label"], K)
                for c in record["commands"] if c["rc"] == 0]
        return {"fits": fits,
                "ari": statistics.median(f["ari"] for f in fits) if fits else None}

    def check_once(self) -> None:
        for label, _ in self.sizes:
            self.graph_check(label)


class Study(Workload):
    """`rsodc simulate --design 1 --replicates 20 --n 60 --threads 1`.

    Not in BENCHMARK.json: its interpreter-bound time spread too widely
    between runs for the largest bound (see README). Run it by name.

    The command draws its replicate datasets itself from its own --seed,
    which stays fixed: the benchmark seed does not change this workload.
    Operations are the 60 fits (20 replicates x rsodc, sodc, tandem). It
    runs serially: on 2 threads its time swung between 16 and 28 s a round.
    """

    name = "study"
    replicates = 20
    ops_per_round = 3 * replicates

    def run(self, record: dict) -> None:
        self.command(record, "simulate", [
            "simulate", "--design", "1", "--replicates", str(self.replicates),
            "--n", "60", "--p", str(P), "--k", str(K), "--theta", "2.2", "--xi", str(XI),
            "--threads", "1", *FIT_FLAGS, "--seed", PROGRAM_SEED])

    def failed(self, record: dict) -> int:
        if record["commands"][0]["rc"] != 0:
            return self.ops_per_round
        return int(read_json(self.path("simulate", "simulate.json"))["failures"])

    def check(self, record: dict) -> dict:
        if record["commands"][0]["rc"] != 0:
            return {"fits": [], "ari": None}
        rows = read_rows(self.path("simulate", "replicates.csv"))
        ari = checks.check_study(rows, read_rows(self.path("simulate", "aggregate.csv")),
                                 read_json(self.path("simulate", "simulate.json")),
                                 self.replicates)
        fits = [{"method": r["method"], "ari": float(r["ari"]),
                 "outer_iters": int(r["outer_iters"])} for r in rows]
        return {"fits": fits, "ari": ari}


class SelectK(Workload):
    """`rsodc select-k --k-min 2 --k-max 6 --mc-samples 100 --threads 1` on
    n=120 (theta=3.0), then `rsodc fit` at the chosen k, as a user would."""

    name = "select-k"
    ops_per_round = 2
    ks = tuple(range(2, 7))

    def setup(self) -> None:
        self.write_input("select_k", 120, 3.0)

    def run(self, record: dict) -> None:
        csv_path = self.inputs["select_k"][0]
        ok = self.command(record, "select_k", [
            "select-k", csv_path, "--k-min", str(self.ks[0]), "--k-max", str(self.ks[-1]),
            "--mc-samples", "100", "--threads", "1", *FIT_FLAGS, "--seed", PROGRAM_SEED])
        if ok:
            k = read_json(self.path("select_k", "chosen_k.json"))["chosen_k"]
            self.command(record, "fit_chosen_k", ["fit", csv_path, "--k", str(k),
                                                  *FIT_FLAGS, "--seed", PROGRAM_SEED])

    def failed(self, record: dict) -> int:
        return self.ops_per_round - sum(c["rc"] == 0 for c in record["commands"])

    def check(self, record: dict) -> dict:
        if record["commands"][0]["rc"] != 0:
            return {"fits": [], "ari": None}
        chosen = read_json(self.path("select_k", "chosen_k.json"))
        k = checks.check_select_k(read_rows(self.path("select_k", "gap_curve.csv")),
                                  chosen, self.ks)
        fits = [self.fit_check("select_k", c["label"], k)
                for c in record["commands"][1:] if c["rc"] == 0]
        return {"chosen_k": k, "fits": fits,
                "ari": statistics.median(f["ari"] for f in fits) if fits else None}

    def check_once(self) -> None:
        self.graph_check("select_k")


WORKLOADS = {w.name: w for w in (FitLadder, Study, SelectK)}
