"""Each benchmark check accepts a real output of the program and rejects the
same output with one defect put in.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import csv
import json
import warnings

import numpy as np
import pytest

import checks
from rsodc.cli import main
from rsodc.datagen import SimulationConfig, generate
from rsodc.fusion_graph import build_fusion_graph
from rsodc.metrics import adjusted_rand_index

ETA1, GAMMA, RHO, TAU, DELTA = 2.5, 0.001, 0.01, 0.1, 10
FLAGS = ["--eta1", str(ETA1), "--gamma", str(GAMMA), "--rho", str(RHO), "--tau", str(TAU),
         "--delta", str(DELTA), "--v-mode", "exact"]


def _run(argv) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0


def _rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    X, truth = generate(SimulationConfig(n=90, p=20, k=3, theta=3.0, xi=0.5, seed=5))
    path = tmp_path_factory.mktemp("data") / "x.csv"
    np.savetxt(path, X, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"x{j + 1}" for j in range(20)))
    return path, X, truth


@pytest.fixture(scope="module")
def fit_output(planted, tmp_path_factory):
    path, X, truth = planted
    out = tmp_path_factory.mktemp("fit")
    _run(["fit", str(path), "--k", "3", *FLAGS, "--out", str(out)])
    with open(out / "fit.json", encoding="utf-8") as handle:
        return json.load(handle)


def _check_fit(planted, fit):
    _, X, truth = planted
    edges = checks.knn_union_edges(X, DELTA)
    return checks.check_fit(X, truth, fit, 3, edges, ETA1, GAMMA, TAU)


def test_pair_count_ari_matches_the_package_and_a_hand_value():
    assert checks.pair_count_ari([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
    # contingency [[2, 1], [0, 2]]: index 1, expected 0.8, max 2
    assert checks.pair_count_ari([1, 1, 1, 2, 2], [1, 1, 2, 2, 2]) == pytest.approx(1 / 6)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.integers(1, 4, size=40), rng.integers(1, 5, size=40)
        assert checks.pair_count_ari(a, b) == pytest.approx(adjusted_rand_index(a, b))


def test_graph_check_accepts_the_library_edges_and_rejects_defects(planted):
    _, X, _ = planted
    graph = build_fusion_graph(X, TAU, DELTA, RHO)
    # omega from a dense eigensolve; the library's power iteration can stop
    # short of the top eigenvalue on this input, which the check reports
    omega = float(np.linalg.eigvalsh(graph.C)[-1]) * (1.0 + 1e-12)
    checks.check_graph(X, graph.edges, omega, DELTA, RHO)
    with pytest.raises(checks.CheckError, match="edges"):
        checks.check_graph(X, graph.edges[1:], omega, DELTA, RHO)
    with pytest.raises(checks.CheckError, match="omega"):
        checks.check_graph(X, graph.edges, 0.99 * omega, DELTA, RHO)


def test_fit_check_accepts_a_real_fit(planted, fit_output):
    assert _check_fit(planted, fit_output) > 0.0


def _corrupt_centring(fit):
    Y = np.asarray(fit["y_hat"])
    u = np.ones(len(Y)) / np.sqrt(len(Y))
    Y[:, 0] = np.cos(0.1) * Y[:, 0] + np.sin(0.1) * u  # still orthonormal
    fit["y_hat"] = Y.tolist()


def _corrupt_orthonormality(fit):
    fit["y_hat"] = (1.01 * np.asarray(fit["y_hat"])).tolist()


def _corrupt_embedding(fit):
    fit["embedding"][0][0] += 1e-3


def _corrupt_monotone(fit):
    fit["objective_trace"][1] = fit["objective_trace"][0] + 1.0


def _corrupt_final(fit):
    fit["objective_trace"][-1] *= 0.999


def _corrupt_cover(fit):
    fit["labels"] = [1 if v == 3 else v for v in fit["labels"]]


def _corrupt_ari(fit, truth):
    # inside every true cluster cycle through 1..3: a table with equal
    # rows, whose ARI is at most 0
    seen = {}
    labels = []
    for t in truth:
        seen[t] = seen.get(t, 0) + 1
        labels.append(seen[t] % 3 + 1)
    fit["labels"] = labels


@pytest.mark.parametrize("corrupt, message", [
    (_corrupt_orthonormality, "orthonormal"),
    (_corrupt_centring, "centred"),
    (_corrupt_embedding, "embedding"),
    (_corrupt_monotone, "rises"),
    (_corrupt_final, "recomputed"),
    (_corrupt_cover, "cover"),
    (_corrupt_ari, "ARI"),
])
def test_fit_check_rejects_each_defect(planted, fit_output, corrupt, message):
    fit = copy.deepcopy(fit_output)
    if corrupt is _corrupt_ari:
        corrupt(fit, planted[2])
    else:
        corrupt(fit)
    with pytest.raises(checks.CheckError, match=message):
        _check_fit(planted, fit)


@pytest.fixture(scope="module")
def study_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    _run(["simulate", "--design", "1", "--replicates", "3", "--n", "45", *FLAGS,
          "--out", str(out)])
    with open(out / "simulate.json", encoding="utf-8") as handle:
        summary = json.load(handle)
    return _rows(out / "replicates.csv"), _rows(out / "aggregate.csv"), summary


def _study(output, edit=None):
    rows, agg, summary = copy.deepcopy(output)
    if edit is not None:
        edit(rows, agg, summary)
    return checks.check_study(rows, agg, summary, 3)


def _set_rsodc_ari(rows, agg, summary):
    for r in rows:
        if r["method"] == "rsodc":
            r["ari"] = "-0.1"
    ours = checks.study_aggregate(rows)
    for a in agg:
        a.update({k: str(v) for k, v in ours[a["method"]].items()})


@pytest.mark.parametrize("edit, message", [
    (lambda rows, agg, s: s.update(failures=1), "failures"),
    (lambda rows, agg, s: rows.pop(), "rows"),
    (lambda rows, agg, s: rows[0].update(ari="1.5"), r"\[-1, 1\]"),
    (lambda rows, agg, s: rows[0].update(outer_iters="0"), "outer iteration"),
    (lambda rows, agg, s: agg[0].update(mean_ari=str(float(agg[0]["mean_ari"]) + 1e-6)),
     "aggregate"),
    (_set_rsodc_ari, "not above 0"),
])
def test_study_check_rejects_each_defect(study_output, edit, message):
    assert _study(study_output) > 0.0
    with pytest.raises(checks.CheckError, match=message):
        _study(study_output, edit)


@pytest.fixture(scope="module")
def select_k_output(planted, tmp_path_factory):
    path, _, _ = planted
    out = tmp_path_factory.mktemp("select_k")
    _run(["select-k", str(path), "--k-min", "2", "--k-max", "4", "--mc-samples", "5",
          *FLAGS, "--out", str(out)])
    with open(out / "chosen_k.json", encoding="utf-8") as handle:
        chosen = json.load(handle)
    return _rows(out / "gap_curve.csv"), chosen


def _flip_choice(rows, chosen):
    chosen["chosen_k"] = 4 if chosen["chosen_k"] != 4 else 2


def _break_gap(rows, chosen):
    rows[1]["gap"] = "nan"
    chosen["gap"][1] = float("nan")


def _negative_se(rows, chosen):
    rows[0]["se"] = "-0.01"
    chosen["se"][0] = -0.01


@pytest.mark.parametrize("edit, message", [
    (_flip_choice, "gap rule"),
    (_break_gap, "non-finite"),
    (_negative_se, "negative"),
    (lambda rows, chosen: rows.pop(), "covers"),
    (lambda rows, chosen: chosen["gap"].__setitem__(0, chosen["gap"][0] + 1.0), "disagree"),
])
def test_select_k_check_rejects_each_defect(select_k_output, edit, message):
    rows, chosen = copy.deepcopy(select_k_output)
    assert checks.check_select_k(rows, chosen, (2, 3, 4)) == chosen["chosen_k"]
    edit(rows, chosen)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_select_k(rows, chosen, (2, 3, 4))
