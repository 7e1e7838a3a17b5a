from __future__ import annotations

import csv
import json
import statistics
import warnings

import numpy as np
import pytest

from rsodc import cli, model_selection, solver
from rsodc._io import write_json, write_matrix_csv
from rsodc.cli import build_parser, main
from rsodc.datagen import SimulationConfig, generate


@pytest.fixture()
def dataset(tmp_path):
    X, truth = generate(SimulationConfig(n=30, p=20, k=3, theta=2.5, xi=0.5,
                                         seed=3))
    data = tmp_path / "data.csv"
    write_matrix_csv(data, X, [f"v{j + 1}" for j in range(20)])
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text("label\n" + "\n".join(str(t) for t in truth) + "\n")
    return data, truth_path, X, truth


def _run(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def test_fit_writes_all_outputs(dataset, tmp_path):
    data, _, X, _ = dataset
    out = tmp_path / "out"
    rc = _run(["fit", str(data), "--k", "3", "--eta1", "1.0",
               "--gamma", "0.001", "--rho", "0.01", "--out", str(out)])
    assert rc == 0
    for name in ("fit.json", "embedding.csv", "embedding.svg", "scoring.svg"):
        assert (out / name).exists()
    payload = json.loads((out / "fit.json").read_text())
    assert payload["method"] == "rsodc"
    assert payload["k"] == 3
    assert len(payload["labels"]) == 30
    assert min(payload["labels"]) >= 1
    assert len(payload["b_hat"]) == 20
    trace = payload["objective_trace"]
    assert all(later - earlier <= 1e-8 for earlier, later in zip(trace, trace[1:]))
    man = payload["manifest"]
    assert man["command"] == "fit"
    assert "timings" in man and "total" in man["timings"]
    assert man["config"]["eta1"] == 1.0
    # the embedding csv carries one row per subject plus labels
    with open(out / "embedding.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["component_1", "component_2", "label"]
    assert len(rows) == 31


def test_fit_gamma_zero_dispatches_to_the_fusion_free_path(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "out0"
    rc = _run(["fit", str(data), "--k", "3", "--gamma", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["method"] == "sodc"


def test_fit_is_deterministic_modulo_timings(dataset, tmp_path):
    data, _, _, _ = dataset
    args = ["fit", str(data), "--k", "3", "--eta1", "2.0", "--gamma", "0.001",
            "--rho", "0.01", "--seed", "9", "--out", str(tmp_path / "same")]
    assert _run(args) == 0
    first = (tmp_path / "same" / "fit.json").read_text()
    assert _run(args) == 0
    second = (tmp_path / "same" / "fit.json").read_text()
    a, b = json.loads(first), json.loads(second)
    a["manifest"].pop("timings")
    b["manifest"].pop("timings")
    assert a == b


def test_fit_exit_codes(dataset, tmp_path):
    data, _, _, _ = dataset
    assert _run(["fit", str(tmp_path / "absent.csv"), "--k", "3"]) == 2
    assert _run(["fit", str(data), "--k", "1"]) == 2
    assert _run(["fit", str(data), "--k", "3", "--gamma", "0.5",
                 "--rho", "0.01", "--v-mode", "paper"]) == 2
    # fewer rows than clusters: no centered scoring matrix has k - 1 columns
    two_rows = tmp_path / "two_rows.csv"
    two_rows.write_text("".join(data.read_text().splitlines(keepends=True)[:3]))
    for gamma in ("0.01", "0"):
        assert _run(["fit", str(two_rows), "--k", "3", "--gamma", gamma,
                     "--out", str(tmp_path / "two")]) == 2


def test_fit_takes_gamma_above_rho_with_the_exact_v_step(dataset, tmp_path):
    # only the paper V step needs gamma / rho < 1
    data, _, _, _ = dataset
    out = tmp_path / "wide"
    assert _run(["fit", str(data), "--k", "3", "--gamma", "0.02", "--rho", "0.01",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["method"] == "rsodc" and payload["params"]["v_mode"] == "exact"


def test_tune_outputs_table_and_best(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "tune"
    rc = _run(["tune", str(data), "--k", "3", "--grid-eta1", "1,2.5",
               "--grid-gamma", "0.001", "--grid-rho", "0.01",
               "--repeats", "2", "--out", str(out)])
    assert rc == 0
    with open(out / "cv_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == ["eta1", "gamma", "rho", "mean_kappa", "failures",
                             "fits_stalled", "fits_max_outer", "retries",
                             "b_steps_capped", "inner_capped", "kappa_1", "kappa_2"]
    best = json.loads((out / "best_params.json").read_text())
    assert best["eta1"] in (1.0, 2.5)
    assert best["manifest"]["command"] == "tune"


def test_tune_reports_how_many_combos_tie_for_the_best_kappa(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "tune"
    # eta1 this large zeroes B in every fit, so every combo scores kappa -1
    assert _run(["tune", str(data), "--k", "3", "--grid-eta1", "1e6",
                 "--grid-gamma", "0,0.01", "--grid-rho", "0.05,0.1", "--repeats", "1",
                 "--out", str(out)]) == 0
    best = json.loads((out / "best_params.json").read_text())
    assert (best["mean_kappa"], best["ties"]) == (-1.0, 4)
    assert (best["eta1"], best["gamma"], best["rho"]) == (1e6, 0.0, 0.05)


def test_tune_counts_fits_that_end_at_max_outer(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "tune"
    assert _run(["tune", str(data), "--k", "3", "--grid-eta1", "1,2.5",
                 "--grid-gamma", "0.001", "--grid-rho", "0.01", "--repeats", "2",
                 "--max-outer", "1", "--out", str(out)]) == 0
    with open(out / "cv_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    # two fits per repeat, every one cut at its single outer iteration
    assert [(r["failures"], r["fits_stalled"], r["fits_max_outer"]) for r in rows] == [
        ("0", "0", "4"), ("0", "0", "4")]
    best = json.loads((out / "best_params.json").read_text())
    assert (best["fits_stalled"], best["fits_max_outer"]) == (0, 8)


def test_tune_rejects_malformed_grid(dataset, tmp_path):
    data, _, _, _ = dataset
    assert _run(["tune", str(data), "--k", "3", "--grid-eta1", "a,b"]) == 2
    assert _run(["tune", str(data), "--k", "3", "--grid-gamma", "1",
                 "--grid-rho", "0.5", "--v-mode", "paper"]) == 2


def test_tune_keeps_gamma_over_rho_above_one_in_exact_mode(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "tune"
    assert _run(["tune", str(data), "--k", "3", "--grid-eta1", "1",
                 "--grid-gamma", "0.5", "--grid-rho", "0.1", "--repeats", "1",
                 "--max-outer", "2", "--out", str(out)]) == 0
    with open(out / "cv_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["gamma"]), float(r["rho"])) for r in rows] == [(0.5, 0.1)]


def test_select_k_outputs_curve(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "k"
    rc = _run(["select-k", str(data), "--k-min", "2", "--k-max", "4",
               "--mc-samples", "15", "--eta1", "1.0", "--out", str(out)])
    assert rc == 0
    with open(out / "gap_curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "gap", "se"]
    assert [r[0] for r in rows[1:]] == ["2", "3", "4"]
    chosen = json.loads((out / "chosen_k.json").read_text())
    assert chosen["chosen_k"] in (2, 3, 4)
    assert len(chosen["gap"]) == 3
    # the data takes --restarts, each reference draw at most GAP_REF_RESTARTS
    assert chosen["manifest"]["config"]["restarts"] == model_selection.GAP_RESTARTS
    assert chosen["reference_restarts"] == model_selection.GAP_REF_RESTARTS
    jsonschema = pytest.importorskip("jsonschema")
    for bad in (0, 1.5):
        with pytest.raises(jsonschema.ValidationError):
            write_json(tmp_path / "bad.json", dict(chosen, reference_restarts=bad),
                       "chosen_k.schema.json")
    assert _run(["select-k", str(data), "--k-min", "5", "--k-max", "4"]) == 2


def test_select_k_reports_each_candidate_fit(dataset, tmp_path):
    data, _, X, _ = dataset
    argv = ["select-k", str(data), "--k-min", "2", "--k-max", "4", "--mc-samples", "5",
            "--eta1", "1.0", "--seed", "4"]
    for max_outer in ("1", "100"):
        out = tmp_path / f"k{max_outer}"
        assert _run([*argv, "--max-outer", max_outer, "--out", str(out)]) == 0
        chosen = json.loads((out / "chosen_k.json").read_text())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, curve, fits = model_selection.select_k_by_gap(
                X, range(2, 5), mc_samples=5, seed=4, eta1=1.0, max_outer=int(max_outer))
        # each of the three fits warns when one outer iteration stops it
        assert [str(w.message) for w in caught] == (
            ["no convergence within max_outer = 1"] * 3 if max_outer == "1" else [])
        assert chosen["k_candidates"] == [2, 3, 4]
        assert chosen["status"] == [fits[k].status for k in (2, 3, 4)]
        assert chosen["outer_iters"] == [fits[k].outer_iters for k in (2, 3, 4)]
        assert chosen["fits_stalled"] == chosen["status"].count("stalled")
        assert chosen["fits_max_outer"] == chosen["status"].count("max_outer")
        assert chosen["gap"] == curve.gap.tolist() and chosen["se"] == curve.se.tolist()
        assert chosen["chosen_k"] == curve.chosen_k
    # one outer iteration stops every fit short of convergence
    short = json.loads((tmp_path / "k1" / "chosen_k.json").read_text())
    assert short["outer_iters"] == [1] * 3
    assert short["fits_stalled"] + short["fits_max_outer"] == 3


@pytest.mark.parametrize("argv", [["fit", "{data}", "--k", "3"], ["tune", "{data}", "--k", "3"],
                                  ["select-k", "{data}"], ["simulate", "--design", "1"]])
def test_a_negative_seed_is_bad_input(argv, dataset, tmp_path, capsys):
    # numpy seeds only from non-negative integers: the seed is checked
    # before a command starts, so no worker fails on it and nothing is written
    out = tmp_path / "out"
    argv = [arg.format(data=dataset[0]) for arg in argv]
    capsys.readouterr()
    assert _run([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_design_1_table_shapes(tmp_path):
    # n = 12 has fewer rows than the 20 columns, so every method runs at n < p
    for n in (24, 12):
        out = tmp_path / f"sim1_{n}"
        rc = _run(["simulate", "--design", "1", "--replicates", "2", "--n", str(n),
                   "--out", str(out)])
        assert rc == 0
        with open(out / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["method"] for r in rows} == {"rsodc", "sodc", "tandem"}
        agg = json.loads((out / "simulate.json").read_text())
        assert agg["design"] == 1
        assert agg["failures"] == 0
        assert {row["method"] for row in agg["aggregate"]} == {"rsodc", "sodc",
                                                               "tandem"}


def test_simulate_design_5_fixes_the_dataset(tmp_path):
    out = tmp_path / "sim5"
    rc = _run(["simulate", "--design", "5", "--replicates", "3", "--n", "24",
               "--out", str(out)])
    assert rc == 0
    agg = json.loads((out / "simulate.json").read_text())
    assert agg["aggregate"][0]["replicates"] == 3
    assert "sd_ari" in agg["aggregate"][0]


def test_simulate_aggregate_is_thread_invariant(tmp_path):
    def run(threads, out):
        rc = _run(["simulate", "--design", "2", "--replicates", "2",
                   "--n", "24", "--grid-eta1", "1,2", "--grid-gamma", "0.001",
                   "--grid-rho", "0.01", "--threads", str(threads),
                   "--out", str(out)])
        assert rc == 0
        agg = json.loads((out / "simulate.json").read_text())
        return agg["aggregate"]

    assert run(1, tmp_path / "a") == run(4, tmp_path / "b")


def test_evaluate_reports_metrics(dataset, tmp_path):
    data, truth, _, _ = dataset
    fit_out = tmp_path / "fit"
    assert _run(["fit", str(data), "--k", "3", "--eta1", "1.0",
                 "--out", str(fit_out)]) == 0
    out = tmp_path / "eval"
    rc = _run(["evaluate", "--fit", str(fit_out / "fit.json"),
               "--truth", str(truth), "--informative", "1,2",
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert -0.5 <= metrics["ari"] <= 1.0
    assert 0.0 <= metrics["sensitivity"] <= 1.0
    assert 0.0 <= metrics["specificity"] <= 1.0
    assert len(metrics["f_scores"]) == 20
    assert "variance_ratio_embedding" in metrics
    assert "variance_ratio_scoring" in metrics


def test_evaluate_input_validation(dataset, tmp_path, capsys):
    data, truth, _, _ = dataset
    assert _run(["evaluate", "--fit", str(tmp_path / "no.json"),
                 "--truth", str(truth)]) == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{\"labels\": [1, 2]}")
    assert _run(["evaluate", "--fit", str(bogus), "--truth", str(truth)]) == 2
    # labels that are not 1-d integers >= 1 are bad input, not a crash
    fit = {"embedding": [[0.0]], "y_hat": [[0.0]], "b_hat": [[0.0]], "k": 2}
    for labels in (["a", "b"], [[1], [2]]):
        bogus.write_text(json.dumps(dict(fit, labels=labels)))
        assert _run(["evaluate", "--fit", str(bogus), "--truth", str(truth)]) == 2
    # a truth or data file with another row count than the fit's labels
    fit_json = tmp_path / "fit" / "fit.json"
    assert _run(["fit", str(data), "--k", "3", "--out", str(fit_json.parent)]) == 0
    short_truth = tmp_path / "short_truth.csv"
    short_truth.write_text("".join(truth.read_text().splitlines(True)[:-1]))
    capsys.readouterr()
    assert _run(["evaluate", "--fit", str(fit_json), "--truth", str(short_truth)]) == 2
    assert "truth has 29 rows, fit has 30" in capsys.readouterr().err
    short_data = tmp_path / "short_data.csv"
    short_data.write_text("".join(data.read_text().splitlines(True)[:-1]))
    assert _run(["evaluate", "--fit", str(fit_json), "--truth", str(truth),
                 "--data", str(short_data)]) == 2
    assert "data has 29 rows, fit has 30" in capsys.readouterr().err


def test_threads_flag_alone_sets_the_worker_count(dataset, tmp_path, monkeypatch):
    data, _, _, _ = dataset
    out = tmp_path / "threads"
    select_k = ["select-k", str(data), "--k-min", "2", "--k-max", "3",
                "--mc-samples", "5", "--out", str(out)]
    assert _run(select_k + ["--threads", "2"]) == 0
    payload = json.loads((out / "chosen_k.json").read_text())
    assert payload["manifest"]["threads"] == 2
    # a fit runs nothing in parallel, so it records one thread
    assert _run(["fit", str(data), "--k", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["manifest"]["threads"] == 1
    # the environment does not set the count: without --threads it is 1
    monkeypatch.setenv("RSODC_THREADS", "2")
    assert _run(select_k) == 0
    payload = json.loads((out / "chosen_k.json").read_text())
    assert payload["manifest"]["threads"] == 1


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_serial_commands_take_no_thread_count(command, dataset, tmp_path, capsys):
    data, truth, _, _ = dataset
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    assert "--threads" not in capsys.readouterr().out
    fit_out = tmp_path / "fit"
    argv = {"fit": ["fit", str(data), "--k", "3", "--out", str(fit_out)],
            "evaluate": ["evaluate", "--fit", str(fit_out / "fit.json"),
                         "--truth", str(truth), "--out", str(tmp_path / "eval")]}
    assert _run(argv["fit"]) == 0
    with pytest.raises(SystemExit) as exit_info:
        _run(argv[command] + ["--threads", "2"])
    assert exit_info.value.code == 2


def test_evaluate_rejects_non_finite_data(dataset, tmp_path, capsys):
    data, truth, X, _ = dataset
    fit_out = tmp_path / "fit"
    assert _run(["fit", str(data), "--k", "3", "--out", str(fit_out)]) == 0
    X = X.copy()
    X[4, 2] = np.nan
    bad = tmp_path / "nan.csv"
    write_matrix_csv(bad, X, [f"v{j + 1}" for j in range(X.shape[1])])
    capsys.readouterr()
    assert _run(["evaluate", "--fit", str(fit_out / "fit.json"), "--truth", str(truth),
                 "--data", str(bad), "--out", str(tmp_path / "eval")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_no_header_flag(tmp_path):
    X, _ = generate(SimulationConfig(n=20, p=20, k=2, theta=2.5, xi=0.5, seed=8))
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        for row in X:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    out = tmp_path / "nh"
    assert _run(["fit", str(raw), "--k", "2", "--no-header",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    assert len(payload["labels"]) == 20


def test_fit_manifest_times_the_graph_build(dataset, tmp_path):
    data, _, _, _ = dataset
    fused, plain = tmp_path / "fused", tmp_path / "plain"
    common = ["--k", "3", "--eta1", "1.0", "--rho", "0.01", "--max-outer", "3"]
    assert _run(["fit", str(data), "--gamma", "0.001", *common, "--out", str(fused)]) == 0
    assert _run(["fit", str(data), "--gamma", "0", *common, "--out", str(plain)]) == 0
    payload = json.loads((fused / "fit.json").read_text())
    timings = payload["manifest"]["timings"]
    assert 0.0 < timings["graph"] <= timings["command"]
    assert payload["diagnostics"]["edges"] > 0 and payload["diagnostics"]["omega"] > 0
    plain_payload = json.loads((plain / "fit.json").read_text())
    assert plain_payload["manifest"]["timings"]["graph"] == 0.0
    # both fits report their kept extrapolations, a count the schema declares
    for written in (payload, plain_payload):
        assert type(written["diagnostics"]["extrapolations"]) is int
        assert written["diagnostics"]["extrapolations"] >= 0
    jsonschema = pytest.importorskip("jsonschema")
    for bad in (-1, 1.5):
        diagnostics = dict(payload["diagnostics"], extrapolations=bad)
        with pytest.raises(jsonschema.ValidationError):
            write_json(tmp_path / "bad.json", dict(payload, diagnostics=diagnostics),
                       "fit.schema.json")
    # so is a slip in the rest of the loop's bookkeeping, before anything is written
    for key, bad in (("status", "done"), ("inner_iterations", [2, 0])):
        with pytest.raises(jsonschema.ValidationError):
            write_json(tmp_path / "bad.json", dict(payload, **{key: bad}), "fit.schema.json")
    for key, bad in (("b_sweeps", [2, 0]), ("b_sweeps", [1.5]), ("degenerate_updates", -1),
                     ("convergence_count", 1.5), ("edges", -1), ("omega", 0.0)):
        diagnostics = dict(payload["diagnostics"], **{key: bad})
        with pytest.raises(jsonschema.ValidationError):
            write_json(tmp_path / "bad.json", dict(payload, diagnostics=diagnostics),
                       "fit.schema.json")
    assert not (tmp_path / "bad.json").exists()


def test_simulate_rejects_a_weight_grid_without_usable_combos(tmp_path):
    assert _run(["simulate", "--design", "2", "--replicates", "1",
                 "--grid-gamma", "0.5", "--grid-rho", "0.1", "--v-mode", "paper",
                 "--out", str(tmp_path / "g")]) == 2


def test_simulate_design_3_rejects_a_bad_k_range(tmp_path):
    for k_min, k_max in (("1", "4"), ("4", "3")):
        assert _run(["simulate", "--design", "3", "--replicates", "1",
                     "--k-min", k_min, "--k-max", k_max,
                     "--out", str(tmp_path / "k")]) == 2
    assert not (tmp_path / "k").exists()


SIM_RUNS = {
    1: ["--replicates", "2"],
    2: ["--replicates", "2", "--grid-eta1", "1,2.5", "--grid-gamma", "0.001",
        "--grid-rho", "0.01"],
    3: ["--replicates", "3", "--k-min", "2", "--k-max", "3", "--mc-samples", "5"],
    4: ["--replicates", "2", "--grid-tau", "0.1", "--grid-delta", "3,5"],
    5: ["--replicates", "3"],
}
SIM_GROUPS = {1: ["method"], 2: ["eta1", "gamma", "rho"], 3: ["chosen_k"],
              4: ["tau", "delta"], 5: []}


def _recomputed_aggregate(rows, group, columns):
    """Aggregate rows by hand: median_/mean_/sd_ of a column, group sizes,
    and columns every row of a group shares."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in group), []).append(row)
    out = []
    for key, members in groups.items():
        agg = dict(zip(group, key))
        for col in columns[len(group):]:
            stat, _, source = col.partition("_")
            values = [float(r[source]) for r in members if source in r]
            if col in ("replicates", "count"):
                agg[col] = float(len(members))
            elif stat == "sum":  # sum_fits_<status>: the group's fits that ended so
                agg[col] = float(sum(r["status"] == source[len("fits_"):]
                                     for r in members))
            elif stat == "median":
                agg[col] = statistics.median(values)
            elif stat == "mean":
                agg[col] = statistics.fmean(values)
            elif stat == "sd":
                agg[col] = statistics.pstdev(values)
            else:
                assert len({r[col] for r in members}) == 1
                agg[col] = float(members[0][col])
        out.append(agg)
    return out


@pytest.mark.parametrize("design", sorted(SIM_RUNS))
def test_simulate_aggregate_recomputes_from_replicates(design, tmp_path):
    out = tmp_path / f"sim{design}"
    # at seed 1 design 3 chooses k = 3, 2, 3, so its sorted groups differ
    # from first appearance
    assert _run(["simulate", "--design", str(design), "--n", "24", "--seed", "1",
                 *SIM_RUNS[design], "--out", str(out)]) == 0
    with open(out / "replicates.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "aggregate.csv") as fh:
        reader = csv.DictReader(fh)
        agg_rows, columns = list(reader), reader.fieldnames
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["failures"] == 0 and summary["warnings"] >= 0
    if design != 3:
        assert {r["status"] for r in rows} <= {"converged", "stalled", "max_outer"}
    group = SIM_GROUPS[design]
    expected = _recomputed_aggregate(rows, group, columns)
    if design == 3:
        expected.sort(key=lambda a: int(a["chosen_k"]))
        assert sum(int(a["count"]) for a in agg_rows) == 3
    assert [[a[c] for c in group] for a in agg_rows] == [[e[c] for c in group]
                                                         for e in expected]
    for got, want in zip(agg_rows, expected):
        for col in columns[len(group):]:
            assert float(got[col]) == pytest.approx(want[col], rel=1e-12, abs=1e-15)


def test_batch_commands_count_warnings_and_fit_status(dataset, tmp_path):
    data, _, _, _ = dataset
    out = tmp_path / "sim5"
    # one outer iteration never converges, and n = 24 caps the 25 neighbours
    assert _run(["simulate", "--design", "5", "--replicates", "2", "--n", "24",
                 "--max-outer", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "simulate.json").read_text())
    with open(out / "replicates.csv") as fh:
        statuses = [r["status"] for r in csv.DictReader(fh)]
    assert len(statuses) == 2 and "converged" not in statuses
    assert summary["warnings"] >= 4
    assert _run(["select-k", str(data), "--k-min", "2", "--k-max", "3",
                 "--mc-samples", "5", "--max-outer", "1", "--out", str(tmp_path / "k")]) == 0
    assert json.loads((tmp_path / "k" / "chosen_k.json").read_text())["warnings"] >= 2
    assert _run(["tune", str(data), "--k", "3", "--grid-eta1", "1",
                 "--grid-gamma", "0.001", "--grid-rho", "0.01", "--repeats", "1",
                 "--max-outer", "1", "--out", str(tmp_path / "t")]) == 0
    assert json.loads((tmp_path / "t" / "best_params.json").read_text())["warnings"] >= 1


def test_simulate_counts_stalled_and_max_outer_fits(tmp_path):
    runs = {
        # one outer iteration never converges
        "max_outer": ["--design", "5", "--replicates", "2", "--max-outer", "1"],
        # at gamma 5 every retry of these draws' scoring steps raises the loss
        "stalled": ["--design", "2", "--replicates", "2", "--grid-eta1", "2.5",
                    "--grid-gamma", "0.001,5", "--grid-rho", "0.1"],
        # a select-k row counts its candidates' fits, here each cut at one
        # outer iteration
        "select_k": ["--design", "3", *SIM_RUNS[3][2:], "--replicates", "1",
                     "--max-outer", "1"],
    }
    counts = {}
    for name, flags in runs.items():
        out = tmp_path / name
        assert _run(["simulate", "--n", "24", *flags, "--out", str(out)]) == 0
        summary = json.loads((out / "simulate.json").read_text())
        counts[name] = (summary["fits_stalled"], summary["fits_max_outer"])
        if name == "select_k":
            continue
        with open(out / "replicates.csv") as fh:
            statuses = [r["status"] for r in csv.DictReader(fh)]
        assert counts[name] == (statuses.count("stalled"), statuses.count("max_outer"))
        with open(out / "aggregate.csv") as fh:
            aggregate = list(csv.DictReader(fh))
        assert counts[name] == tuple(sum(int(row[f"sum_{key}"]) for row in aggregate)
                                     for key in ("fits_stalled", "fits_max_outer"))
    assert counts["max_outer"] == (0, 2)
    assert counts["stalled"][0] >= 2
    # candidates k = 2 and 3
    assert sum(counts["select_k"]) == 2


# 30 rows and 100 columns (data seed 1) cap B steps; at tau 0.01 and gamma
# 0.5 scoring steps are rejected and retried, and --max-inner 1 caps inner
# ADMM calls
BATCH_COUNT_RUNS = {
    "tune": (["--grid-eta1", "2.5", "--grid-gamma", "0.5", "--grid-rho", "0.1",
              "--repeats", "1"], "best_params.json"),
    "select-k": (["--k-min", "2", "--k-max", "3", "--mc-samples", "5", "--eta1", "2.5",
                  "--gamma", "0.5", "--rho", "0.1"], "chosen_k.json"),
    "simulate": (["--design", "2", "--replicates", "1", "--n", "30", "--p", "100",
                  "--theta", "2.5", "--grid-eta1", "2.5", "--grid-gamma", "0.5",
                  "--grid-rho", "0.1"], "simulate.json"),
}


@pytest.mark.parametrize("command", sorted(BATCH_COUNT_RUNS))
def test_batch_counts_are_the_sums_of_their_fits_outcomes(command, tmp_path, monkeypatch):
    X, _ = generate(SimulationConfig(n=30, p=100, k=3, theta=2.5, xi=0.5, seed=1))
    data = tmp_path / "wide.csv"
    write_matrix_csv(data, X, [f"v{j + 1}" for j in range(100)])
    fits, fit_rsodc = [], solver.fit_rsodc

    def recording_fit_rsodc(*args, **kwargs):
        fits.append(fit_rsodc(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(cli, "fit_rsodc", recording_fit_rsodc)
    monkeypatch.setattr(model_selection, "fit_rsodc", recording_fit_rsodc)
    flags, output = BATCH_COUNT_RUNS[command]
    inputs = [] if command == "simulate" else [str(data)]
    if command == "tune":
        inputs += ["--k", "3"]
    out = tmp_path / "out"
    assert _run([command, *inputs, *flags, "--tau", "0.01", "--max-inner", "1",
                 "--seed", "2", "--out", str(out)]) == 0
    statuses = [fit.status for fit in fits]
    expected = {"fits_stalled": statuses.count("stalled"),
                "fits_max_outer": statuses.count("max_outer"),
                **{key: sum(fit.diagnostics[key] for fit in fits)
                   for key in ("retries", "b_steps_capped", "inner_capped")}}
    assert all(expected[key] > 0 for key in ("retries", "b_steps_capped", "inner_capped"))
    totals = json.loads((out / output).read_text())
    assert {key: totals[key] for key in expected} == expected
    if command == "tune":  # one combination, so its row holds the totals
        with open(out / "cv_table.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert {key: int(row[key]) for key in expected} == expected

BAD_FLAGS = [
    ("select-k", ["--eta1", "-1"]),
    ("select-k", ["--epsilon", "0"]),
    ("select-k", ["--mc-samples", "0"]),
    ("tune", ["--eta2", "-1"]),
    ("tune", ["--epsilon", "0"]),
    ("tune", ["--delta", "0"]),
    ("tune", ["--grid-eta1", "-1"]),
    ("simulate", ["--design", "1", "--eta1", "-1"]),
    ("simulate", ["--design", "3", "--epsilon", "0"]),
    ("fit", ["--max-outer", "0"]),
    ("fit", ["--max-inner", "0", "--gamma", "0.001"]),
    ("tune", ["--tau", "-1"]),
    ("fit", ["--tau", "-1"]),
    ("simulate", ["--design", "4", "--grid-tau", "-1"]),
    ("select-k", ["--restarts", "0"]),
    ("select-k", ["--restarts", "-4"]),
    ("select-k", ["--threads", "0"]),
    ("tune", ["--threads", "-1"]),
    ("simulate", ["--design", "1", "--threads", "0"]),
    # flags that design 2 and design 4 sweep over are checked as given too
    ("simulate", ["--design", "2", "--eta1", "-5", "--gamma", "-9"]),
    ("simulate", ["--design", "4", "--tau", "-1"]),
    ("fit", ["--gamma", "nan"]),
    ("fit", ["--epsilon", "nan"]),
    ("tune", ["--grid-rho", "nan"]),
    ("simulate", ["--design", "1", "--replicates", "0"]),
    ("simulate", ["--design", "3", "--mc-samples", "0"]),
    ("tune", ["--grid-eta1", ","]),
]
BASE_ARGS = {
    "select-k": ["--k-min", "2", "--k-max", "3", "--mc-samples", "5"],
    "tune": ["--k", "3", "--grid-eta1", "1", "--grid-gamma", "0.001",
             "--grid-rho", "0.01", "--repeats", "1"],
    "simulate": ["--replicates", "1", "--n", "24", "--k-max", "3", "--mc-samples", "5"],
    "fit": ["--k", "3"],
}


@pytest.mark.parametrize("command, flags", BAD_FLAGS)
def test_bad_solver_flags_exit_2_before_any_fit(command, flags, dataset, tmp_path,
                                                monkeypatch, capsys):
    import rsodc.cli as cli
    import rsodc.model_selection as ms

    fits = []

    def no_fit(*args, **kwargs):
        fits.append(args)
        raise AssertionError("a fit ran")

    for module, name in ((cli, "fit_rsodc"), (cli, "fit_sodc"),
                         (cli, "tandem_baseline"), (ms, "fit_rsodc")):
        monkeypatch.setattr(module, name, no_fit)
    data = [] if command == "simulate" else [str(dataset[0])]
    out = tmp_path / "out"
    rc = _run([command, *data, *BASE_ARGS[command], *flags, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert fits == [] and not out.exists()


def test_tune_has_no_flags_for_the_grid_weights(dataset, tmp_path):
    # the grid supplies eta1, gamma and rho, so tune takes no single value
    with pytest.raises(SystemExit) as exit_info:
        _run(["tune", str(dataset[0]), "--k", "3", "--eta1", "2",
              "--out", str(tmp_path / "t")])
    assert exit_info.value.code == 2


def test_fit_has_no_step_size_flag(dataset, tmp_path):
    # the B step takes no step size, so there is no --nu
    with pytest.raises(SystemExit) as exit_info:
        _run(["fit", str(dataset[0]), "--k", "3", "--nu", "0.01",
              "--out", str(tmp_path / "f")])
    assert exit_info.value.code == 2


def test_parser_defaults_come_from_model_selection():
    parser = build_parser()
    paper = {"grid_eta1": model_selection.PAPER_ETA1,
             "grid_gamma": model_selection.PAPER_GAMMA,
             "grid_rho": model_selection.PAPER_RHO}
    gap = {"k_min": model_selection.GAP_K_RANGE[0],
           "k_max": model_selection.GAP_K_RANGE[-1],
           "mc_samples": model_selection.GAP_MC_SAMPLES}
    tune = vars(parser.parse_args(["tune", "x.csv", "--k", "3"]))
    select_k = vars(parser.parse_args(["select-k", "x.csv"]))
    simulate = vars(parser.parse_args(["simulate", "--design", "1"]))
    for args in (tune, simulate):
        for flag, values in paper.items():
            assert tuple(float(v) for v in args[flag].split(",")) == values
    assert tune["grid_eta1"] == "0.1,0.5,1,1.5,2,2.5,3"
    for args in (select_k, simulate):
        assert {flag: args[flag] for flag in gap} == gap
    assert select_k["restarts"] == model_selection.GAP_RESTARTS


def test_parser_defaults_come_from_the_library():
    parser = build_parser()
    tune = parser.parse_args(["tune", "x.csv", "--k", "3"])
    simulate = parser.parse_args(["simulate", "--design", "1"])
    assert tune.repeats == model_selection.ParamGrid().repeats
    config = SimulationConfig(n=60, p=20, k=3, theta=2.2, xi=0.5)
    assert (simulate.q, simulate.xi_dagger) == (config.q, config.xi_dagger)


@pytest.mark.parametrize("flags, builds", [
    (["--design", "2", "--replicates", "2", "--grid-eta1", "2.5",
      "--grid-gamma", "0.001", "--grid-rho", "0.01,0.05,0.1"], 2),
    (["--design", "5", "--replicates", "3", "--gamma", "0.001"], 1),
])
def test_simulate_builds_one_fusion_graph_per_dataset(flags, builds, tmp_path,
                                                      monkeypatch):
    import rsodc.fusion_graph as fusion_graph

    real = fusion_graph.compute_weights
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fusion_graph, "compute_weights", counting)
    assert _run(["simulate", *flags, "--n", "60", "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == builds
    summary = json.loads((tmp_path / "sim" / "simulate.json").read_text())
    assert summary["failures"] == 0
