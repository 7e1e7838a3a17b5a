"""Command-line surface: fit, tune, select-k, simulate, and evaluate.

Every command writes its results under --out (default rsodc_out) and embeds
a manifest with the resolved configuration in each JSON file. Exit codes:
0 success, 1 internal error, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable

import jsonschema
import numpy as np

from . import __version__, fusion_graph, model_selection
from ._io import (
    InputError,
    _labels,
    jsonable,
    read_labels_csv,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
    write_rows_csv,
)
from ._svg import scatter_svg
from .core import ProblemInstance, child_seed, parallel_map
from .datagen import SimulationConfig, generate
from .metrics import (
    adjusted_rand_index,
    anova_f_scores,
    sensitivity_specificity,
    variance_ratio,
)
from .model_selection import ParamGrid, select_k_by_gap, stability_cv
from .solver import (OUTCOME_COUNTS, fit_rsodc, fit_sodc, outcome_counts,
                     summed_outcome_counts, tandem_baseline)

# default candidates of the --grid-* flags: tune's, and simulate's (designs 2 and 4)
TUNE_GRIDS = {"eta1": model_selection.PAPER_ETA1, "gamma": model_selection.PAPER_GAMMA,
              "rho": model_selection.PAPER_RHO}
SIM_GRIDS = dict(TUNE_GRIDS, tau=(0.001, 0.005, 0.01, 0.05, 0.1), delta=range(5, 60, 5))


def _threads(args) -> int:
    """--threads; a count below 1 is an input error."""
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def _check_seed(args) -> None:
    """--seed; numpy seeds its generators from non-negative integers only."""
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")


def _parse_list(text: str, flag: str, cast) -> tuple:
    try:
        values = tuple(cast(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InputError(f"{flag} expects comma-separated {cast.__name__} values, "
                         f"got {text!r}")
    if not values:
        raise InputError(f"{flag} is empty")
    return values


def _manifest(args, inputs, outputs, timings, threads=1) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "seed": int(args.seed),
        "threads": int(threads),
        "config": jsonable({k: v for k, v in vars(args).items() if k != "func"}),
        "inputs": [str(p) for p in inputs],
        "outputs": list(outputs),
        "timings": {k: float(v) for k, v in timings.items()},
    }


@contextmanager
def _input_errors():
    """Report a ValueError or ValidationError as bad input (exit 2)."""
    try:
        yield
    except (ValueError, jsonschema.ValidationError) as exc:
        raise InputError(str(exc)) from exc


def _setting_fields() -> list:
    """The solver settings: ProblemInstance's fields after data and k."""
    return [f for f in fields(ProblemInstance) if f.name not in ("data", "k")]


def _settings(args) -> dict:
    """The settings args carries (tune's lack the grid's three), by field name."""
    return {f.name: getattr(args, f.name) for f in _setting_fields() if f.name in args}


def _instance(X, k, args) -> ProblemInstance:
    with _input_errors():
        return ProblemInstance(data=X, k=k, **_settings(args))


def _with(args, changes) -> argparse.Namespace:
    return argparse.Namespace(**dict(vars(args), **changes))


def _fit_model(X, args, seed, graph=None):
    """The fit args describe: sodc when gamma = 0, else rsodc on graph,
    which the fit builds when None."""
    inst = _instance(X, args.k, args)
    if inst.gamma == 0.0:
        return fit_sodc(inst, seed=seed)
    return fit_rsodc(inst, graph, seed=seed)


def cmd_fit(args) -> int:
    X = read_matrix_csv(args.csv, header=not args.no_header)
    t0 = time.perf_counter()
    fit = _fit_model(X, args, args.seed)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    outputs = ["fit.json", "embedding.csv", "embedding.svg", "scoring.svg"]
    d = fit.embedding.shape[1]
    write_matrix_csv(os.path.join(args.out, "embedding.csv"), fit.embedding,
                     [f"component_{c + 1}" for c in range(d)], labels=fit.labels)
    scatter_svg(fit.embedding, fit.labels, os.path.join(args.out, "embedding.svg"),
                title="discriminant embedding")
    scatter_svg(fit.Y_hat, fit.labels, os.path.join(args.out, "scoring.svg"),
                title="scoring matrix")
    payload = {
        "method": fit.method,
        "k": args.k,
        "params": _settings(args),
        "b_hat": fit.B_hat,
        "y_hat": fit.Y_hat,
        "embedding": fit.embedding,
        "labels": fit.labels,
        "objective_trace": fit.objective_trace,
        "converged": fit.status == "converged",
        "status": fit.status,
        "outer_iters": fit.outer_iters,
        "inner_iterations": fit.inner_iterations,
        "diagnostics": fit.diagnostics,
        "manifest": _manifest(args, [args.csv], outputs,
                              dict(fit.timings, command=elapsed)),
    }
    write_json(os.path.join(args.out, "fit.json"), payload, "fit.schema.json")
    print(f"{fit.method}: status={fit.status} objective={fit.objective_trace[-1]:.6g} "
          f"outer_iters={fit.outer_iters} -> {args.out}/")
    return 0


def _weight_grid(args, **options):
    """(ParamGrid, combos) from the --grid-* flags and ParamGrid's other
    fields in options; a grid with no usable combination is an input error."""
    with _input_errors():
        grid = ParamGrid(
            eta1_candidates=_parse_list(args.grid_eta1, "--grid-eta1", float),
            gamma_candidates=_parse_list(args.grid_gamma, "--grid-gamma", float),
            rho_candidates=_parse_list(args.grid_rho, "--grid-rho", float),
            **options)
        return grid, grid.combos(args.v_mode)


def cmd_tune(args) -> int:
    X = read_matrix_csv(args.csv, header=not args.no_header)
    threads = _threads(args)
    grid, combos = _weight_grid(args, repeats=args.repeats)
    t0 = time.perf_counter()
    with _input_errors(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best, table = stability_cv(X, args.k, grid, seed=args.seed, threads=threads,
                                   **_settings(args))
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    outputs = ["cv_table.csv", "best_params.json"]
    counts = ["failures", *OUTCOME_COUNTS]
    header = (["eta1", "gamma", "rho", "mean_kappa", *counts]
              + [f"kappa_{r + 1}" for r in range(grid.repeats)])
    rows = [[row["eta1"], row["gamma"], row["rho"], row["mean_kappa"],
             *(row[c] for c in counts)] + row["kappas"] for row in table]
    write_rows_csv(os.path.join(args.out, "cv_table.csv"), header, rows)
    payload = dict(best, **summed_outcome_counts(table), warnings=len(caught))
    payload["manifest"] = _manifest(args, [args.csv], outputs,
                                    {"command": elapsed}, threads)
    write_json(os.path.join(args.out, "best_params.json"), payload,
               "best_params.schema.json")
    print(f"best of {len(combos)} combos: eta1={best['eta1']} gamma={best['gamma']} "
          f"rho={best['rho']} mean_kappa={best['mean_kappa']:.4f}, "
          f"{len(caught)} warnings -> {args.out}/")
    return 0


def _k_candidates(args) -> range:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise InputError("need 2 <= k-min <= k-max")
    return range(args.k_min, args.k_max + 1)


def _select_k(X, ks, args, seed, **options):
    """select_k_by_gap over ks with the solver settings in args."""
    return select_k_by_gap(X, ks, mc_samples=args.mc_samples, seed=seed, **options,
                           **_settings(args))


def cmd_select_k(args) -> int:
    X = read_matrix_csv(args.csv, header=not args.no_header)
    threads = _threads(args)
    ks = _k_candidates(args)
    t0 = time.perf_counter()
    with _input_errors(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chosen, curve, fits = _select_k(X, ks, args, args.seed,
                                        restarts=args.restarts, threads=threads)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    outputs = ["gap_curve.csv", "chosen_k.json"]
    rows = [[k, float(g), float(s)]
            for k, g, s in zip(curve.k_candidates, curve.gap, curve.se)]
    write_rows_csv(os.path.join(args.out, "gap_curve.csv"),
                   ["k", "gap", "se"], rows)
    payload = {
        "chosen_k": chosen,
        "k_candidates": curve.k_candidates,
        "gap": curve.gap,
        "se": curve.se,
        # the manifest's restarts cluster the data, these each reference draw
        "reference_restarts": model_selection.reference_restarts(args.restarts),
        # one entry per candidate, in k_candidates order
        "status": [fits[k].status for k in curve.k_candidates],
        "outer_iters": [fits[k].outer_iters for k in curve.k_candidates],
        **outcome_counts(fits.values()),
        "warnings": len(caught),
        "manifest": _manifest(args, [args.csv], outputs,
                              {"command": elapsed}, threads),
    }
    write_json(os.path.join(args.out, "chosen_k.json"), payload,
               "chosen_k.schema.json")
    print(f"chosen k = {chosen} over candidates {curve.k_candidates}, "
          f"{len(caught)} warnings -> {args.out}/")
    return 0


def _sim_config(args, seed) -> SimulationConfig:
    with _input_errors():
        return SimulationConfig(n=args.n, p=args.p, k=args.k, theta=args.theta,
                                xi=args.xi, q=args.q, c_star=args.c_star,
                                xi_dagger=args.xi_dagger, seed=seed)


def _replicate_fit(args, data, r, changes) -> dict:
    """Designs 1, 2, 4 and 5: fit replicate r's data with args updated by
    changes, or with the tandem baseline when changes["method"] says so."""
    X, truth, graph = data
    seed = child_seed(args.seed, 22, r)
    t0 = time.perf_counter()
    if changes.get("method") == "tandem":
        fit = tandem_baseline(X, args.k, seed=seed)
    else:
        fit = _fit_model(X, _with(args, changes), seed, graph)
    seconds = time.perf_counter() - t0
    sensitivity, specificity = sensitivity_specificity(fit.B_hat, range(1, args.q + 1),
                                                       args.k)
    return dict(changes, replicate=r, seconds=seconds, status=fit.status,
                ari=float(adjusted_rand_index(truth, fit.labels)),
                outer_iters=fit.outer_iters, sensitivity=sensitivity,
                specificity=specificity,
                convergence_count=fit.diagnostics.get("convergence_count", 0),
                **outcome_counts([fit]))


def _replicate_select_k(args, data, r, ks) -> dict:
    """Design 3: the gap-statistic choice of k on replicate r's data, with
    the outcome counts of its candidates' fits."""
    seed = child_seed(args.seed, 22, r).generate_state(1)[0].item()
    chosen, _, fits = _select_k(data[0], ks, args, seed, threads=1)
    return {"replicate": r, "true_k": args.k, "chosen_k": chosen,
            **outcome_counts(fits.values())}


STATISTICS = {
    "median": lambda values: float(np.median(np.asarray(values, dtype=float))),
    "mean": lambda values: float(np.mean(values)),
    "sd": lambda values: float(np.std(values, ddof=0)),
    "sum": sum,
}
# the aggregate.csv columns of the fit designs that count how fits ended
STATUS_SUMS = ("sum_fits_stalled", "sum_fits_max_outer")


def _summary(column: str, rows: list):
    """One aggregate.csv value for a group of rows: the group size for
    "replicates" and "count", STATISTICS[stat] of the rows' entry c for
    "<stat>_<c>", otherwise the value the rows share in that column."""
    if column in ("replicates", "count"):
        return len(rows)
    stat, _, source = column.partition("_")
    if stat in STATISTICS:
        return STATISTICS[stat]([row[source] for row in rows])
    return rows[0][column]


@dataclass(frozen=True)
class Design:
    """One simulation design: what a replicate runs and how rows aggregate.

    replicate(args, (X, truth, graph), r, variant) returns one row as a
    dict, graph being the dataset's shared fusion graph or None (see
    _shared_graphs), and columns picks the replicates.csv header from it.
    Rows with equal values in the group columns make one aggregate.csv row:
    those values, then one _summary per summary column.
    """

    replicate: Callable
    columns: tuple
    group: tuple
    summary: tuple
    one_dataset: bool = False  # every replicate refits replicate 0's draw
    sort_groups: bool = False  # aggregate rows by group value, not first appearance


DESIGNS = {
    1: Design(_replicate_fit,
              ("replicate", "method", "ari", "seconds", "outer_iters",
               "convergence_count", "status"),
              ("method",),
              ("median_ari", "mean_ari", "median_seconds", "replicates", *STATUS_SUMS)),
    2: Design(_replicate_fit,
              ("replicate", "eta1", "gamma", "rho", "ari", "seconds", "status"),
              ("eta1", "gamma", "rho"),
              ("median_ari", "mean_ari", "replicates", *STATUS_SUMS)),
    3: Design(_replicate_select_k, ("replicate", "true_k", "chosen_k"),
              ("chosen_k",), ("count", "true_k"), sort_groups=True),
    4: Design(_replicate_fit,
              ("replicate", "tau", "delta", "ari", "sensitivity", "specificity",
               "seconds", "convergence_count", "status"),
              ("tau", "delta"),
              ("median_ari", "median_sensitivity", "median_specificity",
               "median_convergence_count", "replicates", *STATUS_SUMS)),
    5: Design(_replicate_fit,
              ("replicate", "ari", "seconds", "convergence_count", "status"), (),
              ("median_ari", "mean_ari", "sd_ari", "median_convergence_count",
               "replicates", *STATUS_SUMS),
              one_dataset=True),
}


def _variants(args) -> list:
    """What each replicate sweeps: the three methods (design 1), the weight
    combos (2), the candidate k range (3), the (tau, delta) grid (4), or one
    fit at the given settings (5)."""
    if args.design == 1:
        return [{"method": "rsodc"}, {"method": "sodc", "gamma": 0.0},
                {"method": "tandem"}]
    if args.design == 2:
        _, combos = _weight_grid(args)
        return [{"eta1": e, "gamma": g, "rho": r} for e, g, r in combos]
    if args.design == 3:
        return [_k_candidates(args)]
    if args.design == 4:
        return [{"tau": tau, "delta": delta}
                for tau in _parse_list(args.grid_tau, "--grid-tau", float)
                for delta in _parse_list(args.grid_delta, "--grid-delta", int)]
    return [{}]


def _shared_graphs(args, datasets, variants) -> list:
    """One fusion graph per dataset, at args' tau and delta (capped at
    n - 1; each fit warns of the cap), when every fit of the variants takes
    those and some has gamma > 0; otherwise None per dataset, and each fit
    that needs a graph builds its own (design 4 sweeps tau and delta,
    design 3 runs select-k)."""
    fits = [v for v in variants if isinstance(v, dict) and v.get("method") != "tandem"]
    if (any("tau" in v or "delta" in v for v in fits)
            or not any(v.get("gamma", args.gamma) > 0.0 for v in fits)):
        return [None] * len(datasets)
    return [fusion_graph.compute_weights(X, args.tau, min(args.delta, X.shape[0] - 1))
            for X, _ in datasets]


def _check_variant(args, X, variant) -> None:
    """InputError unless each fit of the variant takes its settings on X."""
    if args.design == 3:
        if args.mc_samples < 1:
            raise InputError("--mc-samples must be >= 1")
        for k in variant:
            _instance(X, k, args)
    elif variant.get("method") != "tandem":
        _instance(X, args.k, _with(args, variant))


def _aggregate(design: Design, rows) -> list:
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in design.group), []).append(row)
    keys = sorted(groups) if design.sort_groups else list(groups)
    return [dict(zip(design.group, key),
                 **{col: _summary(col, groups[key]) for col in design.summary})
            for key in keys]


def cmd_simulate(args) -> int:
    threads = _threads(args)
    reps = args.replicates
    if reps < 1:
        raise InputError("--replicates must be >= 1")
    design = DESIGNS[args.design]
    variants = _variants(args)
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # replicate r draws its dataset from the stream (seed, 21, r)
        datasets = [generate(_sim_config(args, child_seed(args.seed, 21, r)))
                    for r in range(1 if design.one_dataset else reps)]
        _instance(datasets[0][0], args.k, args)  # the solver flags as given
        for variant in variants:  # every replicate's data has the same shape
            _check_variant(args, datasets[0][0], variant)
        datasets = [(X, truth, graph) for (X, truth), graph
                    in zip(datasets, _shared_graphs(args, datasets, variants))]

        def replicate(item):
            r, variant = item
            return design.replicate(args, datasets[r % len(datasets)], r, variant)

        results = parallel_map(replicate, [(r, v) for r in range(reps) for v in variants],
                               threads)
    rows = [row for row in results if row is not None]
    failures = len(results) - len(rows)
    aggregate = _aggregate(design, rows)
    agg_header = design.group + design.summary

    elapsed = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    outputs = ["replicates.csv", "aggregate.csv", "simulate.json"]
    write_rows_csv(os.path.join(args.out, "replicates.csv"), design.columns,
                   [[row[c] for c in design.columns] for row in rows])
    write_rows_csv(os.path.join(args.out, "aggregate.csv"), agg_header,
                   [[row[h] for h in agg_header] for row in aggregate])
    payload = {
        "design": args.design,
        "replicates": reps,
        "aggregate": aggregate,
        "failures": failures,
        **summed_outcome_counts(rows),
        "warnings": len(caught),
        "manifest": _manifest(args, [], outputs, {"command": elapsed}, threads),
    }
    write_json(os.path.join(args.out, "simulate.json"), payload,
               "simulate.schema.json")
    print(f"design {args.design}: {len(rows)} rows, {failures} failures, "
          f"{len(caught)} warnings -> {args.out}/")
    return 0


def cmd_evaluate(args) -> int:
    try:
        with open(args.fit, encoding="utf-8") as handle:
            fit = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {args.fit}: {exc}") from exc
    for key in ("labels", "embedding", "y_hat", "b_hat", "k"):
        if key not in fit:
            raise InputError(f"{args.fit} lacks key {key!r}")
    with _input_errors():  # the rule write_json applies to a fit's labels
        labels = _labels(f"{args.fit}: labels", fit["labels"]).astype(int)
    truth = read_labels_csv(args.truth, header=not args.no_header)
    if truth.shape[0] != labels.shape[0]:
        raise InputError(f"truth has {truth.shape[0]} rows, fit has "
                         f"{labels.shape[0]}")
    t0 = time.perf_counter()
    metrics = {"ari": float(adjusted_rand_index(truth, labels))}
    for key, points in (("variance_ratio_embedding", fit["embedding"]),
                        ("variance_ratio_scoring", fit["y_hat"])):
        try:
            metrics[key] = variance_ratio(np.asarray(points, dtype=float), labels)
        except ValueError as exc:
            warnings.warn(f"{key} unavailable: {exc}", RuntimeWarning)
    if args.informative:
        idx = _parse_list(args.informative, "--informative", int)
        with _input_errors():
            metrics["sensitivity"], metrics["specificity"] = sensitivity_specificity(
                np.asarray(fit["b_hat"], dtype=float), idx, int(fit["k"]))
    if args.data:
        X = read_matrix_csv(args.data, header=not args.no_header)
        if X.shape[0] != labels.shape[0]:
            raise InputError(f"data has {X.shape[0]} rows, fit has "
                             f"{labels.shape[0]}")
        with _input_errors():
            metrics["f_scores"] = anova_f_scores(X, labels)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    inputs = [args.fit, args.truth] + ([args.data] if args.data else [])
    metrics["manifest"] = _manifest(args, inputs, ["metrics.json"],
                                    {"command": elapsed})
    write_json(os.path.join(args.out, "metrics.json"), metrics,
               "metrics.schema.json")
    print(f"ari={metrics['ari']:.4f} -> {args.out}/")
    return 0


def _add_common(p, parallel: bool) -> None:
    """--seed and --out, and --threads for a command that runs work in parallel."""
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    if parallel:
        p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--out", default="rsodc_out", help="output directory")


def _add_solver(p, *skip, **overrides) -> None:
    """One flag per ProblemInstance setting not named in skip, taking its
    field's type and default unless overrides gives another default."""
    helps = {"eta1": "row-sparsity weight", "eta2": "ridge weight",
             "gamma": "fusion weight", "rho": "augmented-Lagrangian weight",
             "epsilon": "convergence threshold",
             "v_mode": "V step: exact shrinkage or the paper's damped one-step update",
             "tau": "neighbor weight decay rate",
             "delta": "nearest-neighbor count for fusion weights"}
    for f in _setting_fields():
        if f.name not in skip:
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           default=overrides.get(f.name, f.default),
                           help=helps.get(f.name))


def _add_grids(p, grids) -> None:
    """One --grid-<name> flag per entry, defaulting to its values comma-joined."""
    for name, values in grids.items():
        p.add_argument(f"--grid-{name}", default=",".join(f"{v:g}" for v in values),
                       help=f"comma-separated {name} candidates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsodc",
        description="Sparse discriminant clustering with a fusion penalty")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one model on a CSV matrix")
    p.add_argument("csv", help="input matrix, rows = subjects")
    p.add_argument("--k", type=int, required=True, help="cluster count")
    p.add_argument("--no-header", action="store_true",
                   help="input CSV has no header row")
    _add_solver(p)
    _add_common(p, parallel=False)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("tune", help="stability cross-validation over a weight grid")
    p.add_argument("csv")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--no-header", action="store_true")
    _add_grids(p, TUNE_GRIDS)
    p.add_argument("--repeats", type=int, default=ParamGrid.repeats,
                   help="random half-splits per combination")
    _add_solver(p, *TUNE_GRIDS)  # the grid supplies these weights
    _add_common(p, parallel=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("select-k", help="choose the cluster count by gap statistic")
    p.add_argument("csv")
    p.add_argument("--k-min", type=int, default=model_selection.GAP_K_RANGE[0])
    p.add_argument("--k-max", type=int, default=model_selection.GAP_K_RANGE[-1])
    p.add_argument("--mc-samples", type=int, default=model_selection.GAP_MC_SAMPLES,
                   help="reference draws per candidate")
    p.add_argument("--restarts", type=int, default=model_selection.GAP_RESTARTS,
                   help="k-means restarts on the data inside the gap computation; "
                        "each reference draw takes min(RESTARTS, "
                        f"{model_selection.GAP_REF_RESTARTS})")
    p.add_argument("--no-header", action="store_true")
    _add_solver(p)
    _add_common(p, parallel=True)
    p.set_defaults(func=cmd_select_k)

    p = sub.add_parser("simulate", help="run a synthetic study design")
    p.add_argument("--design", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--p", type=int, default=20)
    p.add_argument("--k", type=int, default=3, help="true cluster count")
    p.add_argument("--theta", type=float, default=2.2, help="centroid distance")
    p.add_argument("--xi", type=float, default=0.5,
                   help="informative-block correlation")
    p.add_argument("--q", type=int, default=SimulationConfig.q,
                   help="informative variable count")
    p.add_argument("--c-star", type=int, default=None,
                   help="correlated-noise count (default: by p)")
    p.add_argument("--xi-dagger", type=float, default=SimulationConfig.xi_dagger,
                   help="correlated-noise correlation")
    _add_grids(p, SIM_GRIDS)
    p.add_argument("--k-min", type=int, default=model_selection.GAP_K_RANGE[0],
                   help="design 3 candidate floor")
    p.add_argument("--k-max", type=int, default=model_selection.GAP_K_RANGE[-1],
                   help="design 3 candidate cap")
    p.add_argument("--mc-samples", type=int, default=model_selection.GAP_MC_SAMPLES)
    _add_solver(p, eta1=2.5, gamma=0.001, rho=0.01)
    _add_common(p, parallel=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score a fit against ground truth")
    p.add_argument("--fit", required=True, help="fit.json from the fit command")
    p.add_argument("--truth", required=True, help="CSV with true labels")
    p.add_argument("--informative", default=None,
                   help="comma-separated 1-based signal rows of B")
    p.add_argument("--data", default=None,
                   help="original matrix CSV for per-variable F scores")
    p.add_argument("--no-header", action="store_true")
    _add_common(p, parallel=False)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_seed(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
