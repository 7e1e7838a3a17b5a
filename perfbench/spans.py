"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

The recorder wraps public functions of the rsodc package from outside, at
the module attribute each caller looks the name up in: `solve_B` is
wrapped as `rsodc.solver.solve_B` because `rsodc.solver` imported the name
directly. A span records its name, start, end, parent span and thread.
Spans are kept in memory; the benchmark writes them out when the run ends.

A span opened on a worker thread with no open span of its own takes the
span open on the main thread as its parent, so the fits of a thread pool
hang under the command that started them. A span's self time is its
duration minus the part of that interval its child spans cover; children
running at the same time on several threads are counted once.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

FIELDS = ("id", "name", "start", "end", "parent", "thread", "counts")
SID, NAME, START, END, PARENT, THREAD, COUNTS = range(len(FIELDS))


class Recorder:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.get_ident()
        self._patched = []

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = [next(self._ids), name, 0.0, 0.0, parent, tid, None]
        self.spans.append(span)
        stack.append(span[SID])
        return span, stack

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; count(args, result) -> dict."""
        span, stack = self._open(name)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
        if count is not None:
            span[COUNTS] = count(args, result)
        return result

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a traced version until uninstall()."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[SID]: (s[END] - s[START]) - _covered(children[s[SID]], s[START], s[END])
            for s in spans}


def _fit_counts(args, fit) -> dict:
    return {"fits": 1, "outer_iters": fit.outer_iters,
            "fits_converged": int(fit.status == "converged"),
            "fits_stalled": int(fit.status == "stalled"),
            "fits_max_outer": int(fit.status == "max_outer"),
            "degenerate_updates": fit.diagnostics.get("degenerate_updates", 0),
            "objective_final": float(fit.objective_trace[-1])}


def install(recorder: Recorder, rsodc) -> None:
    """Wrap every traced layer function at the call sites the package uses."""
    cli = rsodc.cli
    fg, solver, admm = rsodc.fusion_graph, rsodc.solver, rsodc.admm_scoring
    ms, datagen = rsodc.model_selection, rsodc.datagen
    sites = [
        (cli, "main", "cli.main", None),
        (cli, "read_matrix_csv", "io.read", None),
        (cli, "write_json", "io.write", None),
        (cli, "write_matrix_csv", "io.write", None),
        (cli, "write_rows_csv", "io.write", None),
        (cli, "scatter_svg", "svg.plot", None),
        (cli, "generate", "datagen.generate", None),
        (datagen, "generate", "datagen.generate", None),
        (fg, "knn_indicator", "fusion_graph.knn_indicator", None),
        (fg, "compute_weights", "fusion_graph.compute_weights",
         lambda a, g: {"edges": g.m}),
        (fg, "build_quadratic", "fusion_graph.build_quadratic", None),
        (solver, "build_quadratic", "fusion_graph.build_quadratic", None),
        (fg, "top_eigenvalue_sym", "core.top_eigenvalue_sym", None),
        (cli, "fit_rsodc", "solver.fit", _fit_counts),
        (ms, "fit_rsodc", "solver.fit", _fit_counts),
        (cli, "fit_sodc", "solver.fit", _fit_counts),
        (cli, "tandem_baseline", "solver.tandem_baseline", None),
        (solver, "kmeans", "solver.kmeans", None),
        (solver, "thin_svd", "core.thin_svd", None),
        (solver, "solve_B", "group_lasso.solve_B",
         lambda a, r: {"sweeps": int(r[1])}),
        (solver, "inner_admm", "admm_scoring.inner_admm",
         lambda a, state: {"inner_iters": state.iterations}),
        (solver, "update_Y", "admm_scoring.update_Y", None),
        (admm, "assemble_D", "admm_scoring.assemble_D", None),
        (admm, "update_Y", "admm_scoring.update_Y", None),
        (admm, "thin_svd", "core.thin_svd", None),
        (admm, "update_V", "admm_scoring.update_V", None),
        (admm, "update_Lambda", "admm_scoring.update_Lambda", None),
        (admm, "augmented_lagrangian", "admm_scoring.augmented_lagrangian", None),
        (cli, "select_k_by_gap", "model_selection.select_k_by_gap", None),
        (ms, "kmeans", "model_selection.kmeans", None),
        (ms, "thin_svd", "core.thin_svd", None),
    ]
    for module, attr, name, count in sites:
        recorder.wrap(module, attr, name, count)


# metric -> span names whose self times it sums
SELF_TIME = {
    "fusion_graph.knn_s": ("fusion_graph.knn_indicator",),
    "fusion_graph.weights_s": ("fusion_graph.compute_weights",),
    "fusion_graph.quadratic_s": ("fusion_graph.build_quadratic",),
    "core.top_eigenvalue_s": ("core.top_eigenvalue_sym",),
    "admm_scoring.inner_admm_s": ("admm_scoring.inner_admm",),
    "admm_scoring.assemble_D_s": ("admm_scoring.assemble_D",),
    "admm_scoring.update_Y_s": ("admm_scoring.update_Y",),
    "core.thin_svd_s": ("core.thin_svd",),
    "admm_scoring.update_V_s": ("admm_scoring.update_V",),
    "admm_scoring.update_Lambda_s": ("admm_scoring.update_Lambda",),
    "admm_scoring.lagrangian_s": ("admm_scoring.augmented_lagrangian",),
    "group_lasso.solve_B_s": ("group_lasso.solve_B",),
    "solver.kmeans_s": ("solver.kmeans",),
    "model_selection.gap_kmeans_s": ("model_selection.kmeans",),
    "model_selection.self_s": ("model_selection.select_k_by_gap",),
    "solver.fit_self_s": ("solver.fit", "solver.tandem_baseline"),
    "cli.self_s": ("cli.main",),
    "io.read_s": ("io.read",),
    "io.write_s": ("io.write",),
    "svg.plot_s": ("svg.plot",),
    "datagen.generate_s": ("datagen.generate",),
}

# metric -> (span name, count key); a None key counts the spans themselves
COUNT = {
    "fusion_graph.edges": ("fusion_graph.compute_weights", "edges"),
    "admm_scoring.inner_iters": ("admm_scoring.inner_admm", "inner_iters"),
    "core.thin_svd_calls": ("core.thin_svd", None),
    "admm_scoring.degenerate_updates": ("solver.fit", "degenerate_updates"),
    "group_lasso.solve_B_calls": ("group_lasso.solve_B", None),
    "group_lasso.sweeps": ("group_lasso.solve_B", "sweeps"),
    "solver.kmeans_calls": ("solver.kmeans", None),
    "model_selection.gap_kmeans_calls": ("model_selection.kmeans", None),
    "solver.fits": ("solver.fit", "fits"),
    "solver.outer_iters": ("solver.fit", "outer_iters"),
    "solver.fits_converged": ("solver.fit", "fits_converged"),
    "solver.fits_stalled": ("solver.fit", "fits_stalled"),
    "solver.fits_max_outer": ("solver.fit", "fits_max_outer"),
    "solver.objective_final": ("solver.fit", "objective_final"),
}


def layer_metrics(spans) -> dict:
    """Per-layer self times (s) and counts over one traced round's spans."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own[s[SID]] for n in names for s in by_name[n])
    for metric, (name, key) in COUNT.items():
        group = by_name[name]
        out[metric] = len(group) if key is None else sum(
            s[COUNTS][key] for s in group if s[COUNTS])
    return out
