"""The span recorder: parents, self times, wrapping and unwrapping."""

from __future__ import annotations

import threading
import types
import warnings

import rsodc.cli
import spans
from rsodc.datagen import SimulationConfig, generate
from rsodc.fusion_graph import build_fusion_graph


def _span(sid, name, start, end, parent=None, counts=None):
    return [sid, name, start, end, parent, 0, counts]


def test_self_time_subtracts_the_union_of_children():
    group = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),  # overlaps a, as on a second thread
        _span(4, "c", 2.0, 3.0, parent=2),
    ]
    own = spans.self_times(group)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_wrap_records_nesting_counts_and_threads_then_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    rec = spans.Recorder()
    rec.wrap(module, "inner", "m.inner", count=lambda args, r: {"n": r})
    rec.wrap(module, "outer", "m.outer")

    def work():
        module.inner(5)

    def parent_of_worker():
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return module.outer(1)

    assert rec.call("root", parent_of_worker) == 4
    rec.uninstall()
    assert module.inner is original
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[spans.NAME], []).append(s)
    root = by_name["root"][0]
    outer = by_name["m.outer"][0]
    worker_inner, nested_inner = by_name["m.inner"]
    assert worker_inner[spans.PARENT] == root[spans.SID]
    assert worker_inner[spans.THREAD] != root[spans.THREAD]
    assert nested_inner[spans.PARENT] == outer[spans.SID]
    assert nested_inner[spans.COUNTS] == {"n": 2}


def test_install_covers_every_layer_metric_on_a_small_fit(tmp_path):
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.5, xi=0.5, seed=1))
    path = tmp_path / "x.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")
    rec = spans.Recorder()
    spans.install(rec, rsodc)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = rsodc.cli.main(["fit", str(path), "--no-header", "--k", "3", "--eta1", "2.5",
                                 "--gamma", "0.001", "--v-mode", "exact",
                                 "--out", str(tmp_path / "out")])
    finally:
        rec.uninstall()
    assert rc == 0
    assert rsodc.cli.main.__name__ == "main"
    metrics = spans.layer_metrics(rec.spans)
    assert set(metrics) == set(spans.SELF_TIME) | set(spans.COUNT)
    graph = build_fusion_graph(X, 0.1, 25, 0.01)
    assert metrics["fusion_graph.edges"] == graph.m
    assert metrics["solver.fits"] == 1
    assert metrics["core.thin_svd_calls"] == metrics["admm_scoring.inner_iters"] + 1
    for name in ("fusion_graph.knn_s", "admm_scoring.update_V_s", "group_lasso.solve_B_s",
                 "io.read_s", "io.write_s", "svg.plot_s", "cli.self_s"):
        assert metrics[name] > 0.0, name
    assert metrics["model_selection.gap_kmeans_calls"] == 0
