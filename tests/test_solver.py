from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import rsodc.fusion_graph as fusion_graph
import rsodc.solver as solver
from rsodc.admm_scoring import init_state, inner_admm
from rsodc.core import ProblemInstance, center_columns
from rsodc.datagen import SimulationConfig, generate
from rsodc.fusion_graph import build_fusion_graph, build_quadratic, compute_weights
from rsodc.group_lasso import build_stacked, solve_B
from rsodc.solver import (
    fit_rsodc,
    fit_sodc,
    kmeans,
    objective,
    tandem_baseline,
)


def _blobs(rng, k: int = 3, per: int = 10, spread: float = 0.15) -> tuple:
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0], [6.0, 6.0]])[:k]
    X = np.vstack([c + spread * rng.standard_normal((per, 2)) for c in centers])
    truth = np.repeat(np.arange(1, k + 1), per)
    return X, truth


def test_objective_hand_value():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    inst = ProblemInstance(data=X, k=2, eta1=0.5, eta2=0.25, gamma=0.01, rho=0.1, delta=2)
    B = np.array([[1.0], [-2.0]])
    Y = np.array([[0.5], [0.5], [-1.0]])
    graph = build_fusion_graph(X, tau=0.0, delta=2, rho=0.1)
    Xc = center_columns(X)
    fit = 0.5 * np.sum((Y - Xc @ B) ** 2)
    ridge = 0.25 * np.sum(B * B)
    sparsity = 0.5 * (1.0 + 2.0)
    fusion = 0.01 * sum(
        np.linalg.norm(Y[i] - Y[j]) for i, j in graph.edges)
    expect = fit + ridge + sparsity + fusion
    assert objective(inst, B, Y, graph) == pytest.approx(expect, rel=1e-12)


def test_objective_reads_the_graph_the_fit_reads():
    X, _ = generate(SimulationConfig(n=60, p=20, k=3, theta=2.2, xi=0.5, seed=1))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.05, rho=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, seed=0)
    # without a graph, the fusion term sums over the one the fit built
    assert objective(inst, fit.B_hat, fit.Y_hat) == fit.objective_trace[-1]
    for rows in (50, 70):
        graph = compute_weights(np.random.default_rng(rows).standard_normal((rows, 20)))
        with pytest.raises(ValueError, match=f"on {rows} rows"):
            objective(inst, fit.B_hat, fit.Y_hat, graph)


def test_fit_sodc_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    X, truth = _blobs(rng, k=3, per=12)
    inst = ProblemInstance(data=X, k=3, eta1=0.1)
    fit = fit_sodc(inst, seed=1)
    assert fit.method == "sodc"
    assert fit.labels.min() == 1 and fit.labels.max() == 3
    # perfect recovery up to label permutation
    from rsodc.metrics import adjusted_rand_index
    assert adjusted_rand_index(truth, fit.labels) == pytest.approx(1.0)
    tr = fit.objective_trace
    assert np.all(np.diff(tr) <= 1e-8)
    assert fit.status in ("converged", "stalled")


def test_fit_rsodc_trace_is_monotone_and_constraints_hold():
    cfg = SimulationConfig(n=40, p=20, k=3, theta=2.2, xi=0.5, seed=11)
    X, _ = generate(cfg)
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.001, rho=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, seed=2)
    assert np.all(np.diff(fit.objective_trace) <= 1e-8)
    assert fit.diagnostics["max_orth_violation"] <= 1e-8
    assert fit.diagnostics["max_center_violation"] <= 1e-8
    assert fit.outer_iters == len(fit.objective_trace) - 1
    assert len(fit.inner_iterations) == fit.outer_iters
    d = inst.d
    np.testing.assert_allclose(fit.Y_hat.T @ fit.Y_hat, np.eye(d), atol=1e-8)
    # the maxima run over the Y of every scoring step, the one kept included
    assert fit.diagnostics["max_orth_violation"] >= np.abs(
        fit.Y_hat.T @ fit.Y_hat - np.eye(d)).max()
    assert fit.diagnostics["max_center_violation"] >= np.abs(fit.Y_hat.sum(axis=0)).max()
    np.testing.assert_allclose(fit.embedding, center_columns(X) @ fit.B_hat,
                               atol=1e-12)


def test_fit_rsodc_gamma_zero_matches_fit_sodc_exactly(monkeypatch):
    # with no fusion term there is no graph: building one is an error here
    def no_graph(*args, **kwargs):
        raise AssertionError("a gamma = 0 fit built a fusion graph")

    for module in (fusion_graph, solver):
        monkeypatch.setattr(module, "build_fusion_graph", no_graph)
    cfg = SimulationConfig(n=30, p=20, k=3, theta=2.5, xi=0.3, seed=5)
    X, _ = generate(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        a = fit_sodc(ProblemInstance(data=X, k=3, eta1=1.0), seed=4)
        b = fit_rsodc(ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.0), seed=4)
    np.testing.assert_array_equal(a.B_hat, b.B_hat)
    np.testing.assert_array_equal(a.Y_hat, b.Y_hat)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert b.method == "rsodc" and b.diagnostics["edges"] == 0


def test_fit_rsodc_builds_its_graph_from_the_instance_settings():
    X, _ = generate(SimulationConfig(n=30, p=20, k=3, theta=2.5, xi=0.3, seed=5))
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.001, max_outer=3,
                           tau=0.5, delta=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fused = fit_rsodc(inst)
        given = fit_rsodc(inst, build_fusion_graph(X, 0.5, 3, inst.rho))
        plain = fit_sodc(inst)
    assert fused.diagnostics["edges"] == compute_weights(X, 0.5, 3).m
    assert fused.timings["graph"] > 0.0
    np.testing.assert_array_equal(fused.B_hat, given.B_hat)
    assert given.timings["graph"] == 0.0 and plain.timings["graph"] == 0.0


def test_v_mode_exact_also_descends():
    cfg = SimulationConfig(n=30, p=20, k=3, theta=2.2, xi=0.5, seed=9)
    X, _ = generate(cfg)
    inst = ProblemInstance(data=X, k=3, eta1=2.0, gamma=0.003, rho=0.05,
                           v_mode="exact")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, seed=3)
    assert np.all(np.diff(fit.objective_trace) <= 1e-8)


def test_kmeans_exact_on_separated_blobs():
    rng = np.random.default_rng(1)
    X, truth = _blobs(rng, k=4, per=8)
    labels, centroids = kmeans(X, 4, restarts=10, seed=0)
    assert labels.shape == (32,)
    assert set(labels.tolist()) == {1, 2, 3, 4}
    from rsodc.metrics import adjusted_rand_index
    assert adjusted_rand_index(truth, labels) == pytest.approx(1.0)
    # centroids are the cluster means and the inertia matches by hand
    inertia = 0.0
    for c in range(1, 5):
        pts = X[labels == c]
        mean = pts.mean(axis=0)
        row = np.argmin(np.linalg.norm(centroids.M - mean, axis=1))
        np.testing.assert_allclose(centroids.M[row], mean, atol=1e-9)
        inertia += float(np.sum((pts - mean) ** 2))
    assert centroids.inertia == pytest.approx(inertia, rel=1e-10)


def test_kmeans_handles_k_equal_n_and_duplicates():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    labels, centroids = kmeans(X, 4, restarts=5, seed=0)
    assert sorted(set(labels.tolist())) == [1, 2, 3, 4]
    assert centroids.inertia == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ValueError):
        kmeans(X, 5)


def test_kmeans_needs_at_least_one_lloyd_pass():
    # with no pass the labels stay unset and the inertia reads a centre at -1
    P = np.random.default_rng(0).standard_normal((30, 2))
    with pytest.raises(ValueError, match="max_iter"):
        kmeans(P, 3, restarts=2, seed=0, max_iter=0)
    labels, _ = kmeans(P, 3, restarts=2, seed=0, max_iter=1)
    assert set(labels.tolist()) == {1, 2, 3}


@pytest.mark.parametrize("restarts", [0, -4])
def test_kmeans_refuses_fewer_than_one_restart(restarts):
    P = np.random.default_rng(0).standard_normal((30, 2))
    with pytest.raises(ValueError, match="restarts"):
        kmeans(P, 3, restarts=restarts, seed=0)


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 3))
    la, ca = kmeans(X, 4, restarts=6, seed=42)
    lb, cb = kmeans(X, 4, restarts=6, seed=42)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_allclose(ca.M, cb.M)


def test_tandem_baseline_shapes_and_recovery():
    rng = np.random.default_rng(5)
    X, truth = _blobs(rng, k=3, per=10)
    fit = tandem_baseline(X, 3, seed=0)
    assert fit.method == "tandem"
    assert fit.B_hat.shape == (2, 2)
    assert fit.embedding.shape == (30, 2)
    from rsodc.metrics import adjusted_rand_index
    assert adjusted_rand_index(truth, fit.labels) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tandem_baseline(X, 4)  # k - 1 exceeds the data dimension


def test_fit_rsodc_reports_omega_and_edge_count():
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.5, xi=0.5, seed=2))
    graph = build_fusion_graph(X, tau=0.1, delta=5, rho=0.01)
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.001, rho=0.01, max_outer=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_rsodc(inst, graph, seed=0)
        fused_off = fit_rsodc(ProblemInstance(data=X, k=3, eta1=1.0, max_outer=3),
                              graph, seed=0)
    assert fit.diagnostics["omega"] == graph.omega
    assert graph.m > 0
    assert fit.diagnostics["edges"] == graph.m
    # gamma = 0 runs the scoring step on the empty edge set
    assert fused_off.diagnostics["edges"] == 0


def test_fit_binds_its_own_rho_without_mutating_the_graph():
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.5, xi=0.5, seed=2))
    graph = build_fusion_graph(X, tau=0.1, delta=5, rho=0.01)
    before = (graph.rho, graph.omega, graph.edges.copy(), graph.alpha.copy())
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.001, rho=0.1, max_outer=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_rsodc(inst, graph, seed=0)
    assert (graph.rho, graph.omega) == before[:2]
    np.testing.assert_array_equal(graph.edges, before[2])
    np.testing.assert_array_equal(graph.alpha, before[3])
    assert fit.diagnostics["omega"] == build_quadratic(graph, 0.1).omega


def test_fit_rejects_a_graph_on_another_number_of_rows():
    X, _ = generate(SimulationConfig(n=70, p=20, k=3, theta=2.5, xi=0.5, seed=2))
    inst = ProblemInstance(data=X[:60], k=3, eta1=1.0, gamma=0.001, rho=0.01, max_outer=3)
    for rows in (50, 70):
        graph = compute_weights(X[:rows], tau=0.1, delta=5)
        with pytest.raises(ValueError, match=f"graph is on {rows} rows, the data has 60"):
            fit_rsodc(inst, graph, seed=0)


def test_fit_on_a_given_graph_warns_of_a_capped_delta():
    X, _ = generate(SimulationConfig(n=24, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    graph = compute_weights(X, tau=0.1, delta=23)
    for delta, count in ((30, 1), (23, 0)):
        inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.001, delta=delta, max_outer=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_rsodc(inst, graph, seed=0)
        assert sum("capped at n - 1" in str(w.message) for w in caught) == count


# Per-restart k-means as it ran before the restarts were batched: seed one
# restart with k-means++, run its own Lloyd loop, keep the first best.

def _reference_kmeans_pp(P, k, rng):
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = P[idx]
    dist = np.sum((P - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = dist.sum()
        # with no weight left, every point is as likely
        p = dist / total if total > 0.0 else np.full(n, 1.0 / n)
        idx = int(rng.choice(n, p=p))
        centers[c] = P[idx]
        dist = np.minimum(dist, np.sum((P - centers[c]) ** 2, axis=1))
    return centers


def _reference_lloyd(P, centers, max_iter):
    n, k = P.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(max_iter):
        d2 = (np.sum(P * P, axis=1)[:, None] - 2.0 * P @ centers.T
              + np.sum(centers * centers, axis=1)[None, :])
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                # the farthest point whose cluster keeps another member
                donors = [i for i in range(n) if np.sum(new_labels == new_labels[i]) > 1]
                far = max(donors, key=lambda i: (point_d2[i], -i))
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = P[labels == c].mean(axis=0)
    inertia = 0.0
    for c in range(k):
        diff = P[labels == c] - centers[c]
        inertia += float(np.sum(diff * diff))
    return labels, centers, inertia


def _reference_kmeans(P, k, restarts, rng, max_iter=300):
    best_inertia, best = np.inf, None
    for _ in range(max(1, int(restarts))):
        centers = _reference_kmeans_pp(P, k, rng)
        labels, centers, inertia = _reference_lloyd(P, centers.copy(), max_iter)
        if inertia < best_inertia:
            best_inertia, best = inertia, (labels, centers)
    return best[0] + 1, best[1], best_inertia


def _assert_matches_reference(P, k, restarts, seed):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    labels, centroids = kmeans(P, k, restarts=restarts, seed=rng_new)
    ref_labels, ref_centers, ref_inertia = _reference_kmeans(P, k, restarts, rng_ref)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_allclose(centroids.M, ref_centers, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(P)))
    assert centroids.inertia == pytest.approx(ref_inertia, rel=1e-12, abs=1e-300)
    # Lloyd draws nothing, so the seed stream ends where the reference's does
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("restarts", [1, 10, 20])
@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_batched_kmeans_matches_per_restart_reference(d, k, restarts):
    rng = np.random.default_rng([d, k, restarts])
    blobs = rng.standard_normal((4, d)) * 3.0
    P = blobs[rng.integers(4, size=150)] + rng.standard_normal((150, d))
    _assert_matches_reference(P, k, restarts, seed=d * 100 + k * 10 + restarts)


def test_batched_kmeans_matches_reference_through_empty_cluster_repair(monkeypatch):
    repairs = []
    real_repair = solver._repair_empty

    def counted(labels, point_d2, k):
        repairs.append(int(np.sum(np.bincount(labels, minlength=k) == 0)))
        real_repair(labels, point_d2, k)

    monkeypatch.setattr(solver, "_repair_empty", counted)
    rng = np.random.default_rng(5)
    # more clusters than distinct points (three, repeated), and k = n with
    # and without duplicate rows: the repair runs and fills every cluster
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        P = np.repeat(rng.standard_normal((3, 2)), [10, 6, 4], axis=0)
        for seed in range(4):
            _assert_matches_reference(P, 6, 10, seed)
        duplicated = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        for P in (rng.standard_normal((7, 3)), duplicated):
            _assert_matches_reference(P, P.shape[0], 5, seed=1)
    assert repairs and max(repairs) > 0


def test_kmeans_with_more_clusters_than_distinct_points_fills_every_cluster():
    P = np.repeat(np.random.default_rng(5).standard_normal((3, 2)), [10, 6, 4], axis=0)
    # a singleton first so that the farthest-point rule would empty it
    P = np.vstack([[9.0, 9.0], P])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed in range(10):
            labels, centroids = kmeans(P, 6, restarts=10, seed=seed)
            assert np.isfinite(centroids.M).all()
            assert set(labels.tolist()) == set(range(1, 7))
            assert centroids.inertia == pytest.approx(0.0, abs=1e-12)


def test_batched_kmeans_memory_is_one_distance_array():
    n, k, restarts = 4000, 6, 20
    P = np.random.default_rng(3).standard_normal((n, 5))
    tracemalloc.start()
    try:
        kmeans(P, k, restarts=restarts, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * restarts * n * k * 8


@pytest.mark.parametrize("k", range(1, 10))
def test_first_min_matches_argmin_and_its_tie_rule(k):
    rng = np.random.default_rng(k)
    # few distinct values, so most points tie between planes, signed zeros among them
    d2 = rng.choice([0.0, -0.0, 1.0, 2.5], size=(6, k, 40))
    a, n = d2.shape[0], d2.shape[2]
    want, nearest = np.argmin(d2, axis=1), np.min(d2, axis=1)
    got = solver._first_min(d2, np.empty((a, n), dtype=np.intp))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(d2[:, 0], nearest)


@pytest.mark.parametrize("restarts", [1, 10])
def test_batched_kmeans_matches_per_restart_reference_in_eight_dimensions(restarts):
    # d = 8 is where a pairwise sum over the coordinates stops being a
    # sequential one; the reference seeds with the former, kmeans the latter
    d, k = 8, 9
    rng = np.random.default_rng([d, k, restarts])
    blobs = rng.standard_normal((4, d)) * 3.0
    P = blobs[rng.integers(4, size=150)] + rng.standard_normal((150, d))
    _assert_matches_reference(P, k, restarts, seed=d * 100 + k * 10 + restarts)


def _assert_stack_matches_reference(sets, k, restarts, seed):
    """A stacked call equals the per-restart reference run on each set alone."""
    seeds = [seed * 100 + s for s in range(len(sets))]
    rngs_new = [np.random.default_rng(s) for s in seeds]
    labels, centroids = kmeans(np.stack(sets), k, restarts=restarts, seed=rngs_new)
    assert labels.shape == (len(sets), sets[0].shape[0])
    assert centroids.M.shape == (len(sets), k, sets[0].shape[1])
    assert centroids.inertia.shape == (len(sets),)
    for s, P in enumerate(sets):
        rng_ref = np.random.default_rng(seeds[s])
        ref_labels, ref_centers, ref_inertia = _reference_kmeans(P, k, restarts, rng_ref)
        np.testing.assert_array_equal(labels[s], ref_labels)
        np.testing.assert_allclose(centroids.M[s], ref_centers, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(P)))
        assert centroids.inertia[s] == pytest.approx(ref_inertia, rel=1e-12, abs=1e-300)
        assert rngs_new[s].bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_stacked_kmeans_matches_per_set_reference(d, k):
    rng = np.random.default_rng([d, k])
    sets = []
    for spread in (0.1, 0.5, 1.0, 3.0):
        blobs = rng.standard_normal((4, d)) * 3.0
        sets.append(blobs[rng.integers(4, size=80)] + spread * rng.standard_normal((80, d)))
    _assert_stack_matches_reference(sets, k, restarts=7, seed=d * 10 + k)


def test_stacked_kmeans_matches_per_set_reference_in_eight_dimensions():
    d, k = 8, 9
    rng = np.random.default_rng([d, k])
    sets = []
    for spread in (0.1, 0.5, 1.0, 3.0):
        blobs = rng.standard_normal((4, d)) * 3.0
        sets.append(blobs[rng.integers(4, size=80)] + spread * rng.standard_normal((80, d)))
    _assert_stack_matches_reference(sets, k, restarts=7, seed=d * 10 + k)


def test_stacked_kmeans_matches_reference_through_empty_cluster_repair(monkeypatch):
    repairs = []
    real_repair = solver._repair_empty

    def counted(labels, point_d2, k):
        repairs.append(int(np.sum(np.bincount(labels, minlength=k) == 0)))
        real_repair(labels, point_d2, k)

    monkeypatch.setattr(solver, "_repair_empty", counted)
    rng = np.random.default_rng(8)
    spread = rng.standard_normal((20, 2))
    # three distinct points for six clusters: the repair has to fill three
    few = np.repeat(rng.standard_normal((3, 2)), [10, 6, 4], axis=0)
    # one point twenty times: every draw after the first has zero weight
    duplicated = np.repeat(rng.standard_normal((1, 2)), 20, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed in range(3):
            _assert_stack_matches_reference([spread, few, duplicated, spread], 6, 10, seed)
    assert repairs and max(repairs) > 0


@pytest.mark.parametrize("k", [1, 3])
def test_kmeans_seeds_every_restart_in_one_pass(k):
    rng = np.random.default_rng(12)
    spread = [rng.standard_normal((25, 3)) for _ in range(3)]
    duplicated = np.repeat(rng.standard_normal((1, 3)), 25, axis=0)
    restarts = 6

    _assert_stack_matches_reference(spread, k, restarts, seed=2)
    _assert_matches_reference(spread[0], k, restarts, seed=3)

    # a generator already advanced before the call, as a fit passes its own
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    rng_new.random(3), rng_ref.random(3)
    sets = [spread[0], duplicated, spread[1]]
    seeds = [7, rng_new, 8]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        labels, centroids = kmeans(np.stack(sets), k, restarts=restarts, seed=seeds)
    for s, P in enumerate(sets):
        ref_rng = rng_ref if s == 1 else np.random.default_rng(seeds[s])
        ref_labels, ref_centers, ref_inertia = _reference_kmeans(P, k, restarts, ref_rng)
        np.testing.assert_array_equal(labels[s], ref_labels)
        np.testing.assert_array_equal(centroids.M[s], ref_centers)
        assert centroids.inertia[s] == ref_inertia
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("k", [2, 4, 6])
def test_kmeans_reads_the_same_draws_whatever_the_data(k):
    # one integers(n) and one random(k - 1) per restart, also where a
    # restart runs out of weight: fewer distinct points than k
    rng = np.random.default_rng(13)
    continuous = rng.standard_normal((30, 2))
    few = np.repeat(rng.standard_normal((k - 1, 2)), 30 // (k - 1) + 1, axis=0)[:30]
    states = []
    for P in (continuous, few):
        gen = np.random.default_rng(4)
        kmeans(P, k, restarts=5, seed=gen)
        states.append(gen.bit_generator.state)
    assert states[0] == states[1]


def test_stacked_kmeans_validates_its_input():
    sets = np.random.default_rng(0).standard_normal((3, 10, 2))
    with pytest.raises(ValueError):
        kmeans(sets, 2, seed=[0, 1])
    bad = sets.copy()
    bad[1, 4, 0] = np.nan
    with pytest.raises(ValueError):
        kmeans(bad, 2, seed=[0, 1, 2])
    with pytest.raises(ValueError):
        kmeans(sets, 11, seed=[0, 1, 2])
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 3, 4, 5)), 2, seed=[0, 1])


def test_fits_with_fewer_rows_than_columns():
    X, _ = generate(SimulationConfig(n=12, p=20, k=3, theta=2.5, xi=0.5, seed=3))
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.001, rho=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fits = [fit_rsodc(inst, seed=0), fit_sodc(inst, seed=0)]
    for fit in fits:
        assert fit.Y_hat.shape == (12, 2)
        np.testing.assert_allclose(fit.Y_hat.T @ fit.Y_hat, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(fit.Y_hat.sum(axis=0), 0.0, atol=1e-8)


def test_ridge_weight_never_stalls_the_B_step():
    # the B subproblem must carry the loss's eta2 ||B||^2, or its minimiser
    # can raise the loss and end the fit on the rollback guard
    for eta2 in (1.0, 10.0):
        for seed in range(3):
            X, _ = generate(SimulationConfig(n=120, p=20, k=3, theta=3.0, xi=0.5,
                                             seed=seed))
            inst = ProblemInstance(data=X, k=3, eta1=2.5, eta2=eta2, gamma=0.001,
                                   rho=0.01)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit = fit_rsodc(inst, seed=0)
            assert not [w for w in caught if "B step raised" in str(w.message)]
            assert fit.status == "converged"


def test_tandem_baseline_with_fewer_rows_than_columns():
    X, _ = generate(SimulationConfig(n=12, p=20, k=3, theta=2.5, xi=0.5, seed=3))
    fit = tandem_baseline(X, 3, seed=0)
    Xc = X - X.mean(axis=0)
    assert fit.B_hat.shape == (20, 2) and fit.Y_hat.shape == (12, 2)
    np.testing.assert_allclose(fit.B_hat.T @ fit.B_hat, np.eye(2), atol=1e-10)
    # the loadings are the top principal axes: the scores keep the top variances
    top = np.linalg.svd(Xc, compute_uv=False)[:2]
    np.testing.assert_allclose(np.linalg.norm(fit.embedding, axis=0), top, rtol=1e-10)


@pytest.mark.parametrize("gamma, rho, status", [(0.001, 0.01, "converged"),
                                                (0.5, 0.1, "stalled")])
def test_last_trace_entry_is_the_loss_at_the_returned_estimates(gamma, rho, status):
    # the fit evaluates the fusion term once per accepted Y; after a stall the
    # rolled-back Y must come back with its own fusion term
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.2, xi=0.5, seed=0))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=gamma, rho=rho)
    graph = compute_weights(X, inst.tau, inst.delta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_rsodc(inst, graph, seed=0)
    assert fit.status == status
    if status == "stalled":
        assert any("scoring step raised the loss" in str(w.message) for w in caught)
    assert fit.objective_trace[-1] == objective(inst, fit.B_hat, fit.Y_hat, graph)


@pytest.mark.parametrize("gamma", [0.0, 0.003])
def test_fit_reports_the_sweeps_of_each_b_step(gamma, monkeypatch):
    solve_B, returned = solver.solve_B, []

    def counting_solve_B(*args, **kwargs):
        result = solve_B(*args, **kwargs)
        returned.append(result[1])
        return result

    monkeypatch.setattr(solver, "solve_B", counting_solve_B)
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.5, xi=0.5, seed=4))
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=gamma, rho=0.05, max_outer=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, seed=1)
    assert fit.diagnostics["b_sweeps"] == returned
    assert len(returned) == fit.outer_iters and min(returned) >= 1


def test_a_rejected_scoring_step_is_retried_from_the_accepted_iterate():
    # ARI-band draw 29: without retries the first rejected step ends this
    # fit as stalled after 11 outer iterations
    X, _ = generate(SimulationConfig(n=60, p=20, k=3, theta=2.2, xi=0.5, seed=1029))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.05, rho=0.1, v_mode="exact")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, seed=29)
    assert fit.status == "converged"
    assert fit.diagnostics["retries"] >= 1
    assert np.all(np.diff(fit.objective_trace) <= solver.OBJECTIVE_SLACK)
    assert len(fit.inner_iterations) == fit.outer_iters
    # the fusion-free Procrustes step is never retried
    sodc = fit_sodc(inst, seed=29)
    assert sodc.diagnostics["retries"] == 0


def _plain_outer_loop(inst, graph, seed, max_outer):
    """The outer loop with no extrapolation: from the fit's start, one B step
    and one inner ADMM call per step, until the loss falls by less than
    epsilon. Returns the losses and whether that rule stopped the loop."""
    Xc = center_columns(inst.data)
    B = np.random.default_rng(seed).standard_normal((inst.p, inst.d))
    state = init_state(np.linalg.svd(Xc, full_matrices=False)[0][:, :inst.d], graph)
    trace = [objective(inst, B, state.Y, graph)]
    for _ in range(max_outer):
        design = build_stacked(state.Y, Xc, 2.0 * inst.eta2)
        B, _ = solve_B(B, design, inst.eta1, epsilon=inst.epsilon)
        inner_admm(Xc @ B, state, graph, inst.gamma, epsilon=inst.epsilon,
                   max_inner=inst.max_inner, v_mode=inst.v_mode)
        trace.append(objective(inst, B, state.Y, graph))
        if trace[-2] - trace[-1] < inst.epsilon:
            return trace, True
    return trace, False


def test_extrapolation_converges_where_the_plain_loop_crawls():
    # the n=1000 draw of the benchmark's fit ladder: without extrapolation the
    # fit ends max_outer after 100 steps, and the plain loop needs 118
    X, _ = generate(SimulationConfig(n=1000, p=20, k=3, theta=2.2, xi=0.5, seed=1000))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.001, rho=0.01, tau=0.1,
                           delta=25, v_mode="exact")
    graph = build_fusion_graph(X, inst.tau, inst.delta, inst.rho)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, graph, seed=0)
        plain, plain_converged = _plain_outer_loop(inst, graph, 0, max_outer=400)
    assert fit.status == "converged" and fit.outer_iters < inst.max_outer
    assert fit.diagnostics["extrapolations"] > 0
    assert np.all(np.diff(fit.objective_trace) <= solver.OBJECTIVE_SLACK)
    assert fit.objective_trace[-1] == objective(inst, fit.B_hat, fit.Y_hat, graph)
    assert plain_converged and len(plain) - 1 > fit.outer_iters
    assert fit.objective_trace[-1] <= plain[-1]
    # the fusion-free fit extrapolates (B, Y) in the same loop
    assert fit_sodc(inst, seed=0).diagnostics["extrapolations"] > 0


def test_fits_with_the_paper_v_step_make_no_trials():
    X, _ = generate(SimulationConfig(n=60, p=20, k=3, theta=2.2, xi=0.5, seed=1000))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.001, rho=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        exact = fit_rsodc(inst, seed=0)
        paper = fit_rsodc(dataclasses.replace(inst, v_mode="paper"), seed=0)
    assert exact.diagnostics["extrapolations"] > 0
    assert paper.diagnostics["extrapolations"] == 0


def test_the_polar_factor_refuses_an_ill_conditioned_extrapolation():
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((50, 3)))
    # A = Q diag(s) has polar factor Q whatever the positive scales s
    np.testing.assert_allclose(solver._polar_factor(Q * [1.0, 0.3, 0.01]), Q, atol=1e-12)
    # through the Gram, cond(A) = 1e4 would lose orthonormality to about
    # eps 1e8, which the loss check alone would not catch
    assert solver._polar_factor(Q * [1.0, 0.3, 1e-4]) is None


@pytest.mark.parametrize("draw, rho, seed, status, bound", [
    # the scoring step after the kept trial of outer step 5 raises the loss
    # in every retry; stopping there ended the fit stalled after 6 steps at
    # loss 8.154, while taken again from the step's own iterate it succeeds
    (3007, 0.1, 7, "converged", 1.93),
    # taken again, the step fails once more; the fit then stops where the
    # attempt from the trial's point would have (7.883), not at the 8.248
    # of the second attempt
    (3012, 0.01, 12, "stalled", 7.9),
])
def test_a_step_failing_after_a_kept_trial_is_taken_again_without_it(
        draw, rho, seed, status, bound):
    X, _ = generate(SimulationConfig(n=30, p=100, k=3, theta=2.2, xi=0.5, seed=draw))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.5, rho=rho, tau=0.01,
                           v_mode="exact")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_rsodc(inst, seed=seed)
    assert fit.status == status
    assert fit.objective_trace[-1] < bound
    assert fit.diagnostics["extrapolations"] > 0
    assert np.all(np.diff(fit.objective_trace) <= solver.OBJECTIVE_SLACK)
    assert fit.objective_trace[-1] == objective(inst, fit.B_hat, fit.Y_hat)
    # the failed step's work is counted with the step taken again
    assert len(fit.inner_iterations) == len(fit.diagnostics["b_sweeps"]) == fit.outer_iters


def test_b_steps_at_the_sweep_cap_warn_and_are_counted():
    X, _ = generate(SimulationConfig(n=30, p=100, k=3, theta=2.5, xi=0.5, seed=1))
    inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.01, rho=0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_rsodc(inst, seed=0)
    capped = fit.diagnostics["b_sweeps"].count(solver.MAX_SWEEPS)
    assert capped == fit.diagnostics["b_steps_capped"] == 2
    assert sum("B step did not converge" in str(w.message) for w in caught) == capped
    assert fit.status == "converged"


@pytest.mark.parametrize("max_inner, capped", [(1, True), (1000, False)])
def test_inner_admm_calls_that_end_at_max_inner_are_counted(max_inner, capped, monkeypatch):
    inner_admm, converged = solver.inner_admm, []

    def recording_inner_admm(*args, **kwargs):
        state = inner_admm(*args, **kwargs)
        converged.append(state.converged)
        return state

    monkeypatch.setattr(solver, "inner_admm", recording_inner_admm)
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.5, xi=0.5, seed=4))
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.05, rho=0.05, max_inner=max_inner)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_rsodc(inst, seed=1)
    warned = sum("scoring ADMM did not converge" in str(w.message) for w in caught)
    assert fit.diagnostics["inner_capped"] == converged.count(False) == warned
    assert (warned > 0) == capped
    # the fusion-free Procrustes step has no inner loop
    assert fit_sodc(inst, seed=1).diagnostics["inner_capped"] == 0


def test_outcome_counts_sum_statuses_and_diagnostics():
    X, _ = generate(SimulationConfig(n=40, p=20, k=3, theta=2.5, xi=0.5, seed=4))
    inst = ProblemInstance(data=X, k=3, eta1=1.0, gamma=0.05, rho=0.05, max_inner=1,
                           max_outer=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fits = [fit_rsodc(inst, seed=1), fit_sodc(inst, seed=1), tandem_baseline(X, 3)]
    counts = solver.outcome_counts(fits)
    assert list(counts) == list(solver.OUTCOME_COUNTS)
    statuses = [fit.status for fit in fits]
    assert counts["fits_stalled"] == statuses.count("stalled")
    assert counts["fits_max_outer"] == statuses.count("max_outer")
    for key in ("retries", "b_steps_capped", "inner_capped"):
        assert counts[key] == sum(fit.diagnostics.get(key, 0) for fit in fits[:2])
    assert counts["inner_capped"] > 0
    assert solver.summed_outcome_counts([counts, dict(counts, extra=1)]) == {
        key: 2 * value for key, value in counts.items()}
    assert solver.summed_outcome_counts([]) == dict.fromkeys(solver.OUTCOME_COUNTS, 0)
