from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

import rsodc.fusion_graph as fusion_graph
from rsodc.admm_scoring import init_state, inner_admm
from rsodc.core import LANCZOS_STEPS, center_columns, thin_svd
from rsodc.datagen import SimulationConfig, generate
from rsodc.fusion_graph import (
    OMEGA_FLOOR,
    FusionGraph,
    build_fusion_graph,
    build_quadratic,
    compute_weights,
    edge_gather,
    edge_scatter,
    incidence_vector,
    knn_indicator,
)


def _line_points(n: int) -> np.ndarray:
    return np.arange(n, dtype=float)[:, None]


def test_knn_indicator_on_a_line_matches_hand_result():
    # points 0,1,2,3 on a line: each point's single nearest neighbor
    pairs = knn_indicator(_line_points(4), 1)
    expect = np.zeros((4, 4), dtype=bool)
    # 0->1, 1->0 (tie with 2 broken by smaller index), 2->1, 3->2; then union
    for i, j in [(0, 1), (1, 0), (2, 1), (3, 2)]:
        expect[i, j] = True
    expect |= expect.T
    assert pairs.dtype == np.int64
    np.testing.assert_array_equal(pairs, np.argwhere(np.triu(expect)))


def test_knn_indicator_validates_delta():
    X = _line_points(5)
    with pytest.raises(ValueError):
        knn_indicator(X, 0)
    with pytest.raises(ValueError):
        knn_indicator(X, 5)


def test_compute_weights_gaussian_kernel_values():
    X = _line_points(4)
    graph = compute_weights(X, tau=0.5, delta=1)
    assert graph.edges.shape[1] == 2
    assert np.all(graph.edges[:, 0] < graph.edges[:, 1])
    for (i, j), a in zip(graph.edges, graph.alpha):
        d2 = float(np.sum((X[i] - X[j]) ** 2))
        assert a == pytest.approx(np.exp(-0.5 * d2), rel=1e-12)
    # tau = 0 degenerates to the plain indicator
    flat = compute_weights(X, tau=0.0, delta=1)
    np.testing.assert_allclose(flat.alpha, 1.0)


def test_full_neighborhood_gives_all_pairs():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3))
    graph = compute_weights(X, tau=0.1, delta=6)
    assert graph.m == 7 * 6 // 2


def test_incidence_vector_values_and_validation():
    g = incidence_vector((1, 3), 5)
    np.testing.assert_array_equal(g, [0.0, 1.0, 0.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        incidence_vector((2, 2), 5)
    with pytest.raises(ValueError):
        incidence_vector((3, 1), 5)


def test_graph_builders_refuse_a_negative_or_non_finite_tau_or_rho():
    # a NaN or infinite tau gave an edgeless graph, a NaN or infinite rho
    # a NaN or infinite omega
    X = np.random.default_rng(0).standard_normal((30, 4))
    for tau in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            compute_weights(X, tau, 5)
    graph = compute_weights(X, 0.1, 5)
    for rho in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho must be finite and > 0"):
            build_quadratic(graph, rho)


def test_build_quadratic_matches_outer_product_sum():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 2))
    rho = 0.04
    graph = build_fusion_graph(X, tau=0.2, delta=3, rho=rho)
    expect = np.zeros((8, 8))
    for edge in graph.edges:
        g = incidence_vector(tuple(edge), 8)
        expect += np.outer(g, g)
    expect *= rho / 2.0
    np.testing.assert_allclose(graph.C, expect, atol=1e-12)
    top = float(np.linalg.eigvalsh(graph.C)[-1])
    assert graph.omega >= top
    assert graph.omega <= top * (1.0 + 1e-6)
    # omega*I - C must stay PSD for the majorization step
    assert float(np.linalg.eigvalsh(graph.omega * np.eye(8) - graph.C)[0]) >= -1e-12


def test_empty_graph_gets_zero_C_and_floored_omega():
    empty = build_quadratic(FusionGraph(edges=np.zeros((0, 2), dtype=np.int64),
                                        alpha=np.zeros(0), n=5), 0.01)
    np.testing.assert_array_equal(empty.C, np.zeros((5, 5)))
    assert empty.omega == OMEGA_FLOOR


# -- omega: a valid majorization constant ------------------------------------

@pytest.mark.parametrize("n, theta, seed, delta, rho", [
    (256, 2.2, 256, 25, 1.0),    # a start at ones/sqrt(n) collapsed to the floor
    (1024, 2.2, 1024, 25, 1.0),
    (90, 3.0, 5, 10, 0.01),      # a loose stopping rule ended 2e-8 short
])
def test_omega_bounds_the_top_eigenvalue_of_C(n, theta, seed, delta, rho):
    X, _ = generate(SimulationConfig(n=n, p=20, k=3, theta=theta, xi=0.5, seed=seed))
    graph = build_fusion_graph(X, 0.1, delta, rho)
    top = float(np.linalg.eigvalsh(graph.C)[-1])
    assert top <= graph.omega <= top * (1.0 + 1e-6)
    # the same graph bound at other rho values: each omega bounds its own C
    for other in (0.01, 0.05, 1.0, 2.0):
        bound = build_quadratic(graph, other)
        top = float(np.linalg.eigvalsh(bound.C)[-1])
        assert top <= bound.omega <= top * (1.0 + 1e-6)


# -- kNN: the stable-argsort tie rule across row blocks ----------------------

def _dense_knn_reference(X, delta: int) -> np.ndarray:
    # one dense distance matrix and a stable argsort of every row
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    ind = np.zeros((n, n), dtype=bool)
    ind[np.repeat(np.arange(n), delta), order[:, :delta].ravel()] = True
    return ind | ind.T


@pytest.mark.parametrize("delta", [1, 3, 6, 10, 20 * 20 - 1])
def test_knn_indicator_keeps_the_tie_rule_across_row_blocks(delta, monkeypatch):
    # integer grid points: distances are exact and tie in large groups
    side, rows = 20, 256
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    X = grid[np.random.default_rng(4).permutation(side * side)].astype(float)
    assert X.shape[0] > rows
    monkeypatch.setattr(fusion_graph, "KNN_BLOCK_ELEMENTS", rows * X.shape[0])
    np.testing.assert_array_equal(knn_indicator(X, delta),
                                  np.argwhere(np.triu(_dense_knn_reference(X, delta))))


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("delta", [1, 3])
def test_knn_indicator_breaks_a_tie_at_the_cut_across_a_block_boundary(delta, shuffle,
                                                                       monkeypatch):
    # points on a line: each inner point's delta-th and (delta + 1)-th
    # nearest lie at one distance, one on either side, so its row takes the
    # tie path; the two end rows do not. In index order the rows around
    # the block boundary at row 256 tie with neighbors in the other block;
    # shuffled, ties span every pair of blocks.
    rows = 256
    n = rows + 40
    monkeypatch.setattr(fusion_graph, "KNN_BLOCK_ELEMENTS", rows * n)
    X = _line_points(n)
    if shuffle:
        X = X[np.random.default_rng(5).permutation(n)]
    np.testing.assert_array_equal(knn_indicator(X, delta),
                                  np.argwhere(np.triu(_dense_knn_reference(X, delta))))


def test_knn_working_memory_grows_linearly_in_n(monkeypatch):
    # a few 256 x n float blocks at a time; an n x n bool alone would be
    # 144 MB here
    n, rows = 12000, 256
    monkeypatch.setattr(fusion_graph, "KNN_BLOCK_ELEMENTS", rows * n)
    X, _ = generate(SimulationConfig(n=n, p=20, k=3, theta=2.2, xi=0.5, seed=n))
    tracemalloc.start()
    try:
        graph = compute_weights(X, 0.1, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.m >= n * 25 // 2
    assert peak < 6 * 8 * rows * n


# -- the edge operator ---------------------------------------------------------

def test_edge_operator_reproduces_C():
    X, _ = generate(SimulationConfig(n=120, p=20, k=3, theta=2.5, xi=0.5, seed=9))
    rho = 0.3
    graph = build_fusion_graph(X, 0.1, 7, rho)
    Q = np.random.default_rng(5).standard_normal((120, 3))
    C = graph.C
    via_edges = (rho / 2.0) * edge_scatter(edge_gather(Q, graph.edges), graph.edges, 120)
    np.testing.assert_allclose(via_edges, C @ Q, rtol=0, atol=1e-12)
    # the scatter is the sum of g_l t_l^T over edges
    T = np.random.default_rng(6).standard_normal((graph.m, 3))
    expect = sum(np.outer(incidence_vector(tuple(e), 120), t) for e, t in zip(graph.edges, T))
    np.testing.assert_allclose(edge_scatter(T, graph.edges, 120), expect, atol=1e-12)


def test_edge_operator_on_the_empty_graph():
    empty = build_quadratic(FusionGraph(edges=np.zeros((0, 2), dtype=np.int64),
                                        alpha=np.zeros(0), n=4), 0.5)
    Q = np.arange(8.0).reshape(4, 2)
    assert edge_gather(Q, empty.edges).shape == (0, 2)
    np.testing.assert_array_equal(edge_scatter(np.zeros((0, 2)), empty.edges, 4),
                                  np.zeros((4, 2)))


def test_graph_build_and_inner_admm_never_hold_an_n_by_n_float():
    n, d = 5000, 2
    X, _ = generate(SimulationConfig(n=n, p=20, k=3, theta=2.2, xi=0.5, seed=n))
    Xc = center_columns(X)
    L, _, _ = thin_svd(Xc)
    W = Xc @ np.random.default_rng(0).standard_normal((20, d))
    tracemalloc.start()
    try:
        graph = build_fusion_graph(X, 0.1, 25, 0.01)
        state = init_state(L[:, :d], graph)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inner_admm(W, state, graph, gamma=0.001, max_inner=3, v_mode="exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.iterations >= 1
    assert peak < 8 * n * n


def test_graph_keeps_each_endpoint_column_contiguous():
    X, _ = generate(SimulationConfig(n=50, p=20, k=3, theta=2.2, xi=0.5, seed=1))
    graph = compute_weights(X, 0.1, 5)
    assert graph.edges.flags.f_contiguous
    np.testing.assert_array_equal(graph.edges, knn_indicator(X, 5))
    bound = build_quadratic(graph, 0.1)
    assert bound.edges is graph.edges


# -- the working-memory budget of the graph build ------------------------------

def _grid_points(side: int = 20) -> np.ndarray:
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    return grid[np.random.default_rng(4).permutation(side * side)].astype(float)


def _random_draw() -> np.ndarray:
    return np.random.default_rng(21).standard_normal((121, 5))


@pytest.mark.parametrize("data, tau, delta", [(_random_draw, 0.1, 6),
                                              (_grid_points, 0.1, 6),
                                              (_grid_points, 0.05, 13),
                                              # a weight of exp(-100 d2) underflows
                                              # for the farther neighbors
                                              (_grid_points, 100.0, 30)])
def test_graph_build_is_bit_identical_at_any_block_size(data, tau, delta, monkeypatch):
    X = data()
    n, p = X.shape
    assert n % 3 != 0
    pairs, graph = knn_indicator(X, delta), compute_weights(X, tau, delta)
    rows_and_edges = set()
    for elements in (1, 3 * n, 7 * p, 7 * n + 2):
        monkeypatch.setattr(fusion_graph, "KNN_BLOCK_ELEMENTS", elements)
        rows_and_edges.add((max(1, elements // n), max(1, elements // p)))
        np.testing.assert_array_equal(knn_indicator(X, delta), pairs)
        blocked = compute_weights(X, tau, delta)
        np.testing.assert_array_equal(blocked.edges, graph.edges)
        assert blocked.alpha.tobytes() == graph.alpha.tobytes()
        assert blocked.lmax == graph.lmax
    # blocks of 1 and 3 rows (3 does not divide n), of 1 and 7 edges
    rows, edges = zip(*rows_and_edges)
    assert {1, 3} <= set(rows) and {1, 7} <= set(edges)
    if tau == 100.0:
        assert 0 < graph.m < len(pairs)


def test_graph_build_peak_is_the_budget_plus_the_edge_arrays():
    # beyond the O(n delta) edge arrays (neighbor keys, pairs, weights) and
    # the Lanczos basis of lmax, the build holds three block-sized arrays:
    # two distance buffers and their argpartition indices. A build that
    # gathers both endpoints of every edge at once would add 2 m p doubles
    # (39 MB here).
    n, delta = 8000, 25
    X, _ = generate(SimulationConfig(n=n, p=20, k=3, theta=2.2, xi=0.5, seed=n))
    tracemalloc.start()
    try:
        graph = compute_weights(X, 0.1, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.m >= n * delta // 2
    bound = 8 * (3 * fusion_graph.KNN_BLOCK_ELEMENTS + LANCZOS_STEPS * n + 6 * n * delta)
    assert peak < bound
