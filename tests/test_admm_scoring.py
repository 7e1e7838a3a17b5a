from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from rsodc import admm_scoring
from rsodc.admm_scoring import (
    ScoringPoint,
    assemble_D,
    augmented_lagrangian,
    edge_differences,
    inner_admm,
    majorizer_value,
    scoring_point,
    update_Lambda,
    update_V,
    update_Y,
)
from rsodc.core import row_norms, thin_svd
from rsodc.fusion_graph import build_fusion_graph, build_quadratic, edge_gather
from rsodc.group_lasso import group_soft_threshold


def _random_orthonormal_centered(rng, n: int, d: int) -> np.ndarray:
    # centered Gaussian columns, orthonormalized: satisfies both constraints
    A = rng.standard_normal((n, d))
    A -= A.mean(axis=0, keepdims=True)
    L, _, R = thin_svd(A)
    return L @ R.T


def _graph(rng, n: int, delta: int = 3, rho: float = 0.05):
    X = rng.standard_normal((n, 3))
    return X, build_fusion_graph(X, tau=0.2, delta=delta, rho=rho)


def test_a_starting_point_aligns_V_with_edges():
    rng = np.random.default_rng(0)
    X, graph = _graph(rng, 8)
    Y0 = _random_orthonormal_centered(rng, 8, 2)
    point = scoring_point(graph, Y0)
    np.testing.assert_allclose(point.V, edge_differences(Y0, graph))
    np.testing.assert_array_equal(point.Lambda, np.zeros_like(point.V))
    assert point.Y is not Y0
    # its per-edge arrays are formed at its Y and V
    np.testing.assert_array_equal(point.diffs, edge_differences(Y0, graph))
    np.testing.assert_array_equal(point.resid, np.zeros_like(point.V))
    np.testing.assert_array_equal(point.v_norms, row_norms(point.V))


def test_assemble_D_matches_dense_formula_and_zero_column_sums():
    rng = np.random.default_rng(1)
    n, d = 9, 2
    X, graph = _graph(rng, n)
    Y0 = _random_orthonormal_centered(rng, n, d)
    start = scoring_point(graph, Y0)
    point = scoring_point(graph, start.Y, start.V, rng.standard_normal(start.Lambda.shape))
    W = rng.standard_normal((n, d))
    W -= W.mean(axis=0, keepdims=True)
    rho = graph.rho
    D = assemble_D(W, point, graph)

    expect = W.copy()
    for l, (i, j) in enumerate(graph.edges):
        g = np.zeros(n)
        g[i], g[j] = 1.0, -1.0
        expect += np.outer(g, point.Lambda[l] + rho * point.V[l])
    expect += 2.0 * (graph.omega * point.Y - graph.C @ point.Y)
    expect *= 0.5
    np.testing.assert_allclose(D, expect, atol=1e-12)
    # centered W and Y give centered D, which carries the constraint forward
    np.testing.assert_allclose(D.sum(axis=0), 0.0, atol=1e-10)


def test_majorizer_bounds_trace_with_equality_at_Q():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        d = int(rng.integers(1, min(4, n)))
        _, graph = _graph(rng, n, delta=min(3, n - 1))
        Y = _random_orthonormal_centered(rng, n, d)
        Q = _random_orthonormal_centered(rng, n, d)
        lhs = float(np.trace(Y.T @ graph.C @ Y))
        assert lhs <= majorizer_value(Y, Q, graph.C, graph.omega) + 1e-10
        at_q = float(np.trace(Q.T @ graph.C @ Q))
        assert majorizer_value(Q, Q, graph.C, graph.omega) == pytest.approx(
            at_q, abs=1e-10)


def test_update_Y_solves_procrustes():
    rng = np.random.default_rng(3)
    n, d = 10, 3
    X, graph = _graph(rng, n)
    Y0 = _random_orthonormal_centered(rng, n, d)
    D = rng.standard_normal((n, d))
    Y, deficient = update_Y(scoring_point(graph, Y0), D)
    assert not deficient
    # the SVD solution maximizes tr(Y^T D) over orthonormal Y
    best = float(np.sum(Y * D))
    for _ in range(200):
        Z, _ = np.linalg.qr(rng.standard_normal((n, d)))
        assert float(np.sum(Z * D)) <= best + 1e-9
    np.testing.assert_allclose(Y.T @ Y, np.eye(d), atol=1e-10)


def test_update_Y_repairs_rank_deficient_D():
    rng = np.random.default_rng(4)
    n, d = 8, 3
    Y0 = _random_orthonormal_centered(rng, n, d)
    _, graph = _graph(rng, n)
    # rank-1 D with zero column sums
    u = rng.standard_normal(n)
    u -= u.mean()
    D = np.outer(u, np.array([1.0, 2.0, 3.0]))
    with pytest.warns(RuntimeWarning, match="degenerate scoring update"):
        Y, deficient = update_Y(scoring_point(graph, Y0), D)
    assert deficient
    np.testing.assert_allclose(Y.T @ Y, np.eye(d), atol=1e-8)
    np.testing.assert_allclose(Y.sum(axis=0), 0.0, atol=1e-8)


def test_update_V_exact_matches_closed_form_shrinkage():
    rng = np.random.default_rng(5)
    X, graph = _graph(rng, 8)
    Y = _random_orthonormal_centered(rng, 8, 2)
    start = scoring_point(graph, Y)
    point = ScoringPoint(Y, start.V, rng.standard_normal(start.Lambda.shape))
    gamma, rho = 0.02, 0.05
    V, norms = update_V(point, graph, gamma, rho, mode="exact")
    q = edge_differences(Y, graph) - point.Lambda / rho
    psi = gamma * graph.alpha / rho
    for l in range(graph.m):
        norm = np.linalg.norm(q[l])
        expect = np.zeros(2) if norm <= psi[l] else q[l] * (1 - psi[l] / norm)
        np.testing.assert_allclose(V[l], expect, atol=1e-12)
    np.testing.assert_allclose(norms, row_norms(V), rtol=1e-14, atol=1e-300)


def test_update_V_paper_mode_is_one_proximal_gradient_step():
    # step length psi_l on 1/2 ||v - q_l||^2, then group soft threshold at
    # step * penalty = psi_l^2
    rng = np.random.default_rng(9)
    X, graph = _graph(rng, 10, delta=3)
    assert np.ptp(graph.alpha) > 0.1  # unequal weights give per-edge psi
    Y = _random_orthonormal_centered(rng, 10, 2)
    m = graph.m
    point = ScoringPoint(Y, 0.3 * rng.standard_normal((m, 2)),
                         0.01 * rng.standard_normal((m, 2)))
    gamma, rho = 0.04, 0.05
    V, _ = update_V(point, graph, gamma, rho, mode="paper")
    q = edge_differences(Y, graph) - point.Lambda / rho
    psi = gamma * graph.alpha / rho
    assert psi.max() < 1.0
    for l in range(graph.m):
        s = point.V[l] - psi[l] * (point.V[l] - q[l])
        expect = group_soft_threshold(s, psi[l] ** 2)
        np.testing.assert_allclose(V[l], expect, atol=1e-12)


def test_update_V_paper_mode_requires_small_psi():
    rng = np.random.default_rng(6)
    X, graph = _graph(rng, 6, delta=2)
    Y = _random_orthonormal_centered(rng, 6, 2)
    point = scoring_point(graph, Y)
    with pytest.raises(ValueError):
        update_V(point, graph, gamma=1.0, rho=0.5, mode="paper")
    # exact mode accepts the same weights
    update_V(point, graph, gamma=1.0, rho=0.5, mode="exact")


def test_update_Lambda_accumulates_residual():
    rng = np.random.default_rng(7)
    X, graph = _graph(rng, 7)
    Y = _random_orthonormal_centered(rng, 7, 2)
    point = scoring_point(graph, Y)
    resid = rng.standard_normal(point.V.shape) - edge_differences(Y, graph)
    np.testing.assert_allclose(update_Lambda(point, graph, resid), graph.rho * resid,
                               atol=1e-12)


def test_inner_admm_stops_on_small_decrease_and_keeps_constraints():
    rng = np.random.default_rng(8)
    n, d = 12, 2
    X, graph = _graph(rng, n, delta=4, rho=0.05)
    Y0 = _random_orthonormal_centered(rng, n, d)
    W = 0.5 * _random_orthonormal_centered(rng, n, d)
    run = inner_admm(W, scoring_point(graph, Y0), graph, gamma=0.02, epsilon=1e-8)
    assert run.converged
    assert run.iterations == len(run.lagrangian) - 1 >= 1
    diffs = np.diff(run.lagrangian)
    # the stop rule fires at the first step whose decrease is below epsilon,
    # so every earlier step decreased by at least that much
    assert diffs[-1] > -1e-8
    assert np.all(diffs[:-1] <= -1e-8)
    end = run.point
    np.testing.assert_allclose(end.Y.T @ end.Y, np.eye(d), atol=1e-9)
    np.testing.assert_allclose(end.Y.sum(axis=0), 0.0, atol=1e-9)
    # the recorded Lagrangian matches a recomputation at the final point,
    # its per-edge arrays formed anew
    formed = scoring_point(graph, end.Y, end.V, end.Lambda)
    assert run.lagrangian[-1] == pytest.approx(
        augmented_lagrangian(W, formed, graph, 0.02), rel=1e-12)


def _two_calls(rng, n=12, d=2):
    X, graph = _graph(rng, n, delta=4, rho=0.05)
    Y0 = _random_orthonormal_centered(rng, n, d)
    W1 = 0.5 * _random_orthonormal_centered(rng, n, d)
    W2 = 0.5 * _random_orthonormal_centered(rng, n, d)
    return graph, Y0, W1, W2


def _counted_gathers(monkeypatch) -> list:
    gathers = []
    real = admm_scoring.edge_differences
    monkeypatch.setattr(admm_scoring, "edge_differences",
                        lambda Y, g: gathers.append(Y) or real(Y, g))
    return gathers


@pytest.mark.parametrize("v_mode", ["exact", "paper"])
def test_one_inner_iteration_is_the_public_steps_on_the_arrays_each_reads(v_mode):
    graph, Y0, W, _ = _two_calls(np.random.default_rng(14))
    gamma = 0.02
    start = scoring_point(graph, Y0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = inner_admm(W, start, graph, gamma, max_inner=1, v_mode=v_mode)
    assert run.iterations == 1

    Y, _ = update_Y(start, assemble_D(W, start, graph))
    diffs = edge_gather(Y, graph.edges)
    V, v_norms = update_V(start, graph, gamma, graph.rho, mode=v_mode, diffs=diffs)
    resid = V - diffs
    end = ScoringPoint(Y, V, update_Lambda(start, graph, resid), diffs, resid, v_norms)
    assert run.lagrangian == (augmented_lagrangian(W, start, graph, gamma),
                              augmented_lagrangian(W, end, graph, gamma))
    for field in dataclasses.fields(ScoringPoint):
        np.testing.assert_array_equal(getattr(run.point, field.name),
                                      getattr(end, field.name), err_msg=field.name)


def test_a_call_from_the_point_an_earlier_call_ended_at_does_no_gather(monkeypatch):
    graph, Y0, W1, W2 = _two_calls(np.random.default_rng(10))
    gamma = 0.02
    ended = inner_admm(W1, scoring_point(graph, Y0), graph, gamma, epsilon=1e-8).point
    # the same Y, V and Lambda without their per-edge arrays
    bare = ScoringPoint(ended.Y, ended.V, ended.Lambda)

    gathers = _counted_gathers(monkeypatch)
    carried = inner_admm(W2, ended, graph, gamma, epsilon=1e-8)
    assert gathers == []
    formed = inner_admm(W2, bare, graph, gamma, epsilon=1e-8)
    assert len(gathers) == 1
    assert carried.iterations == formed.iterations > 1
    for name in ("Y", "V", "Lambda"):
        np.testing.assert_array_equal(getattr(carried.point, name), getattr(formed.point, name),
                                      err_msg=name)
    np.testing.assert_allclose(carried.lagrangian, formed.lagrangian, rtol=1e-12, atol=0)


def test_a_point_serves_any_gamma_rho_and_Lambda_without_a_gather(monkeypatch):
    graph, Y0, W1, W2 = _two_calls(np.random.default_rng(11))
    ended = inner_admm(W1, scoring_point(graph, Y0), graph, 0.02, epsilon=1e-8).point
    # the per-edge arrays depend on Y, V and the edges alone
    point = dataclasses.replace(ended, Lambda=ended.Lambda + 0.1 * np.random.default_rng(
        12).standard_normal(ended.Lambda.shape))
    # the start of each next call is the Lagrangian there, recomputed in full
    cases = [(0.03, build_quadratic(graph, 0.05)), (0.02, build_quadratic(graph, 0.06))]
    starts = [augmented_lagrangian(
        W2, scoring_point(bound, point.Y, point.V, point.Lambda), bound, gamma)
        for gamma, bound in cases]

    gathers = _counted_gathers(monkeypatch)
    for (gamma, bound), start in zip(cases, starts):
        with pytest.warns(RuntimeWarning, match="did not converge"):
            run = inner_admm(W2, point, bound, gamma, max_inner=0)
        assert run.lagrangian[0] == pytest.approx(start, rel=1e-12)
    assert gathers == []


def test_inner_admm_writes_into_no_point_it_was_handed():
    graph, Y0, W1, W2 = _two_calls(np.random.default_rng(13))
    # a starting point's V is its edge differences, one array in both fields
    start = scoring_point(graph, Y0)
    ended = inner_admm(W1, start, graph, 0.02, epsilon=1e-8).point
    names = [field.name for field in dataclasses.fields(ScoringPoint)]
    before = {(id(point), name): getattr(point, name).copy()
              for point in (start, ended) for name in names}
    run = inner_admm(W2, ended, graph, 0.02, epsilon=1e-8)
    assert run.iterations > 1 and run.point is not ended
    for point in (start, ended):
        for name in names:
            np.testing.assert_array_equal(getattr(point, name), before[id(point), name],
                                          err_msg=name)


def test_a_starting_point_and_an_inner_iteration_keep_the_edge_arrays_F_contiguous():
    graph, Y0, W1, _ = _two_calls(np.random.default_rng(12), d=3)
    start = scoring_point(graph, Y0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = inner_admm(W1, start, graph, 0.02, max_inner=1)
    assert run.iterations == 1
    for point in (start, run.point):
        for name in ("V", "Lambda", "diffs", "resid"):
            assert getattr(point, name).flags.f_contiguous, name
