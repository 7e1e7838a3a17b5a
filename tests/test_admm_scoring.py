from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from rsodc import admm_scoring
from rsodc.admm_scoring import (
    assemble_D,
    augmented_lagrangian,
    edge_differences,
    init_state,
    inner_admm,
    majorizer_value,
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


def test_init_state_aligns_V_with_edges():
    rng = np.random.default_rng(0)
    X, graph = _graph(rng, 8)
    Y0 = _random_orthonormal_centered(rng, 8, 2)
    state = init_state(Y0, graph)
    np.testing.assert_allclose(state.V, edge_differences(Y0, graph))
    np.testing.assert_array_equal(state.Lambda, np.zeros_like(state.V))
    assert state.Y is not Y0


def test_assemble_D_matches_dense_formula_and_zero_column_sums():
    rng = np.random.default_rng(1)
    n, d = 9, 2
    X, graph = _graph(rng, n)
    Y0 = _random_orthonormal_centered(rng, n, d)
    state = init_state(Y0, graph)
    state.Lambda = rng.standard_normal(state.Lambda.shape)
    W = rng.standard_normal((n, d))
    W -= W.mean(axis=0, keepdims=True)
    rho = graph.rho
    D = assemble_D(W, state, graph, edge_differences(state.Y, graph))

    expect = W.copy()
    for l, (i, j) in enumerate(graph.edges):
        g = np.zeros(n)
        g[i], g[j] = 1.0, -1.0
        expect += np.outer(g, state.Lambda[l] + rho * state.V[l])
    expect += 2.0 * (graph.omega * state.Y - graph.C @ state.Y)
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
    state = init_state(Y0, graph)
    D = rng.standard_normal((n, d))
    update_Y(state, D)
    # the SVD solution maximizes tr(Y^T D) over orthonormal Y
    best = float(np.sum(state.Y * D))
    for _ in range(200):
        Z, _ = np.linalg.qr(rng.standard_normal((n, d)))
        assert float(np.sum(Z * D)) <= best + 1e-9
    np.testing.assert_allclose(state.Y.T @ state.Y, np.eye(d), atol=1e-10)


def test_update_Y_repairs_rank_deficient_D():
    rng = np.random.default_rng(4)
    n, d = 8, 3
    Y0 = _random_orthonormal_centered(rng, n, d)
    _, graph = _graph(rng, n)
    state = init_state(Y0, graph)
    # rank-1 D with zero column sums
    u = rng.standard_normal(n)
    u -= u.mean()
    D = np.outer(u, np.array([1.0, 2.0, 3.0]))
    with pytest.warns(RuntimeWarning, match="degenerate scoring update"):
        update_Y(state, D)
    assert state.degenerate_updates == 1
    np.testing.assert_allclose(state.Y.T @ state.Y, np.eye(d), atol=1e-8)
    np.testing.assert_allclose(state.Y.sum(axis=0), 0.0, atol=1e-8)


def test_update_V_exact_matches_closed_form_shrinkage():
    rng = np.random.default_rng(5)
    X, graph = _graph(rng, 8)
    Y = _random_orthonormal_centered(rng, 8, 2)
    state = init_state(Y, graph)
    state.Lambda = rng.standard_normal(state.Lambda.shape)
    gamma, rho = 0.02, 0.05
    update_V(state, graph, gamma, rho, mode="exact")
    q = edge_differences(Y, graph) - state.Lambda / rho
    psi = gamma * graph.alpha / rho
    for l in range(graph.m):
        norm = np.linalg.norm(q[l])
        expect = np.zeros(2) if norm <= psi[l] else q[l] * (1 - psi[l] / norm)
        np.testing.assert_allclose(state.V[l], expect, atol=1e-12)


def test_update_V_paper_mode_is_one_proximal_gradient_step():
    # step length psi_l on 1/2 ||v - q_l||^2, then group soft threshold at
    # step * penalty = psi_l^2
    rng = np.random.default_rng(9)
    X, graph = _graph(rng, 10, delta=3)
    assert np.ptp(graph.alpha) > 0.1  # unequal weights give per-edge psi
    Y = _random_orthonormal_centered(rng, 10, 2)
    state = init_state(Y, graph)
    state.V = 0.3 * rng.standard_normal(state.V.shape)
    state.Lambda = 0.01 * rng.standard_normal(state.Lambda.shape)
    V0 = state.V.copy()
    gamma, rho = 0.04, 0.05
    update_V(state, graph, gamma, rho, mode="paper")
    q = edge_differences(Y, graph) - state.Lambda / rho
    psi = gamma * graph.alpha / rho
    assert psi.max() < 1.0
    for l in range(graph.m):
        s = V0[l] - psi[l] * (V0[l] - q[l])
        expect = group_soft_threshold(s, psi[l] ** 2)
        np.testing.assert_allclose(state.V[l], expect, atol=1e-12)


def test_update_V_paper_mode_requires_small_psi():
    rng = np.random.default_rng(6)
    X, graph = _graph(rng, 6, delta=2)
    Y = _random_orthonormal_centered(rng, 6, 2)
    state = init_state(Y, graph)
    with pytest.raises(ValueError):
        update_V(state, graph, gamma=1.0, rho=0.5, mode="paper")
    # exact mode accepts the same weights
    update_V(init_state(Y, graph), graph, gamma=1.0, rho=0.5, mode="exact")


def test_update_Lambda_accumulates_residual():
    rng = np.random.default_rng(7)
    X, graph = _graph(rng, 7)
    Y = _random_orthonormal_centered(rng, 7, 2)
    state = init_state(Y, graph)
    state.V = rng.standard_normal(state.V.shape)
    resid = state.V - edge_differences(Y, graph)
    update_Lambda(state, graph, resid)
    np.testing.assert_allclose(state.Lambda, graph.rho * resid, atol=1e-12)


def test_inner_admm_stops_on_small_decrease_and_keeps_constraints():
    rng = np.random.default_rng(8)
    n, d = 12, 2
    X, graph = _graph(rng, n, delta=4, rho=0.05)
    Y0 = _random_orthonormal_centered(rng, n, d)
    state = init_state(Y0, graph)
    W = 0.5 * _random_orthonormal_centered(rng, n, d)
    inner_admm(W, state, graph, gamma=0.02, epsilon=1e-8)
    assert state.converged
    assert state.iterations >= 1
    diffs = np.diff(state.inner_objective)
    # the stop rule fires at the first step whose decrease is below epsilon,
    # so every earlier step decreased by at least that much
    assert diffs[-1] > -1e-8
    assert np.all(diffs[:-1] <= -1e-8)
    np.testing.assert_allclose(state.Y.T @ state.Y, np.eye(d), atol=1e-9)
    np.testing.assert_allclose(state.Y.sum(axis=0), 0.0, atol=1e-9)
    # the recorded Lagrangian matches a recomputation at the final state
    resid = state.V - edge_differences(state.Y, graph)
    assert state.inner_objective[-1] == pytest.approx(
        augmented_lagrangian(W, state, graph, 0.02, resid, row_norms(state.V)), rel=1e-12)


def _two_calls(rng, n=12, d=2):
    X, graph = _graph(rng, n, delta=4, rho=0.05)
    Y0 = _random_orthonormal_centered(rng, n, d)
    W1 = 0.5 * _random_orthonormal_centered(rng, n, d)
    W2 = 0.5 * _random_orthonormal_centered(rng, n, d)
    return graph, Y0, W1, W2


@pytest.mark.parametrize("v_mode", ["exact", "paper"])
def test_one_inner_iteration_is_the_public_steps_on_the_arrays_each_reads(v_mode):
    graph, Y0, W, _ = _two_calls(np.random.default_rng(14))
    gamma = 0.02
    state = init_state(Y0, graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        inner_admm(W, state, graph, gamma, max_inner=1, v_mode=v_mode)
    assert state.iterations == 1

    hand = init_state(Y0, graph)
    diffs = edge_differences(hand.Y, graph)
    start = augmented_lagrangian(W, hand, graph, gamma, hand.V - diffs, row_norms(hand.V))
    update_Y(hand, assemble_D(W, hand, graph, diffs))
    diffs = edge_gather(hand.Y, graph.edges)
    v_norms = update_V(hand, graph, gamma, graph.rho, mode=v_mode, diffs=diffs)
    resid = hand.V - diffs
    update_Lambda(hand, graph, resid)
    assert state.inner_objective == [
        start, augmented_lagrangian(W, hand, graph, gamma, resid, v_norms)]
    for name in ("Y", "V", "Lambda"):
        np.testing.assert_array_equal(getattr(state, name), getattr(hand, name), err_msg=name)
    for name, array in (("diffs", diffs), ("resid", resid), ("v_norms", v_norms)):
        np.testing.assert_array_equal(getattr(state.carry, name), array, err_msg=name)


def test_inner_admm_carries_its_set_up_to_the_next_call(monkeypatch):
    graph, Y0, W1, W2 = _two_calls(np.random.default_rng(10))
    gamma = 0.02
    carried, recomputed = init_state(Y0, graph), init_state(Y0, graph)
    for state in (carried, recomputed):
        inner_admm(W1, state, graph, gamma, epsilon=1e-8)
    # copies of the three arrays void the carry
    recomputed.Y = recomputed.Y.copy()
    recomputed.V = recomputed.V.copy()
    recomputed.Lambda = recomputed.Lambda.copy()
    assert carried.carry.holds(carried, graph)
    assert not recomputed.carry.holds(recomputed, graph)
    for name in ("Y", "V"):
        # either of the two replaced voids it
        probe = dataclasses.replace(carried)
        setattr(probe, name, getattr(probe, name).copy())
        assert not probe.carry.holds(probe, graph)

    gathers = []
    real = admm_scoring.edge_differences
    monkeypatch.setattr(admm_scoring, "edge_differences",
                        lambda Y, g: gathers.append(Y) or real(Y, g))
    inner_admm(W2, carried, graph, gamma, epsilon=1e-8)
    assert gathers == []
    inner_admm(W2, recomputed, graph, gamma, epsilon=1e-8)
    assert len(gathers) == 1
    assert carried.iterations == recomputed.iterations > 1
    np.testing.assert_array_equal(carried.Y, recomputed.Y)
    np.testing.assert_array_equal(carried.V, recomputed.V)
    np.testing.assert_array_equal(carried.Lambda, recomputed.Lambda)
    np.testing.assert_allclose(carried.inner_objective, recomputed.inner_objective,
                               rtol=1e-12, atol=0)


def test_inner_admm_carries_its_set_up_across_gamma_rho_and_Lambda(monkeypatch):
    graph, Y0, W1, W2 = _two_calls(np.random.default_rng(11))
    state = init_state(Y0, graph)
    inner_admm(W1, state, graph, 0.02, epsilon=1e-8)
    # the carried arrays depend on Y, V and the edges alone
    state.Lambda = state.Lambda + 0.1 * np.random.default_rng(12).standard_normal(
        state.Lambda.shape)
    assert state.carry.holds(state, graph)
    assert state.carry.holds(state, build_quadratic(graph, 0.06))
    # the start of each next call is the Lagrangian there, recomputed in full
    expect = init_state(Y0, graph)
    expect.Y, expect.V, expect.Lambda = state.Y, state.V, state.Lambda
    cases = [(0.03, build_quadratic(graph, 0.05)), (0.02, build_quadratic(graph, 0.06))]
    resid = state.V - edge_differences(state.Y, graph)
    starts = [augmented_lagrangian(W2, expect, bound, gamma, resid, row_norms(state.V))
              for gamma, bound in cases]

    gathers = []
    real = admm_scoring.edge_differences
    monkeypatch.setattr(admm_scoring, "edge_differences",
                        lambda Y, g: gathers.append(Y) or real(Y, g))
    for (gamma, bound), start in zip(cases, starts):
        probe = dataclasses.replace(state)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            inner_admm(W2, probe, bound, gamma, max_inner=0)
        assert probe.inner_objective[0] == pytest.approx(start, rel=1e-12)
    assert gathers == []


def test_inner_admm_writes_into_no_array_it_was_handed_or_carried():
    graph, Y0, W1, W2 = _two_calls(np.random.default_rng(13))
    state = init_state(Y0, graph)
    inner_admm(W1, state, graph, 0.02, epsilon=1e-8)
    carry = state.carry
    handed = {"Y": state.Y, "V": state.V, "Lambda": state.Lambda,
              "diffs": carry.diffs, "resid": carry.resid, "v_norms": carry.v_norms}
    before = {name: array.copy() for name, array in handed.items()}
    inner_admm(W2, state, graph, 0.02, epsilon=1e-8)
    assert state.iterations > 1 and state.carry is not carry
    for name, array in handed.items():
        np.testing.assert_array_equal(array, before[name], err_msg=name)


def test_init_state_and_an_inner_iteration_keep_V_and_Lambda_F_contiguous():
    graph, Y0, W1, _ = _two_calls(np.random.default_rng(12), d=3)
    state = init_state(Y0, graph)
    assert state.V.flags.f_contiguous and state.Lambda.flags.f_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        inner_admm(W1, state, graph, 0.02, max_inner=1)
    assert state.iterations == 1
    assert state.V.flags.f_contiguous and state.Lambda.flags.f_contiguous
    assert state.carry.diffs.flags.f_contiguous and state.carry.resid.flags.f_contiguous
