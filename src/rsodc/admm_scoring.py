"""Inner ADMM for the scoring matrix: alternates a majorize-minimize Y step
(reduced to an orthogonal Procrustes solve), a per-edge proximal V step, and
the dual Lambda step, under Y^T Y = I and Y^T 1 = 0.

The quadratic fusion coupling tr(Y^T C Y) is linearized around the previous
iterate Q by the bound

    tr(Y^T C Y) <= 2*omega*d - 2 tr(Y^T (omega I - C) Q) - tr(Q^T C Q),

valid for column-orthonormal Y and Q with omega at least the top eigenvalue
of C. Minimizing the surrogate is maximizing tr(Y^T D) for the assembled D,
solved exactly by the SVD. Since D has zero column sums whenever W and Q do
(each g_l sums to 0 and C annihilates the ones vector), the centering
constraint propagates through the Procrustes solve by induction.

Every edge sum goes through the graph's gather and scatter operators, so an
inner iteration costs O(m d) beyond its SVD. inner_admm forms the edge
differences of Y once per Y update and hands them to the V step and the
next assemble_D (whose Q is that Y), and forms the residual V - (y_i - y_j)
once per V update for the Lambda step and the Lagrangian. The edge list
keeps each endpoint column contiguous for those gathers and scatters, and
every per-edge norm goes through core.row_norms, which adds the d squared
columns as whole vectors: np.linalg.norm(Z, axis=1) reduces each short row
on its own and took 10x longer on the (m, 2) arrays of a k = 3 fit, for
the same bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import RANK_TOL, check_matrix, row_norms, thin_svd
from .fusion_graph import FusionGraph, edge_gather, edge_scatter
from .group_lasso import row_soft_threshold


@dataclass
class ScoringState:
    """Mutable state of the inner loop.

    V and Lambda rows align with the graph's edge order. Q is the expansion
    point of the current majorizer (the previous accepted Y).
    """

    Y: np.ndarray
    V: np.ndarray
    Lambda: np.ndarray
    Q: np.ndarray
    inner_objective: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    primal_residual: float = np.inf
    max_orth_violation: float = 0.0
    max_center_violation: float = 0.0
    degenerate_updates: int = 0


def init_state(Y0, graph: FusionGraph) -> ScoringState:
    """Fresh state: V holds the row differences of Y0, Lambda is zero."""
    Y0 = check_matrix(Y0, "Y0")
    V = edge_differences(Y0, graph)
    Lam = np.zeros_like(V)
    return ScoringState(Y=Y0.copy(), V=V, Lambda=Lam, Q=Y0.copy())


def edge_differences(Y: np.ndarray, graph: FusionGraph) -> np.ndarray:
    """Rows y_i - y_j for every edge l = (i, j), shape (m, d)."""
    return edge_gather(Y, graph.edges)


def assemble_D(W, state: ScoringState, graph: FusionGraph, rho: float,
               diffs=None) -> np.ndarray:
    """D = 1/2 (W + sum_l g_l lambda_l^T + rho sum_l g_l v_l^T + 2 (omega I - C) Q).

    With 2 C Q = rho_C sum_l g_l (q_i - q_j)^T (rho_C the rho the graph is
    bound to), all three edge sums are one scatter:
    D = 1/2 (W + 2 omega Q + sum_l g_l (lambda_l + rho v_l - rho_C (q_i - q_j))^T),
    in O(m d). diffs, when given, are the edge differences of state.Q.
    """
    W = check_matrix(W, "W")
    n, d = W.shape
    if state.Y.shape != (n, d):
        raise ValueError(f"state Y is {state.Y.shape}, expected {(n, d)}")
    if graph.rho is None:
        raise ValueError("graph not bound to a rho; call build_quadratic first")
    if state.V.shape[0] != graph.m or state.Lambda.shape[0] != graph.m:
        raise ValueError("V/Lambda rows do not align with the graph edge list")
    if diffs is None:
        diffs = edge_differences(state.Q, graph)
    T = state.Lambda + rho * state.V - graph.rho * diffs
    return 0.5 * (W + 2.0 * graph.omega * state.Q + edge_scatter(T, graph.edges, n))


def _complete_orthonormal(avoid: np.ndarray, cand: np.ndarray, need: int) -> np.ndarray:
    """Deterministic orthonormal completion.

    Returns `need` unit columns orthogonal to the columns of `avoid` and to
    each other, preferring directions of `cand`, falling back to centered
    standard-basis vectors.
    """
    n = avoid.shape[0]
    ones = np.ones((n, 1)) / np.sqrt(n)
    basis = [avoid, ones]
    out = []

    def try_add(vec) -> bool:
        v = vec.copy()
        for _ in range(2):  # twice-is-enough reorthogonalization
            for Bm in basis:
                v -= Bm @ (Bm.T @ v)
            for u in out:
                v -= u * (u @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out.append(v / norm)
            return True
        return False

    for c in range(cand.shape[1]):
        if len(out) == need:
            break
        try_add(cand[:, c])
    e = np.zeros(n)
    for c in range(n):
        if len(out) == need:
            break
        e[:] = 0.0
        e[c] = 1.0
        try_add(e)
    if len(out) < need:
        raise np.linalg.LinAlgError("cannot complete an orthonormal basis")
    return np.stack(out, axis=1)


def update_Y(state: ScoringState, D) -> ScoringState:
    """Set Y to the Procrustes solution L R^T of the SVD of D, then Q <- Y.

    If D is rank deficient (singular values at or below 1e-12 of the top
    one), the unconstrained directions are filled from Q's columns mapped
    through the deficient right-singular directions, re-orthonormalized and
    kept orthogonal to the ones vector; a diagnostic warning is emitted.
    """
    D = check_matrix(D, "D")
    n, d = D.shape
    L, sigma, R = thin_svd(D)
    smax = sigma[0] if sigma.size else 0.0
    rank = int(np.sum(sigma > RANK_TOL * max(smax, np.finfo(float).tiny)))
    if rank == d:
        Y = L @ R.T
    else:
        warnings.warn(
            f"degenerate scoring update: D has rank {rank} < {d}; "
            "filling deficient directions from the previous iterate",
            RuntimeWarning,
        )
        state.degenerate_updates += 1
        Lg = L[:, :rank]
        cand = state.Q @ R[:, rank:]
        E = _complete_orthonormal(Lg, cand, d - rank)
        Y = np.hstack([Lg, E]) @ R.T
    state.Y = Y
    state.Q = Y.copy()
    orth = float(np.max(np.abs(Y.T @ Y - np.eye(d))))
    cent = float(np.max(np.abs(Y.sum(axis=0))))
    state.max_orth_violation = max(state.max_orth_violation, orth)
    state.max_center_violation = max(state.max_center_violation, cent)
    return state


def majorizer_value(Y, Q, C, omega: float) -> float:
    """Right-hand side of the linearization bound, with the 2*omega*d constant.

    Equals tr(Y^T C Y) exactly at Y = Q; upper-bounds it for any
    column-orthonormal Y, Q when omega >= top eigenvalue of C.
    """
    Y = check_matrix(Y, "Y")
    Q = check_matrix(Q, "Q")
    d = Y.shape[1]
    lin = float(np.sum(Y * (omega * Q - C @ Q)))
    quad = float(np.sum(Q * (C @ Q)))
    return 2.0 * omega * d - 2.0 * lin - quad


def update_V(state: ScoringState, graph: FusionGraph, gamma: float, rho: float,
             mode: str, diffs=None) -> ScoringState:
    """Per-edge V step on 1/2 ||v - q_l||^2 + psi_l ||v||, psi_l = gamma * alpha_l / rho.

    Here q_l = y_i - y_j - lambda_l / rho. mode="paper" takes one
    proximal-gradient step of length psi_l from the incoming v_l: a gradient
    step s = v_l - psi_l (v_l - q_l) on the quadratic, then the group soft
    threshold of s at psi_l * psi_l (step length times penalty weight).
    Because the quadratic's gradient is 1-Lipschitz, a step length psi_l < 1
    makes this a descent step: it never raises the per-edge objective.
    mode="exact" jumps to the closed-form minimizer, the group soft
    threshold of q_l at psi_l. diffs, when given, are the edge differences
    of state.Y.
    """
    if mode not in ("paper", "exact"):
        raise ValueError(f"mode must be 'paper' or 'exact', got {mode!r}")
    psi = gamma * graph.alpha / rho
    if mode == "paper" and np.any(psi >= 1.0):
        # step length psi must stay below 1/L = 1 for the one proximal-gradient
        # step to be a descent step on the per-edge objective
        raise ValueError("gamma * alpha / rho must stay below 1 for every edge")
    if diffs is None:
        diffs = edge_differences(state.Y, graph)
    q = diffs - state.Lambda / rho
    if mode == "exact":
        state.V = row_soft_threshold(q, psi)
    else:
        s = state.V - psi[:, None] * (state.V - q)
        state.V = row_soft_threshold(s, psi * psi)
    return state


def update_Lambda(state: ScoringState, graph: FusionGraph, rho: float,
                  resid=None) -> ScoringState:
    """lambda_l <- lambda_l + rho (v_l - y_i + y_j); records the primal residual.

    resid, when given, is state.V minus the edge differences of state.Y.
    """
    if resid is None:
        resid = state.V - edge_differences(state.Y, graph)
    state.Lambda = state.Lambda + rho * resid
    state.primal_residual = float(np.max(row_norms(resid), initial=0.0))
    return state


def augmented_lagrangian(W, state: ScoringState, graph: FusionGraph,
                         gamma: float, rho: float, resid=None) -> float:
    """Value of the scoring subproblem's augmented Lagrangian.

    1/2 ||Y - W||_F^2 + gamma sum_l alpha_l ||v_l||
    + sum_l lambda_l^T (v_l - y_i + y_j) + rho/2 sum_l ||v_l - y_i + y_j||^2.
    resid, when given, is state.V minus the edge differences of state.Y.
    """
    diff = state.Y - W
    val = 0.5 * float(np.sum(diff * diff))
    if resid is None:
        resid = state.V - edge_differences(state.Y, graph)
    val += gamma * float(graph.alpha @ row_norms(state.V))
    val += float(np.sum(state.Lambda * resid))
    val += 0.5 * rho * float(np.sum(resid * resid))
    return val


def inner_admm(W, state: ScoringState, graph: FusionGraph, gamma: float,
               rho: float, epsilon: float = 1e-6, max_inner: int = 1000,
               v_mode: str = "exact") -> ScoringState:
    """Iterate Y, V, Lambda until the Lagrangian decrease falls below epsilon.

    The loop keeps going while L(t) - L(t+1) >= epsilon, so an increase also
    stops it. Hitting max_inner leaves converged False and emits a warning.
    """
    W = check_matrix(W, "W")
    state.Q = state.Y.copy()
    diffs = edge_differences(state.Y, graph)
    L_prev = augmented_lagrangian(W, state, graph, gamma, rho, resid=state.V - diffs)
    state.inner_objective = [L_prev]
    state.converged = False
    state.iterations = 0
    for _ in range(int(max_inner)):
        D = assemble_D(W, state, graph, rho, diffs=diffs)
        update_Y(state, D)
        diffs = edge_differences(state.Y, graph)
        update_V(state, graph, gamma, rho, mode=v_mode, diffs=diffs)
        resid = state.V - diffs
        update_Lambda(state, graph, rho, resid=resid)
        L_new = augmented_lagrangian(W, state, graph, gamma, rho, resid=resid)
        state.inner_objective.append(L_new)
        state.iterations += 1
        if L_prev - L_new < epsilon:
            state.converged = True
            break
        L_prev = L_new
    if not state.converged:
        warnings.warn(
            f"scoring ADMM did not converge within {max_inner} iterations",
            RuntimeWarning,
        )
    return state
