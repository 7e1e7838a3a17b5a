"""Inner ADMM for the scoring matrix: alternates a majorize-minimize Y step
(reduced to an orthogonal Procrustes solve), a per-edge proximal V step, and
the dual Lambda step, under Y^T Y = I and Y^T 1 = 0. rho is read from the
graph, where it also sets C and omega (build_quadratic binds it); only
update_V, which never touches C, takes it as an argument.

The quadratic fusion coupling tr(Y'^T C Y') is linearized around the current
iterate Y by the bound

    tr(Y'^T C Y') <= 2*omega*d - 2 tr(Y'^T (omega I - C) Y) - tr(Y^T C Y),

valid for column-orthonormal Y' and Y with omega at least the top eigenvalue
of C. Minimizing the surrogate is maximizing tr(Y'^T D) for the assembled D,
solved exactly by the SVD. Since D has zero column sums whenever W and Y do
(each g_l sums to 0 and C annihilates the ones vector), the centering
constraint propagates through the Procrustes solve by induction.

Every edge sum goes through the graph's gather and scatter operators, so an
inner iteration costs O(m d) beyond its SVD. inner_admm alone forms the
per-edge arrays and hands each step the ones it reads: the edge differences
of Y, once per Y update, to the V step and the next assemble_D; the residual
V - (y_i - y_j), once per V update, to the Lambda step and the Lagrangian;
and the row norms of V, which the V step returns, to the Lagrangian.

The (m, d) edge arrays (differences, V, Lambda and every per-edge
temporary) are held in Fortran order, so each coordinate is one contiguous
column: the gather writes columns, and the scatter and core.row_norms read
them as whole vectors. The arithmetic is the same elementwise, so every
iterate has the bits it would have in C order.

Every step returns new arrays and writes into none it was handed; it may
write into arrays it allocated itself, which spares a temporary. The
differences, residual and V norms of a call's last iteration stay with the
state when it returns (ScoringState.carry), and since no later step writes
into them, the next call starts from them instead of a gather and a full
Lagrangian, as long as the state still holds the Y and V they were
computed at and the call runs on the same edges, at any rho.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import RANK_TOL, check_matrix, row_norms, thin_svd
from .fusion_graph import FusionGraph, edge_gather, edge_scatter
from .group_lasso import row_soft_threshold


@dataclass
class Carry:
    """What an inner_admm call leaves for the next: the Y and V it ended
    at, the edge array it ran on, and its per-edge arrays, namely the edge
    differences of Y, the residual V - G^T Y and the row norms of V. None
    of them depends on Lambda, gamma or rho."""

    Y: np.ndarray
    V: np.ndarray
    edges: np.ndarray
    diffs: np.ndarray
    resid: np.ndarray
    v_norms: np.ndarray

    def holds(self, state: "ScoringState", graph: FusionGraph) -> bool:
        """Whether the arrays still describe state on this graph's edges."""
        return self.Y is state.Y and self.V is state.V and self.edges is graph.edges


@dataclass
class ScoringState:
    """Mutable state of the inner loop.

    V and Lambda rows align with the graph's edge order. Y is also the
    expansion point of the next Y step's majorizer.

    A step returns new arrays and writes into none it was handed: it
    replaces Y, V and Lambda, and no later step overwrites the arrays in
    carry. Two things rest on that rule: the solver's iterates hold these
    arrays themselves, without copies, and carry (set by inner_admm, or by
    the caller through carry_at) is valid exactly while Y and V are the
    objects it was computed at. Code that sets Y or V to another array, a
    copy included, thereby makes the next inner_admm call recompute its
    set-up unless it sets carry with carry_at.
    """

    Y: np.ndarray
    V: np.ndarray
    Lambda: np.ndarray
    inner_objective: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    degenerate_updates: int = 0
    carry: Carry | None = field(default=None, repr=False)


def init_state(Y0, graph: FusionGraph) -> ScoringState:
    """Fresh state: V holds the row differences of Y0, Lambda is zero; both
    are (m, d) arrays in Fortran order."""
    Y = check_matrix(Y0, "Y0").copy()
    V = edge_differences(Y, graph)
    Lam = np.zeros(V.shape, order="F")
    return ScoringState(Y=Y, V=V, Lambda=Lam)


def edge_differences(Y: np.ndarray, graph: FusionGraph) -> np.ndarray:
    """Rows y_i - y_j for every edge l = (i, j), an (m, d) array in Fortran order."""
    return edge_gather(Y, graph.edges)


def assemble_D(W, state: ScoringState, graph: FusionGraph, diffs) -> np.ndarray:
    """D = 1/2 (W + sum_l g_l lambda_l^T + rho sum_l g_l v_l^T + 2 (omega I - C) Y).

    The majorizer is expanded at Y = state.Y, and diffs are its edge
    differences. With 2 C Y = rho sum_l g_l (y_i - y_j)^T (rho the graph's),
    all three edge sums are one scatter:
    D = 1/2 (W + 2 omega Y + sum_l g_l (lambda_l + rho v_l - rho (y_i - y_j))^T),
    in O(m d). Nothing is checked here: inner_admm checks its inputs once,
    before its loop.
    """
    T = state.V * graph.rho
    T += state.Lambda
    T -= graph.rho * diffs
    return 0.5 * (W + 2.0 * graph.omega * state.Y + edge_scatter(T, graph.edges, graph.n))


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
    """Set Y to the Procrustes solution L R^T of the SVD of D.

    If D is rank deficient (singular values at or below 1e-12 of the top
    one), the unconstrained directions are filled from the previous Y's
    columns mapped through the deficient right-singular directions,
    re-orthonormalized and kept orthogonal to the ones vector; a diagnostic
    warning is emitted.
    """
    L, sigma, R = thin_svd(D)
    d = R.shape[0]
    rank = int(np.sum(sigma > RANK_TOL * max(sigma[0], np.finfo(float).tiny)))
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
        cand = state.Y @ R[:, rank:]
        E = _complete_orthonormal(Lg, cand, d - rank)
        Y = np.hstack([Lg, E]) @ R.T
    state.Y = Y
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


def _psi(graph: FusionGraph, gamma: float, rho: float, mode: str) -> np.ndarray:
    """The V step's per-edge thresholds gamma * alpha / rho, checked for mode."""
    if mode not in ("paper", "exact"):
        raise ValueError(f"mode must be 'paper' or 'exact', got {mode!r}")
    psi = gamma * graph.alpha / rho
    if mode == "paper" and np.any(psi >= 1.0):
        # step length psi must stay below 1/L = 1 for the one proximal-gradient
        # step to be a descent step on the per-edge objective
        raise ValueError("gamma * alpha / rho must stay below 1 for every edge")
    return psi


def update_V(state: ScoringState, graph: FusionGraph, gamma: float, rho: float,
             mode: str, diffs=None, psi=None) -> np.ndarray:
    """Per-edge V step on 1/2 ||v - q_l||^2 + psi_l ||v||, psi_l = gamma * alpha_l / rho.

    Here q_l = y_i - y_j - lambda_l / rho. mode="paper" takes one
    proximal-gradient step of length psi_l from the incoming v_l: a gradient
    step s = v_l - psi_l (v_l - q_l) on the quadratic, then the group soft
    threshold of s at psi_l * psi_l (step length times penalty weight).
    Because the quadratic's gradient is 1-Lipschitz, a step length psi_l < 1
    makes this a descent step: it never raises the per-edge objective.
    mode="exact" jumps to the closed-form minimizer, the group soft
    threshold of q_l at psi_l. diffs, when given, are the edge differences
    of state.Y; psi, when given, the thresholds _psi checked for mode.
    Returns the row norms of the new V (row_soft_threshold's).
    """
    if psi is None:
        psi = _psi(graph, gamma, rho, mode)
    if diffs is None:
        diffs = edge_differences(state.Y, graph)
    q = state.Lambda / rho
    np.subtract(diffs, q, out=q)
    if mode == "exact":
        state.V, norms = row_soft_threshold(q, psi)
    else:
        s = state.V - psi[:, None] * (state.V - q)
        state.V, norms = row_soft_threshold(s, psi * psi)
    return norms


def update_Lambda(state: ScoringState, graph: FusionGraph, resid) -> ScoringState:
    """lambda_l <- lambda_l + rho (v_l - y_i + y_j), rho the graph's; resid
    is state.V minus the edge differences of state.Y."""
    state.Lambda = state.Lambda + graph.rho * resid
    return state


def augmented_lagrangian(W, state: ScoringState, graph: FusionGraph,
                         gamma: float, resid, v_norms) -> float:
    """Value of the scoring subproblem's augmented Lagrangian.

    1/2 ||Y - W||_F^2 + gamma sum_l alpha_l ||v_l||
    + sum_l lambda_l^T (v_l - y_i + y_j) + rho/2 sum_l ||v_l - y_i + y_j||^2,
    rho the graph's. resid is state.V minus the edge differences of
    state.Y, and v_norms the row norms of state.V. The two residual sums
    are dot products over the flattened arrays.
    """
    diff = state.Y - W
    val = 0.5 * float(np.sum(diff * diff))
    r = resid.ravel(order="F")
    val += gamma * float(graph.alpha @ v_norms)
    val += float(state.Lambda.ravel(order="F") @ r)
    val += 0.5 * graph.rho * float(r @ r)
    return val


def carry_at(state: ScoringState, graph: FusionGraph, diffs=None) -> Carry:
    """The Carry of state.Y and state.V on the graph's edges; diffs, when
    given, are the edge differences of state.Y and are not formed again."""
    if diffs is None:
        diffs = edge_differences(state.Y, graph)
    return Carry(state.Y, state.V, graph.edges, diffs,
                 np.subtract(state.V, diffs, order="F"), row_norms(state.V))


def inner_admm(W, state: ScoringState, graph: FusionGraph, gamma: float,
               epsilon: float = 1e-6, max_inner: int = 1000,
               v_mode: str = "exact") -> ScoringState:
    """Iterate Y, V, Lambda until the Lagrangian decrease falls below epsilon.

    rho is the graph's. The loop keeps going while L(t) - L(t+1) >= epsilon,
    so an increase also stops it; hitting max_inner leaves converged False
    and emits a warning.

    The starting Lagrangian needs the edge differences of Y, the residual
    and the norms of V. When state.carry holds them for this state and the
    graph's edges, at any rho, they are taken from it; otherwise computed.
    Each iteration forms them anew, and the last iteration's stay in
    state.carry for the next call. W, the state and the graph are checked
    once, before the loop.
    """
    W = check_matrix(W, "W")
    if state.Y.shape != W.shape:
        raise ValueError(f"state Y is {state.Y.shape}, expected {W.shape}")
    if graph.rho is None:
        raise ValueError("graph not bound to a rho; call build_quadratic first")
    if state.V.shape[0] != graph.m or state.Lambda.shape[0] != graph.m:
        raise ValueError("V/Lambda rows do not align with the graph edge list")
    psi = _psi(graph, gamma, graph.rho, v_mode)
    carry = state.carry
    if carry is None or not carry.holds(state, graph):
        carry = carry_at(state, graph)
    diffs, resid, v_norms = carry.diffs, carry.resid, carry.v_norms
    L_prev = augmented_lagrangian(W, state, graph, gamma, resid, v_norms)
    state.inner_objective = [L_prev]
    state.converged = False
    state.iterations = 0
    for _ in range(int(max_inner)):
        update_Y(state, assemble_D(W, state, graph, diffs))
        diffs = edge_gather(state.Y, graph.edges)
        v_norms = update_V(state, graph, gamma, graph.rho, mode=v_mode, diffs=diffs, psi=psi)
        resid = state.V - diffs
        update_Lambda(state, graph, resid)
        L_new = augmented_lagrangian(W, state, graph, gamma, resid, v_norms)
        state.inner_objective.append(L_new)
        state.iterations += 1
        if L_prev - L_new < epsilon:
            state.converged = True
            break
        L_prev = L_new
    state.carry = Carry(state.Y, state.V, graph.edges, diffs, resid, v_norms)
    if not state.converged:
        warnings.warn(
            f"scoring ADMM did not converge within {max_inner} iterations",
            RuntimeWarning,
        )
    return state
