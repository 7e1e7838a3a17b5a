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
inner iteration costs O(m d) beyond its SVD. The per-edge arrays are formed
by scoring_point, a point's one constructor, and by inner_admm's loop, which
hands each step the ones it reads: the edge differences of Y, once per Y
update, to the V step and the next assemble_D; the residual
V - (y_i - y_j), once per V update, to the Lambda step and the Lagrangian;
and the row norms of V, which the V step returns, to the Lagrangian.

The (m, d) edge arrays (differences, V, Lambda and every per-edge
temporary) are held in Fortran order, so each coordinate is one contiguous
column: the gather writes columns, and the scatter and core.row_norms read
them as whole vectors. The arithmetic is the same elementwise, so every
iterate has the bits it would have in C order.

Every step returns new arrays and writes into none it was handed; it may
write into arrays it allocated itself, which spares a temporary.
inner_admm runs over ScoringPoints, immutable records of Y, V and Lambda
with the per-edge arrays formed at that Y and V, and maps one to the point
its last iteration ends at. None of those arrays depends on Lambda, gamma
or rho, so a call started from a point an earlier call ended at needs no
gather and no full Lagrangian, at any rho on the same edges.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import RANK_TOL, check_matrix, row_norms, thin_svd
from .fusion_graph import FusionGraph, edge_gather, edge_scatter
from .group_lasso import row_soft_threshold


@dataclass(frozen=True)
class ScoringPoint:
    """A point of the inner loop: Y, and V and Lambda with rows in the
    graph's edge order, with the per-edge arrays formed at this Y and V:
    the edge differences of Y, the residual V - G^T Y and the row norms of
    V, or None where they are not formed (inner_admm then forms them). Y is
    also the expansion point of the next Y step's majorizer. No step writes
    into a point's arrays, so a point may be kept and taken up again."""

    Y: np.ndarray
    V: np.ndarray
    Lambda: np.ndarray
    diffs: np.ndarray | None = None
    resid: np.ndarray | None = None
    v_norms: np.ndarray | None = None


@dataclass(frozen=True)
class ScoringRun:
    """One inner_admm call: the point it ended at, its iterations, whether
    its Lagrangian decrease fell below epsilon, its rank-deficient Y
    updates, and the Lagrangian at its start and after each iteration."""

    point: ScoringPoint
    iterations: int
    converged: bool
    degenerate_updates: int
    lagrangian: tuple


def scoring_point(graph: FusionGraph, Y, V=None, Lambda=None, diffs=None) -> ScoringPoint:
    """The point (Y, V, Lambda) with its per-edge arrays formed on the
    graph's edges; diffs, when given, are the edge differences of Y and are
    not formed again. Without V it is a starting point: a checked copy of
    Y, V its edge differences and Lambda zero, both (m, d) in Fortran order."""
    if V is None:
        Y = check_matrix(Y, "Y").copy()
    if diffs is None:
        diffs = edge_differences(Y, graph)
    if V is None:
        V, Lambda = diffs, np.zeros(diffs.shape, order="F")
    return ScoringPoint(Y, V, Lambda, diffs, np.subtract(V, diffs, order="F"), row_norms(V))


def edge_differences(Y: np.ndarray, graph: FusionGraph) -> np.ndarray:
    """Rows y_i - y_j for every edge l = (i, j), an (m, d) array in Fortran order."""
    return edge_gather(Y, graph.edges)


def assemble_D(W, point: ScoringPoint, graph: FusionGraph) -> np.ndarray:
    """D = 1/2 (W + sum_l g_l lambda_l^T + rho sum_l g_l v_l^T + 2 (omega I - C) Y).

    The majorizer is expanded at Y = point.Y, whose edge differences the
    point holds. With 2 C Y = rho sum_l g_l (y_i - y_j)^T (rho the graph's),
    all three edge sums are one scatter:
    D = 1/2 (W + 2 omega Y + sum_l g_l (lambda_l + rho v_l - rho (y_i - y_j))^T),
    in O(m d). Nothing is checked here: inner_admm checks its inputs once,
    before its loop.
    """
    T = point.V * graph.rho
    T += point.Lambda
    T -= graph.rho * point.diffs
    return 0.5 * (W + 2.0 * graph.omega * point.Y + edge_scatter(T, graph.edges, graph.n))


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


def update_Y(point: ScoringPoint, D) -> tuple[np.ndarray, bool]:
    """The Procrustes solution L R^T of the SVD of D, and whether D was
    rank deficient.

    If it was (singular values at or below 1e-12 of the top one), the
    unconstrained directions are filled from point.Y's columns mapped
    through the deficient right-singular directions, re-orthonormalized and
    kept orthogonal to the ones vector; a diagnostic warning is emitted.
    """
    L, sigma, R = thin_svd(D)
    d = R.shape[0]
    rank = int(np.sum(sigma > RANK_TOL * max(sigma[0], np.finfo(float).tiny)))
    if rank == d:
        return L @ R.T, False
    warnings.warn(
        f"degenerate scoring update: D has rank {rank} < {d}; "
        "filling deficient directions from the previous iterate",
        RuntimeWarning,
    )
    Lg = L[:, :rank]
    E = _complete_orthonormal(Lg, point.Y @ R[:, rank:], d - rank)
    return np.hstack([Lg, E]) @ R.T, True


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


def update_V(point: ScoringPoint, graph: FusionGraph, gamma: float, rho: float,
             mode: str, diffs=None, psi=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge V step on 1/2 ||v - q_l||^2 + psi_l ||v||, psi_l = gamma * alpha_l / rho.

    Here q_l = y_i - y_j - lambda_l / rho, with point's lambda_l.
    mode="paper" takes one proximal-gradient step of length psi_l from
    point's v_l: a gradient step s = v_l - psi_l (v_l - q_l) on the
    quadratic, then the group soft threshold of s at psi_l * psi_l (step
    length times penalty weight). Because the quadratic's gradient is
    1-Lipschitz, a step length psi_l < 1 makes this a descent step: it
    never raises the per-edge objective. mode="exact" jumps to the
    closed-form minimizer, the group soft threshold of q_l at psi_l. diffs
    are the edge differences of the Y the step is taken at, point.Y's
    (formed here) when omitted; psi, when given, the thresholds _psi
    checked for mode. Returns the new V and its row norms
    (row_soft_threshold's).
    """
    if psi is None:
        psi = _psi(graph, gamma, rho, mode)
    if diffs is None:
        diffs = edge_differences(point.Y, graph)
    q = point.Lambda / rho
    np.subtract(diffs, q, out=q)
    if mode == "exact":
        return row_soft_threshold(q, psi)
    return row_soft_threshold(point.V - psi[:, None] * (point.V - q), psi * psi)


def update_Lambda(point: ScoringPoint, graph: FusionGraph, resid) -> np.ndarray:
    """lambda_l + rho (v_l - y_i + y_j) for point's lambda_l, rho the
    graph's; resid is the new V minus the edge differences of the new Y."""
    return point.Lambda + graph.rho * resid


def augmented_lagrangian(W, point: ScoringPoint, graph: FusionGraph, gamma: float) -> float:
    """Value of the scoring subproblem's augmented Lagrangian at point.

    1/2 ||Y - W||_F^2 + gamma sum_l alpha_l ||v_l||
    + sum_l lambda_l^T (v_l - y_i + y_j) + rho/2 sum_l ||v_l - y_i + y_j||^2,
    rho the graph's, read off the point's residual and V norms. The two
    residual sums are dot products over the flattened arrays.
    """
    diff = point.Y - W
    val = 0.5 * float(np.sum(diff * diff))
    r = point.resid.ravel(order="F")
    val += gamma * float(graph.alpha @ point.v_norms)
    val += float(point.Lambda.ravel(order="F") @ r)
    val += 0.5 * graph.rho * float(r @ r)
    return val


def inner_admm(W, point: ScoringPoint, graph: FusionGraph, gamma: float,
               epsilon: float = 1e-6, max_inner: int = 1000,
               v_mode: str = "exact") -> ScoringRun:
    """Iterate Y, V, Lambda from point until the Lagrangian decrease falls below epsilon.

    rho is the graph's. The loop keeps going while L(t) - L(t+1) >= epsilon,
    so an increase also stops it; hitting max_inner leaves converged False
    and emits a warning.

    The starting Lagrangian reads the point's per-edge arrays, formed by
    scoring_point when the point holds none; those of a point an earlier
    call ended at serve at any rho on the same edges. Each iteration forms
    them for the point it ends at. W, the point and the graph are checked
    once, before the loop.
    """
    W = check_matrix(W, "W")
    if point.Y.shape != W.shape:
        raise ValueError(f"point Y is {point.Y.shape}, expected {W.shape}")
    if graph.rho is None:
        raise ValueError("graph not bound to a rho; call build_quadratic first")
    if point.V.shape[0] != graph.m or point.Lambda.shape[0] != graph.m:
        raise ValueError("V/Lambda rows do not align with the graph edge list")
    psi = _psi(graph, gamma, graph.rho, v_mode)
    if point.diffs is None:
        point = scoring_point(graph, point.Y, point.V, point.Lambda)
    lagrangian = [augmented_lagrangian(W, point, graph, gamma)]
    converged, degenerate = False, 0
    for _ in range(int(max_inner)):
        Y, deficient = update_Y(point, assemble_D(W, point, graph))
        degenerate += deficient
        diffs = edge_gather(Y, graph.edges)
        V, v_norms = update_V(point, graph, gamma, graph.rho, mode=v_mode, diffs=diffs, psi=psi)
        resid = V - diffs
        point = ScoringPoint(Y, V, update_Lambda(point, graph, resid), diffs, resid, v_norms)
        lagrangian.append(augmented_lagrangian(W, point, graph, gamma))
        if lagrangian[-2] - lagrangian[-1] < epsilon:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"scoring ADMM did not converge within {max_inner} iterations",
            RuntimeWarning,
        )
    return ScoringRun(point, len(lagrangian) - 1, converged, degenerate, tuple(lagrangian))
