"""Outer alternating solver and baselines.

fit_rsodc alternates the group-lasso B step with the inner ADMM for the
scoring matrix, tracks the full objective

    1/2 ||Y - Xc B||_F^2 + eta2 ||B||_F^2 + eta1 sum_j ||beta_j||_2
        + gamma sum_l alpha_l ||y_i - y_j||_2,

and post-clusters the embedding Xc @ B_hat with k-means. With gamma = 0
there is no fusion term and no graph: the Y step is a single Procrustes
solve, and fit_rsodc then equals fit_sodc. tandem_baseline is the
comparison method.

The reported loss keeps the 1/2 on the fit term; the B subproblem works with
the same scaling and a ridge weight of 2 eta2, so with Y fixed it is the
reported loss in B and its coordinate sweeps never raise it. ADMM
iterations carry no such guarantee, hence the guarded
acceptance below: a cycle that raises the loss beyond 1e-8 is rolled back and
the fit ends with status "stalled", keeping the trace non-increasing.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .admm_scoring import ScoringState, edge_differences, init_state, inner_admm, update_Y
from .core import ProblemInstance, as_generator, center_columns, check_matrix, thin_svd
from .fusion_graph import (
    DEFAULT_DELTA,
    DEFAULT_TAU,
    FusionGraph,
    build_fusion_graph,
    build_quadratic,
    cap_delta,
)
from .group_lasso import build_stacked, solve_B

OBJECTIVE_SLACK = 1e-8


@dataclass
class FitResult:
    """Outcome of one solver run."""

    B_hat: np.ndarray
    Y_hat: np.ndarray
    embedding: np.ndarray
    labels: np.ndarray
    objective_trace: np.ndarray
    outer_iters: int
    converged: bool
    status: str
    method: str
    timings: dict = field(default_factory=dict)
    inner_iterations: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


@dataclass
class CentroidSet:
    """k-means centroids (k x d) with the within-cluster sum of squares."""

    M: np.ndarray
    inertia: float


def _fusion_term(Y, graph, gamma: float) -> float:
    if gamma == 0.0 or graph is None or graph.m == 0:
        return 0.0
    diffs = edge_differences(Y, graph)
    return gamma * float(graph.alpha @ np.linalg.norm(diffs, axis=1))


def _objective_terms(Xc, B, Y, graph, eta1: float, eta2: float, gamma: float) -> float:
    R = Y - Xc @ B
    val = 0.5 * float(np.sum(R * R))
    val += eta2 * float(np.sum(B * B))
    val += eta1 * float(np.sum(np.linalg.norm(B, axis=1)))
    return val + _fusion_term(Y, graph, gamma)


def objective(instance: ProblemInstance, B, Y, graph=None) -> float:
    """Full loss at (B, Y); the fusion term sums over the graph's edges only."""
    B = check_matrix(B, "B")
    Y = check_matrix(Y, "Y")
    Xc = center_columns(instance.data)
    return _objective_terms(Xc, B, Y, graph, instance.eta1, instance.eta2, instance.gamma)


def _ensure_quadratic(graph: FusionGraph, rho: float) -> FusionGraph:
    if graph.omega is None or graph.rho != rho:
        build_quadratic(graph, rho)
    return graph


def _singular_vectors(Xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left (n x r) and right (p x r) singular vectors of Xc, r = min(n, p).

    thin_svd takes a tall matrix, so data with fewer rows than columns is
    decomposed transposed.
    """
    if Xc.shape[0] >= Xc.shape[1]:
        L, _, R = thin_svd(Xc)
        return L, R
    R, _, L = thin_svd(Xc.T)
    return L, R


def _alternate(instance: ProblemInstance, graph, seed, method: str) -> FitResult:
    """Shared outer loop; method only labels the result.

    With gamma > 0 the Y step is the inner ADMM on graph. With gamma = 0 it
    is one Procrustes solve, and graph is not read (it may be None).
    """
    t_start = time.perf_counter()
    timings = {"b_step": 0.0, "y_step": 0.0}
    rng = as_generator(seed)
    Xc = center_columns(instance.data)
    p, d = instance.p, instance.d

    B = rng.standard_normal((p, d))
    # start from the leading left singular vectors of Xc
    Y0 = _singular_vectors(Xc)[0][:, :d]

    fused = instance.gamma > 0.0
    if fused:
        graph = _ensure_quadratic(graph, instance.rho)
        state = init_state(Y0, graph)
        graph_diagnostics = {"omega": graph.omega, "edges": graph.m}
    else:
        graph_diagnostics = {"edges": 0}
        state = ScoringState(Y=Y0.copy(), V=np.zeros((0, d)), Lambda=np.zeros((0, d)),
                             Q=Y0.copy())

    trace = [_objective_terms(Xc, B, state.Y, graph, instance.eta1, instance.eta2,
                              instance.gamma)]
    gram = Xc.T @ Xc
    inner_iterations: list = []
    converged = False
    status = "max_outer"
    for _ in range(instance.max_outer):
        t0 = time.perf_counter()
        # the loss carries eta2 ||B||^2 and the subproblem (eta2/2) ||B||^2,
        # so the subproblem gets 2 eta2 and the B step minimises the loss in B
        design = build_stacked(state.Y, Xc, 2.0 * instance.eta2, gram=gram)
        B_new, _ = solve_B(B, design, instance.eta1, instance.nu,
                           epsilon=instance.epsilon)
        timings["b_step"] += time.perf_counter() - t0
        obj_b = _objective_terms(Xc, B_new, state.Y, graph, instance.eta1,
                                 instance.eta2, instance.gamma)
        if obj_b > trace[-1] + OBJECTIVE_SLACK:
            status = "stalled"
            warnings.warn("B step raised the loss; stopping", RuntimeWarning)
            break
        B = B_new

        t0 = time.perf_counter()
        W = Xc @ B
        prev = (state.Y.copy(), state.V.copy(), state.Lambda.copy())
        if fused:
            inner_admm(W, state, graph, instance.gamma, instance.rho,
                       epsilon=instance.epsilon, max_inner=instance.max_inner,
                       v_mode=instance.v_mode)
            inner_iterations.append(state.iterations)
        else:
            update_Y(state, W)
            inner_iterations.append(1)
        timings["y_step"] += time.perf_counter() - t0
        obj_y = _objective_terms(Xc, B, state.Y, graph, instance.eta1,
                                 instance.eta2, instance.gamma)
        if obj_y > obj_b + OBJECTIVE_SLACK or obj_y > trace[-1] + OBJECTIVE_SLACK:
            state.Y, state.V, state.Lambda = prev
            state.Q = state.Y.copy()
            trace.append(obj_b)
            status = "stalled"
            warnings.warn("scoring step raised the loss; keeping the previous "
                          "iterate and stopping", RuntimeWarning)
            break
        trace.append(obj_y)
        if trace[-2] - trace[-1] < instance.epsilon:
            converged = True
            status = "converged"
            break
    if status == "max_outer":
        warnings.warn(f"no convergence within max_outer = {instance.max_outer}",
                      RuntimeWarning)

    t0 = time.perf_counter()
    embedding = Xc @ B
    labels, centroids = kmeans(embedding, instance.k, restarts=20, seed=rng)
    timings["kmeans"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    return FitResult(
        B_hat=B,
        Y_hat=state.Y,
        embedding=embedding,
        labels=labels,
        objective_trace=np.asarray(trace),
        outer_iters=len(trace) - 1,
        converged=converged,
        status=status,
        method=method,
        timings=timings,
        inner_iterations=inner_iterations,
        diagnostics={
            "max_orth_violation": state.max_orth_violation,
            "max_center_violation": state.max_center_violation,
            "degenerate_updates": state.degenerate_updates,
            "convergence_count": len(trace) - 1 + sum(inner_iterations),
            "kmeans_inertia": centroids.inertia,
            **graph_diagnostics,
        },
    )


def fit_rsodc(instance: ProblemInstance, graph: FusionGraph = None, seed=0) -> FitResult:
    """Run the full alternating solver and post-cluster the embedding.

    Parameters
    ----------
    instance : ProblemInstance
        Data and weights; v_mode picks the V-step variant.
    graph : FusionGraph, optional
        Fusion graph built on instance.data. Built with default weight
        parameters when omitted (neighbor count capped at n - 1, with a
        warning); with instance.gamma = 0 none is built or read, and the fit
        equals fit_sodc's.
    seed : int, SeedSequence, or Generator
        Drives the B initialization and the k-means restarts.

    Returns
    -------
    FitResult
        Estimates, 1-based labels, the non-increasing objective trace, and
        per-phase timings.
    """
    if graph is None and instance.gamma > 0.0:
        graph = build_fusion_graph(instance.data, DEFAULT_TAU,
                                   cap_delta(DEFAULT_DELTA, instance.n), instance.rho)
    return _alternate(instance, graph, seed, "rsodc")


def fit_sodc(instance: ProblemInstance, seed=0) -> FitResult:
    """Fusion-free variant: the Y step is the Procrustes solution for Xc B.

    Ignores instance.gamma; the objective carries no fusion term.
    """
    return _alternate(dataclasses.replace(instance, gamma=0.0), None, seed, "sodc")


def _kmeans_pp(P: np.ndarray, k: int, rng) -> np.ndarray:
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = P[idx]
    dist = np.sum((P - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = dist.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=dist / total))
        centers[c] = P[idx]
        dist = np.minimum(dist, np.sum((P - centers[c]) ** 2, axis=1))
    return centers


def _repair_empty(labels: np.ndarray, point_d2: np.ndarray, k: int) -> None:
    """Give each empty cluster, in cluster order, the point farthest from its
    centre among the points whose cluster keeps another member; point_d2
    holds each point's squared distance to its centre.

    A moved point is the only member of its new cluster, so no point moves
    twice and no cluster is emptied; with k <= n a donor always exists.
    """
    sizes = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        far = int(np.argmax(np.where(sizes[labels] > 1, point_d2, -np.inf)))
        sizes[labels[far]] -= 1
        sizes[c] = 1
        labels[far] = c


def _cluster_means(PT: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means, a x k x d, for each row of an a x n label array.

    PT is the d x n transposed point set. Cluster c of row i is bin i*k + c;
    np.bincount adds each cluster's points in row order, as
    P[labels == c].mean(axis=0) does for d >= 2.
    """
    a, n = labels.shape
    d = PT.shape[0]
    bins = (labels + (np.arange(a) * k)[:, None]).ravel()
    counts = np.bincount(bins, minlength=a * k)[:, None]
    columns = np.broadcast_to(PT[:, None, :], (d, a, n)).reshape(d, a * n)
    sums = np.stack([np.bincount(bins, col, minlength=a * k) for col in columns], axis=1)
    return (sums / counts).reshape(a, k, d)


def _inertia(P: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    """Within-cluster sum of squares, added up cluster by cluster."""
    total = 0.0
    for c in range(centers.shape[0]):
        diff = P[labels == c] - centers[c]
        total += float(np.sum(diff * diff))
    return total


def kmeans(points, k: int, restarts: int = 20, seed=0, max_iter: int = 300):
    """Lloyd's algorithm with k-means++ seeding and independent restarts.

    All restarts are seeded first, in restart order, then run through one
    Lloyd loop over an R x n x k distance array; a restart leaves the loop
    once its labels stop changing. Empty clusters are repaired by promoting
    the point farthest from its center. Returns 1-based labels and the best
    CentroidSet by inertia (ties go to the first restart).
    """
    P = check_matrix(points, "points")
    n = P.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = as_generator(seed)
    restarts = max(1, int(restarts))
    centers = np.stack([_kmeans_pp(P, k, rng) for _ in range(restarts)])
    labels = np.full((restarts, n), -1)
    P2, PT = 2.0 * P, np.ascontiguousarray(P.T)
    sq = np.sum(P * P, axis=1)[:, None]
    rows = np.arange(n)
    active = np.arange(restarts)
    for _ in range(max_iter):
        if active.size == 0:
            break
        C = centers[active]
        # squared distances via the expansion ||x||^2 - 2 x.c + ||c||^2
        d2 = np.matmul(P2, C.transpose(0, 2, 1))
        np.subtract(sq, d2, out=d2)
        d2 += np.sum(C * C, axis=2)[:, None, :]
        np.maximum(d2, 0.0, out=d2)
        new = np.argmin(d2, axis=2)
        bins = new + (np.arange(active.size) * k)[:, None]
        sizes = np.bincount(bins.ravel(), minlength=active.size * k).reshape(-1, k)
        for i in np.flatnonzero((sizes == 0).any(axis=1)):
            _repair_empty(new[i], d2[i, rows, new[i]], k)
        moved = (new != labels[active]).any(axis=1)
        active, new = active[moved], new[moved]
        labels[active] = new
        centers[active] = _cluster_means(PT, new, k)
    inertia = np.array([_inertia(P, labels[r], centers[r]) for r in range(restarts)])
    best = int(np.argmin(inertia))
    return labels[best] + 1, CentroidSet(M=centers[best], inertia=float(inertia[best]))


def tandem_baseline(X, k: int, seed=0) -> FitResult:
    """Principal components to k - 1 dimensions, then k-means."""
    X = check_matrix(X, "X")
    n, p = X.shape
    d = k - 1
    if not 1 <= d <= min(n, p):
        raise ValueError(f"k - 1 must be in [1, {min(n, p)}], got {d}")
    t_start = time.perf_counter()
    Xc = center_columns(X)
    L, R = _singular_vectors(Xc)
    B = R[:, :d]
    scores = Xc @ B
    labels, centroids = kmeans(scores, k, restarts=20, seed=seed)
    total = time.perf_counter() - t_start
    return FitResult(
        B_hat=B,
        Y_hat=L[:, :d],
        embedding=scores,
        labels=labels,
        objective_trace=np.zeros(0),
        outer_iters=0,
        converged=True,
        status="converged",
        method="tandem",
        timings={"total": total, "kmeans": total},
        inner_iterations=[],
        diagnostics={"kmeans_inertia": centroids.inertia},
    )
