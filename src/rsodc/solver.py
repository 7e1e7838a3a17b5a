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
iterations carry no such guarantee, hence the guarded acceptance below.

The loop runs over Iterates, immutable points of B and the scoring ADMM's
(Y, V, Lambda) with their fusion term and loss; the trace holds the loss of
each point it moves to. _outer_step takes the B step and the scoring step
from one. A scoring step that raises the loss beyond 1e-8 is retried from
the same Y, up to SCORING_RETRIES times, and the fit ends "stalled" only
when every retry is rejected, so the trace is non-increasing.

After an accepted step, _trial extrapolates the whole iterate along the move
from the previous step, z + beta (z - z_prev), and keeps the point only if
its exact loss lies below the step's. beta starts at 1, doubles after a kept
trial and returns to 1 after a rejected one; a trial rejected at a doubled
length is followed by a step that makes none. V and Lambda move with Y: with
them left where the ADMM stopped, the next scoring step pulls Y back and the
fit stops early at a higher loss (and B alone would be undone by the next B
step, the exact minimiser of its subproblem). Fused fits with the paper V
step make no trials; diagnostics["extrapolations"] counts the kept trials.

The loop keeps the iterates it may go back to: after a kept trial, the
step's own iterate. When every retry of the next step fails, the fit goes
back one entry and takes the step again from there without a trial after
it; it ends "stalled" only if that fails too, where the lower of the two
failed attempts stopped. The stopping rule, max_outer and the retries are
the same with or without trials.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .admm_scoring import (ScoringPoint, edge_differences, inner_admm, scoring_point,
                           update_Y)
from .core import (RANK_TOL, ProblemInstance, as_generator, center_columns, check_matrix,
                   row_norms, thin_svd)
from .fusion_graph import FusionGraph, build_fusion_graph, build_quadratic, cap_delta
from .group_lasso import MAX_SWEEPS, build_stacked, solve_B

OBJECTIVE_SLACK = 1e-8
# further inner ADMM calls from the accepted Y after one raises the loss
SCORING_RETRIES = 20


@dataclass
class FitResult:
    """Outcome of one solver run."""

    B_hat: np.ndarray
    Y_hat: np.ndarray
    embedding: np.ndarray
    labels: np.ndarray
    objective_trace: np.ndarray
    outer_iters: int
    status: str
    method: str
    timings: dict = field(default_factory=dict)
    inner_iterations: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# the diagnostics a batch output sums over its fits
SUMMED_DIAGNOSTICS = ("retries", "b_steps_capped", "inner_capped")
# the fit-outcome counts of the batch outputs, in their column order
OUTCOME_COUNTS = ("fits_stalled", "fits_max_outer", *SUMMED_DIAGNOSTICS)


def outcome_counts(fits) -> dict:
    """How the fits ended: how many ended "stalled" and how many
    "max_outer", and the sums of their SUMMED_DIAGNOSTICS (0 for a fit
    without them, as the tandem baseline's)."""
    fits = list(fits)
    statuses = [fit.status for fit in fits]
    return {"fits_stalled": statuses.count("stalled"),
            "fits_max_outer": statuses.count("max_outer"),
            **{key: sum(fit.diagnostics.get(key, 0) for fit in fits)
               for key in SUMMED_DIAGNOSTICS}}


def summed_outcome_counts(records: list) -> dict:
    """The outcome_counts entries of the records, summed key by key."""
    return {key: sum(record[key] for record in records) for key in OUTCOME_COUNTS}


@dataclass
class CentroidSet:
    """k-means centroids (k x d) with the within-cluster sum of squares; for
    a stack of S point sets, S x k x d centroids and S sums."""

    M: np.ndarray
    inertia: float | np.ndarray


def _fusion_term(Y, graph, gamma: float, diffs=None) -> float:
    """gamma sum_l alpha_l ||y_i - y_j||; diffs, when given, are Y's edge differences."""
    if gamma == 0.0 or graph is None or graph.m == 0:
        return 0.0
    if diffs is None:
        diffs = edge_differences(Y, graph)
    return gamma * float(graph.alpha @ row_norms(diffs))


def _objective_terms(W, B, Y, fusion: float, instance: ProblemInstance) -> float:
    """The loss at (B, Y), given W = Xc B and the fusion term at Y."""
    R = Y - W
    val = 0.5 * float(np.sum(R * R))
    val += instance.eta2 * float(np.sum(B * B))
    val += instance.eta1 * float(np.sum(np.linalg.norm(B, axis=1)))
    return val + fusion


def _fit_graph(instance: ProblemInstance, graph):
    """The graph a fused fit on instance reads, bound to instance.rho: a copy
    of graph, or one built from tau and delta when graph is None. delta is
    capped at n - 1 either way, warning once; another n raises ValueError."""
    delta = cap_delta(instance.delta, instance.n)
    if graph is None:
        return build_fusion_graph(instance.data, instance.tau, delta, instance.rho)
    if graph.n != instance.n:
        raise ValueError(f"fusion graph is on {graph.n} rows, the data has {instance.n}")
    return build_quadratic(graph, instance.rho)


def objective(instance: ProblemInstance, B, Y, graph=None) -> float:
    """Full loss at (B, Y). With gamma > 0 the fusion term sums over the
    edges of the graph fit_rsodc would read for the same graph argument."""
    B = check_matrix(B, "B")
    Y = check_matrix(Y, "Y")
    Xc = center_columns(instance.data)
    if instance.gamma > 0.0:
        graph = _fit_graph(instance, graph)
    return _objective_terms(Xc @ B, B, Y, _fusion_term(Y, graph, instance.gamma), instance)


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


def _extrapolated(z: np.ndarray, z0: np.ndarray, beta: float) -> np.ndarray:
    """z + beta (z - z0), formed in one new array in z's memory order."""
    out = np.subtract(z, z0)
    out *= beta
    out += z
    return out


def _polar_factor(A: np.ndarray):
    """A (A^T A)^(-1/2), the orthonormal polar factor of A (L R^T for its
    thin SVD A = L S R^T), formed through the d x d Gram; None when A is so
    ill-conditioned that the Gram route, which loses orthonormality to
    about eps cond(A)^2, would not give an orthonormal factor. Its columns
    are combinations of A's, so a centred A gives a centred factor."""
    lam, Q = np.linalg.eigh(A.T @ A)
    # lam holds squared singular values: a ratio of sqrt(RANK_TOL) caps
    # cond(A) at RANK_TOL^(-1/4) = 1e3, so eps cond(A)^2 stays near 1e-10
    if lam[0] <= np.sqrt(RANK_TOL) * lam[-1]:
        return None
    return A @ ((Q / np.sqrt(lam)) @ Q.T)


@dataclass(frozen=True)
class Iterate:
    """A point of the outer loop: B, the scoring point (Y, and the ADMM's V
    and Lambda, no rows without fusion), the fusion term at Y and the loss
    at (B, Y). No step writes into its arrays."""

    B: np.ndarray
    scoring: ScoringPoint
    fusion: float
    loss: float


class _Loop:
    """What one fit's outer steps read, and the counts its FitResult reports."""

    def __init__(self, instance: ProblemInstance, graph, Xc: np.ndarray, timings: dict):
        self.instance, self.graph, self.Xc, self.timings = instance, graph, Xc, timings
        self.fused = instance.gamma > 0.0
        self.gram = Xc.T @ Xc
        self.b_sweeps, self.inner_iterations = [], []
        self.retries = self.inner_capped = self.degenerate_updates = self.extrapolations = 0
        # the largest departures from Y^T Y = I and Y^T 1 = 0 of the Ys visited
        self.orth = self.center = 0.0


def _outer_step(loop: _Loop, it: Iterate, calls: int = 0) -> tuple[Iterate | None, bool]:
    """The B step and the scoring step from it: the next Iterate and True
    when a scoring attempt ends at most OBJECTIVE_SLACK above the lower of
    it.loss and the loss after the B step; if every attempt is rejected,
    the failed attempt's point (B after the B step, it.Y) and False; if the
    B step raises the loss, None and False. calls are the ADMM iterations of
    a failed attempt at this step, which count with it."""
    instance, Xc = loop.instance, loop.Xc
    t0 = time.perf_counter()
    # the loss carries eta2 ||B||^2 and the subproblem (eta2/2) ||B||^2,
    # so the subproblem gets 2 eta2 and the B step minimises the loss in B
    design = build_stacked(it.scoring.Y, Xc, 2.0 * instance.eta2, gram=loop.gram)
    B, sweeps = solve_B(it.B, design, instance.eta1, epsilon=instance.epsilon)
    loop.b_sweeps.append(sweeps)
    W = Xc @ B
    loop.timings["b_step"] += time.perf_counter() - t0
    obj_b = _objective_terms(W, B, it.scoring.Y, it.fusion, instance)
    if obj_b > it.loss + OBJECTIVE_SLACK:
        return None, False

    t0 = time.perf_counter()
    ceiling = min(obj_b, it.loss) + OBJECTIVE_SLACK
    # a rejected ADMM call is retried from the iterate's Y with the V and
    # Lambda it advanced, a point whose per-edge arrays the next call forms;
    # the Procrustes step is deterministic given W, so it runs once
    start = it.scoring
    for attempt in range(SCORING_RETRIES + 1 if loop.fused else 1):
        if attempt:
            loop.retries += 1
            start = ScoringPoint(it.scoring.Y, end.V, end.Lambda)
        if loop.fused:
            run = inner_admm(W, start, loop.graph, instance.gamma, epsilon=instance.epsilon,
                             max_inner=instance.max_inner, v_mode=instance.v_mode)
            end, deficient = run.point, run.degenerate_updates
            calls += run.iterations
            loop.inner_capped += not run.converged
        else:
            Y, deficient = update_Y(start, W)
            end = ScoringPoint(Y, start.V, start.Lambda)
            calls += 1
        loop.degenerate_updates += deficient
        # a fused call ends at a point holding the edge differences of its Y
        fusion = _fusion_term(end.Y, loop.graph, instance.gamma, end.diffs)
        loss = _objective_terms(W, B, end.Y, fusion, instance)
        if not loss > ceiling:
            break
    loop.inner_iterations.append(calls)
    loop.timings["y_step"] += time.perf_counter() - t0
    if loss > ceiling:
        return Iterate(B, it.scoring, it.fusion, obj_b), False
    return Iterate(B, end, fusion, loss), True


def _trial(loop: _Loop, step: Iterate, last: Iterate, beta: float) -> Iterate | None:
    """The point step + beta (step - last) of the whole iterate, Y retracted
    to the polar factor of its extrapolation, if its loss lies below the
    step's; None if it does not, if the extrapolated Y has no polar factor,
    and in fused fits with the paper V step."""
    instance, graph = loop.instance, loop.graph
    if loop.fused and instance.v_mode != "exact":
        # the paper V step leaves each scoring step far from its subproblem's
        # solution, and extrapolating along such steps ends fits stalled
        return None
    z, z0 = step.scoring, last.scoring
    Y = _polar_factor(_extrapolated(z.Y, z0.Y, beta))
    if Y is None:
        return None
    B = _extrapolated(step.B, last.B, beta)
    diffs = edge_differences(Y, graph) if loop.fused else None
    fusion = _fusion_term(Y, graph, instance.gamma, diffs)
    loss = _objective_terms(loop.Xc @ B, B, Y, fusion, instance)
    if not loss < step.loss:
        return None
    loop.extrapolations += 1
    V, Lam = _extrapolated(z.V, z0.V, beta), _extrapolated(z.Lambda, z0.Lambda, beta)
    # the next ADMM call starts from diffs instead of a gather
    scoring = scoring_point(graph, Y, V, Lam, diffs) if loop.fused else ScoringPoint(Y, V, Lam)
    return Iterate(B, scoring, fusion, loss)


def _alternate(instance: ProblemInstance, graph, seed, method: str) -> FitResult:
    """Shared outer loop; method only labels the result.

    With gamma > 0 the Y step is the inner ADMM on _fit_graph's graph,
    bound to instance.rho. With gamma = 0 it is one Procrustes solve, and
    graph is not read.
    """
    t_start = time.perf_counter()
    timings = {"graph": 0.0, "b_step": 0.0, "y_step": 0.0}
    fused = instance.gamma > 0.0
    if fused:
        built = graph is None
        graph = _fit_graph(instance, graph)
        if built:
            timings["graph"] = time.perf_counter() - t_start
    rng = as_generator(seed)
    Xc = center_columns(instance.data)
    d = instance.d
    B = rng.standard_normal((instance.p, d))
    # start from the leading left singular vectors of Xc
    Y0 = _singular_vectors(Xc)[0][:, :d]
    start = (scoring_point(graph, Y0) if fused else
             ScoringPoint(Y0.copy(), np.zeros((0, d)), np.zeros((0, d))))
    # the fusion term changes only with Y: evaluated once per Y, it serves
    # the B step's check and the loss
    fusion = _fusion_term(start.Y, graph, instance.gamma, start.diffs)
    current = Iterate(B, start, fusion,
                      _objective_terms(Xc @ B, B, start.Y, fusion, instance))
    # the iterates alone hold the start point, so its per-edge arrays go with them
    del start
    loop = _Loop(instance, graph, Xc, timings)
    trace = [current.loss]
    status = "max_outer"
    # the trial extrapolates along the move from last, the previous step's
    # iterate before its own trial, to this step's (with beta 0 it makes
    # none); back holds the iterates the loop may go back to
    last, beta, back = current, 1.0, []
    while len(trace) <= instance.max_outer:
        point, accepted = _outer_step(loop, current)
        if point is not None and not accepted and back:
            # every retry failed from the trial's point: go back one entry and
            # take the step again without a trial after it; the failed
            # attempt's ADMM iterations count with it, its B sweeps do not
            failed, current, beta = point, back.pop(), 0.0
            trace[-1] = current.loss
            loop.b_sweeps.pop()
            point, accepted = _outer_step(loop, current, loop.inner_iterations.pop())
            if point is not None and not accepted and failed.loss < point.loss:
                # that failed too: stop where the lower loss was reached
                point = failed
        if point is None:
            status = "stalled"
            warnings.warn("B step raised the loss; stopping", RuntimeWarning)
            break
        if not accepted:
            current, status = point, "stalled"
            trace.append(current.loss)
            warnings.warn("scoring step raised the loss; keeping the previous "
                          "iterate and stopping", RuntimeWarning)
            break
        trial = _trial(loop, point, last, beta) if beta else None
        if trial is None:
            # after a rejection at a doubled length the next step makes no trial
            current = last = point
            back, beta = [], (1.0 if beta <= 1.0 else 0.0)
        else:
            # the trial, tried next at twice the length, takes the step's place;
            # the step is kept without its per-edge arrays (rebinding point
            # frees them), so a step taken again from it forms them anew
            current = trial
            last = point = dataclasses.replace(point, scoring=dataclasses.replace(
                point.scoring, diffs=None, resid=None, v_norms=None))
            back, beta = [last], 2.0 * beta
        trace.append(current.loss)
        Y = current.scoring.Y
        loop.orth = max(loop.orth, float(np.max(np.abs(Y.T @ Y - np.eye(d)))))
        loop.center = max(loop.center, float(np.max(np.abs(Y.sum(axis=0)))))
        if trace[-2] - trace[-1] < instance.epsilon:
            status = "converged"
            break
    if status == "max_outer":
        warnings.warn(f"no convergence within max_outer = {instance.max_outer}",
                      RuntimeWarning)

    t0 = time.perf_counter()
    embedding = Xc @ current.B
    labels, centroids = kmeans(embedding, instance.k, restarts=20, seed=rng)
    timings["kmeans"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    return FitResult(
        B_hat=current.B, Y_hat=current.scoring.Y, embedding=embedding, labels=labels,
        objective_trace=np.asarray(trace), outer_iters=len(trace) - 1, status=status,
        method=method, timings=timings, inner_iterations=loop.inner_iterations,
        diagnostics={
            "max_orth_violation": loop.orth, "max_center_violation": loop.center,
            "degenerate_updates": loop.degenerate_updates,
            "convergence_count": len(trace) - 1 + sum(loop.inner_iterations),
            "b_sweeps": loop.b_sweeps, "b_steps_capped": loop.b_sweeps.count(MAX_SWEEPS),
            "retries": loop.retries, "extrapolations": loop.extrapolations,
            "inner_capped": loop.inner_capped, "kmeans_inertia": centroids.inertia,
            **({"omega": graph.omega, "edges": graph.m} if fused else {"edges": 0}),
        },
    )


def fit_rsodc(instance: ProblemInstance, graph: FusionGraph = None, seed=0) -> FitResult:
    """Run the full alternating solver and post-cluster the embedding.

    Parameters
    ----------
    instance : ProblemInstance
        Data and weights; v_mode picks the V-step variant.
    graph : FusionGraph, optional
        Fusion graph on instance.data, built for any rho (the fit binds its
        own to a copy); a graph on another number of rows raises
        ValueError. Built from instance.tau and instance.delta when omitted
        and timed as timings["graph"], 0.0 when a graph is given. A delta
        above n - 1 warns either way (the built graph caps it at n - 1).
        With instance.gamma = 0 none is built or read, and the fit equals
        fit_sodc's.
    seed : int, SeedSequence, or Generator
        Drives the B initialization and the k-means restarts.

    Returns
    -------
    FitResult
        Estimates, 1-based labels, the non-increasing objective trace, and
        per-phase timings.
    """
    return _alternate(instance, graph, seed, "rsodc")


def fit_sodc(instance: ProblemInstance, seed=0) -> FitResult:
    """Fusion-free variant: the Y step is the Procrustes solution for Xc B.

    Ignores instance.gamma; the objective carries no fusion term.
    """
    return _alternate(dataclasses.replace(instance, gamma=0.0), None, seed, "sodc")


def _seed_restarts(P: np.ndarray, k: int, restarts: int, rngs) -> np.ndarray:
    """k-means++ centres for every restart of every set, (S R) x k x d.

    Each restart's draws are taken up front, in restart order, as one
    integers(n) and one random(k - 1) call, whatever the data. Then every
    restart seeds at once: each later centre is the index its uniform draw
    picks from the cdf of the squared distances to the nearest chosen
    centre, the search Generator.choice makes with those weights. A restart
    with no weight left (a set with fewer distinct points than k) picks its
    remaining centres with uniform weights from the same draws.
    """
    S, n, d = P.shape
    first = np.empty((S, restarts), dtype=np.intp)
    u = np.empty((S, restarts, k - 1))
    for s, rng in enumerate(rngs):
        for r in range(restarts):
            first[s, r] = rng.integers(n)
            u[s, r] = rng.random(k - 1)
    u = u.reshape(S * restarts, k - 1)
    sets = np.arange(S)[:, None]
    # coordinate j of every set, contiguous, broadcast over the restarts
    PT = np.ascontiguousarray(P.transpose(2, 0, 1))[:, :, None]
    diff = np.empty((S, restarts, n))

    def sq_dist(idx, out):
        # squared distance from every point to each restart's new centre,
        # added one coordinate at a time over contiguous S x R x n planes
        C = P[sets, idx][:, :, :, None]
        out.fill(0.0)
        for j in range(d):
            np.subtract(PT[j], C[:, :, j], out=diff)
            np.square(diff, out=diff)
            out += diff
        return out.reshape(S * restarts, n)

    centers = np.empty((S, restarts, k, d))
    centers[:, :, 0] = P[sets, first]
    dist = sq_dist(first, np.empty((S, restarts, n)))
    # each draw's cdf, then the new centre's distances
    nearer = np.empty((S, restarts, n))
    for c in range(1, k):
        total = dist.sum(axis=1)
        empty = total <= 0.0
        # uniform weights for the draw, then the true distances, all zero
        dist[empty], total[empty] = 1.0, n
        cdf = np.divide(dist, total[:, None], out=nearer.reshape(S * restarts, n))
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        idx = np.count_nonzero(cdf <= u[:, c - 1, None], axis=1).reshape(S, restarts)
        centers[:, :, c] = P[sets, idx]
        dist[empty] = 0.0
        np.minimum(dist, sq_dist(idx, nearer), out=dist)
    return centers.reshape(S * restarts, k, d)


def _first_min(d2: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """np.argmin(d2, axis=1) for an a x k x n array; plane 0 of d2 is left
    holding each point's smallest distance.

    A running minimum over the k contiguous planes: plane c takes a point
    only where it is strictly closer, so ties go to the lowest index, as
    with argmin. Planes come in increasing order, so a taken point's label
    rises to c as the larger of its label and c times the taken mask, with
    no branch per point. taken is a x n integer scratch.
    """
    best = d2[:, 0]
    labels = np.zeros(taken.shape, dtype=np.intp)
    for c in range(1, d2.shape[1]):
        plane = d2[:, c]
        np.less(plane, best, out=taken)
        np.minimum(best, plane, out=best)
        taken *= c
        np.maximum(labels, taken, out=labels)
    return labels


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


def _cluster_means(PT: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-cluster means, a x k x d, for each row of an a x n label array
    whose cluster sizes are the a x k sizes.

    PT stacks the transposed point sets, d x a x n, row i's set at PT[:, i];
    a single set, d x 1 x n, serves every row. Cluster c of row i is bin
    i*k + c; np.bincount adds each cluster's points in row order, as
    P[labels == c].mean(axis=0) does for d >= 2.
    """
    (a, n), k = labels.shape, sizes.shape[1]
    d = PT.shape[0]
    bins = (labels + (np.arange(a) * k)[:, None]).ravel()
    counts = sizes.reshape(a * k, 1)
    columns = np.broadcast_to(PT, (d, a, n)).reshape(d, a * n)
    sums = np.stack([np.bincount(bins, col, minlength=a * k) for col in columns], axis=1)
    return (sums / counts).reshape(a, k, d)


def _stack(points, seed) -> tuple[np.ndarray, list, bool]:
    """Points as an S x n x d stack, one seed per set, and whether the
    input was a single n x d set."""
    P = np.asarray(points, dtype=float)
    if P.ndim == 2:
        return check_matrix(P, "points")[None], [seed], True
    if P.ndim != 3 or 0 in P.shape or not np.isfinite(P).all():
        raise ValueError(f"points must be an n x d matrix or a finite, non-empty "
                         f"S x n x d stack, got shape {P.shape}")
    seeds = list(seed)
    if len(seeds) != P.shape[0]:
        raise ValueError(f"a stack of {P.shape[0]} point sets needs as many seeds, "
                         f"got {len(seeds)}")
    return P, seeds, False


def kmeans(points, k: int, restarts: int = 20, seed=0, max_iter: int = 300):
    """Lloyd's algorithm with k-means++ seeding and independent restarts.

    points is one n x d set with one seed, or a stack of S sets, S x n x d,
    with a sequence of S seeds. Each set takes its restarts' k-means++
    draws from its own generator, in restart order, one integers(n) and one
    random(k - 1) call per restart, and every restart of every set is
    seeded in one vectorised pass (_seed_restarts). The seeds may all be
    one Generator: the sets then draw from it in set order, as S calls on
    one set each with that Generator would. Then every restart of
    every set runs through one Lloyd loop over an (S R) x k x n distance
    array, each on its own set's points, and leaves the loop once its
    labels stop changing or after max_iter (at least 1) passes. Empty
    clusters are repaired by promoting the point farthest from its center.
    Each set keeps its best restart by inertia, ties going to the first.
    Returns 1-based labels and a CentroidSet: n labels, k x d centres and
    one inertia for one set; S x n labels, S x k x d centres and S
    inertias for a stack.
    """
    P, seeds, single = _stack(points, seed)
    S, n, _ = P.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    centers = _seed_restarts(P, k, restarts, [as_generator(seed) for seed in seeds])
    owner = np.repeat(np.arange(S), restarts)

    def sets_of(r):
        # one set's points broadcast over its restarts; a stack gathers
        # each restart's own set
        return owner[r] if S > 1 else slice(None)

    A = S * restarts
    labels = np.full((A, n), -1)
    PT = np.ascontiguousarray(P.transpose(2, 0, 1))
    # point-major: each restart's distances are k contiguous planes of n
    P2T = 2.0 * np.ascontiguousarray(P.transpose(0, 2, 1))
    sq = np.sum(P * P, axis=2)[:, None, :]
    # _first_min's scratch, then the bins; an iteration uses the first a rows
    taken = np.empty((A, n), dtype=np.intp)
    active = np.arange(A)
    for _ in range(max_iter):
        if active.size == 0:
            break
        own, a = sets_of(active), active.size
        C = centers[active]
        # squared distances via the expansion ||x||^2 - 2 x.c + ||c||^2
        d2 = np.matmul(C, P2T[own])
        np.subtract(sq[own], d2, out=d2)
        d2 += np.sum(C * C, axis=2)[:, :, None]
        np.maximum(d2, 0.0, out=d2)
        new = _first_min(d2, taken[:a])
        bins = np.add(new, (np.arange(a) * k)[:, None], out=taken[:a])
        sizes = np.bincount(bins.ravel(), minlength=a * k).reshape(-1, k)
        for i in np.flatnonzero((sizes == 0).any(axis=1)):
            _repair_empty(new[i], d2[i, 0], k)
            sizes[i] = np.bincount(new[i], minlength=k)
        moved = (new != labels[active]).any(axis=1)
        active, new = active[moved], new[moved]
        labels[active] = new
        centers[active] = _cluster_means(PT[:, sets_of(active)], new, sizes[moved])
    # every restart's within-cluster sum of squares, in one pass
    diff = np.take_along_axis(centers, labels[:, :, None], axis=1)
    diff -= P[sets_of(slice(None))]
    np.square(diff, out=diff)
    inertias = diff.sum(axis=(1, 2)).reshape(S, restarts)
    best = np.arange(S) * restarts + np.argmin(inertias, axis=1)
    inertia = inertias.min(axis=1)
    labels, M = labels[best] + 1, centers[best]
    if single:
        return labels[0], CentroidSet(M=M[0], inertia=float(inertia[0]))
    return labels, CentroidSet(M=M, inertia=inertia)


def tandem_baseline(X, k: int, seed=0) -> FitResult:
    """Principal components to k - 1 dimensions, then k-means."""
    X = check_matrix(X, "X")
    n, p = X.shape
    d = k - 1
    if not 1 <= d <= min(n - 1, p):
        raise ValueError(f"k - 1 must be in [1, min(n - 1, p) = {min(n - 1, p)}] "
                         f"(n >= k rows are needed), got {d}")
    t_start = time.perf_counter()
    Xc = center_columns(X)
    L, R = _singular_vectors(Xc)
    B = R[:, :d]
    scores = Xc @ B
    labels, centroids = kmeans(scores, k, restarts=20, seed=seed)
    total = time.perf_counter() - t_start
    return FitResult(
        B_hat=B, Y_hat=L[:, :d], embedding=scores, labels=labels,
        objective_trace=np.zeros(0), outer_iters=0, status="converged", method="tandem",
        timings={"total": total, "kmeans": total}, inner_iterations=[],
        diagnostics={"kmeans_inertia": centroids.inertia})
