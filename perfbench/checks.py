"""Output checks for the benchmark workloads.

None of these compares against a stored copy of the program's output. Each
one recomputes a quantity independently (kNN edges with a k-d tree, the top
eigenvalue with ARPACK, the loss from the written estimates, ARI by pair
counting, the study aggregate, the gap rule) or tests a property the method
guarantees (orthonormal centred scores, a non-increasing objective).
Every check raises CheckError with a message on the first violation.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import eigsh
from scipy.spatial import cKDTree

# The solver accepts a cycle that raises the loss by at most this much
# (rsodc.solver.OBJECTIVE_SLACK); anything larger is rolled back.
OBJECTIVE_SLACK = 1e-8


class CheckError(Exception):
    """An output of the program failed a check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def pair_count_ari(truth, labels) -> float:
    """Adjusted Rand index from the pair counts of the contingency table."""
    truth, labels = list(truth), list(labels)
    require(len(truth) == len(labels) and len(truth) >= 2,
            "ARI needs two labelings of the same length >= 2")

    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts)

    both = pairs(Counter(zip(truth, labels)).values())
    rows = pairs(Counter(truth).values())
    cols = pairs(Counter(labels).values())
    total = pairs([len(truth)])
    expected = rows * cols / total
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return (both - expected) / (top - expected)


def knn_union_edges(X, delta: int) -> np.ndarray:
    """Edges (i, j), i < j, where either point is among the other's delta
    nearest neighbours, sorted by (i, j). Computed with a k-d tree."""
    X = np.asarray(X, dtype=float)
    _, idx = cKDTree(X).query(X, k=delta + 1)
    # drop each point itself, wherever a duplicate row put it in the order
    nbrs = np.array([[j for j in row if j != i][:delta] for i, row in enumerate(idx)])
    rows = np.repeat(np.arange(len(X)), delta)
    cols = nbrs.ravel()
    return np.unique(np.stack([np.minimum(rows, cols), np.maximum(rows, cols)], axis=1),
                     axis=0)


def edge_quadratic_top(edges: np.ndarray, n: int, rho: float) -> float:
    """Largest eigenvalue of C = (rho/2) L for the unweighted graph Laplacian L."""
    i, j = edges[:, 0], edges[:, 1]
    deg = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    data = np.concatenate([deg, -np.ones(2 * len(i))]).astype(float)
    r = np.concatenate([np.arange(n), i, j])
    c = np.concatenate([np.arange(n), j, i])
    L = coo_matrix((data, (r, c)), shape=(n, n)).tocsr()
    top = eigsh(L, k=1, which="LA", return_eigenvectors=False, tol=1e-12)[0]
    return 0.5 * rho * float(top)


def check_graph(X, edges, omega: float, delta: int, rho: float) -> None:
    """The library's fusion graph: kNN-union edges and a valid omega."""
    ref = knn_union_edges(X, delta)
    got = np.asarray(edges, dtype=np.int64)
    require(got.shape == ref.shape and np.array_equal(got, ref),
            f"fusion graph edges differ from the k-d tree kNN union "
            f"({len(got)} edges against {len(ref)})")
    top = edge_quadratic_top(ref, len(X), rho)
    require(omega >= top * (1.0 - 1e-10),
            f"omega = {omega!r} is below the top eigenvalue of C = {top!r}")


def fusion_loss(X, B, Y, edges, eta1: float, gamma: float, tau: float) -> float:
    """1/2 ||Y - Xc B||^2 + eta1 sum_j ||B_j|| + gamma sum_l alpha_l ||y_i - y_j||,
    with alpha_l = exp(-tau ||x_i - x_j||^2) (eta2 = 0)."""
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0)
    R = Y - Xc @ B
    val = 0.5 * float(np.sum(R * R)) + eta1 * float(np.sum(np.linalg.norm(B, axis=1)))
    if gamma > 0.0 and len(edges):
        i, j = edges[:, 0], edges[:, 1]
        alpha = np.exp(-tau * np.sum((X[i] - X[j]) ** 2, axis=1))
        val += gamma * float(alpha @ np.linalg.norm(Y[i] - Y[j], axis=1))
    return val


def check_fit(X, truth, fit: dict, k: int, edges, eta1: float, gamma: float,
              tau: float) -> float:
    """Check one fit.json against properties of the method; returns its ARI."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Y = np.asarray(fit["y_hat"], dtype=float)
    B = np.asarray(fit["b_hat"], dtype=float)
    emb = np.asarray(fit["embedding"], dtype=float)
    labels = [int(v) for v in fit["labels"]]
    trace = np.asarray(fit["objective_trace"], dtype=float)
    d = k - 1
    require(Y.shape == (n, d) and B.shape == (X.shape[1], d) and emb.shape == (n, d),
            f"estimate shapes {Y.shape}, {B.shape}, {emb.shape} do not fit n={n}, k={k}")
    orth = float(np.max(np.abs(Y.T @ Y - np.eye(d))))
    require(orth <= 1e-8, f"Y_hat columns are not orthonormal (max error {orth:.3g})")
    cent = float(np.max(np.abs(Y.sum(axis=0))))
    require(cent <= 1e-8, f"Y_hat columns are not centred (max column sum {cent:.3g})")
    Xc = X - X.mean(axis=0)
    gap = float(np.max(np.abs(emb - Xc @ B)))
    require(gap <= 1e-9 * max(1.0, float(np.max(np.abs(emb)))),
            f"embedding differs from Xc B_hat by {gap:.3g}")
    require(trace.size >= 1 and np.all(np.isfinite(trace)), "objective trace is empty or not finite")
    rise = float(np.max(np.diff(trace))) if trace.size > 1 else 0.0
    require(rise <= OBJECTIVE_SLACK, f"objective trace rises by {rise:.3g}")
    loss = fusion_loss(X, B, Y, edges, eta1, gamma, tau)
    require(math.isclose(loss, trace[-1], rel_tol=1e-9, abs_tol=1e-12),
            f"final objective {trace[-1]!r} differs from the recomputed loss {loss!r}")
    require(set(labels) == set(range(1, k + 1)),
            f"labels {sorted(set(labels))} do not cover 1..{k}")
    ari = pair_count_ari(truth, labels)
    require(ari > 0.0, f"ARI {ari:.4f} is not above 0")
    return ari


METHODS = ("rsodc", "sodc", "tandem")
AGG_COLUMNS = ("median_ari", "mean_ari", "median_seconds", "replicates")


def study_aggregate(rows) -> dict:
    """method -> aggregate recomputed from replicates.csv rows."""
    out = {}
    for m in METHODS:
        aris = [float(r["ari"]) for r in rows if r["method"] == m]
        secs = [float(r["seconds"]) for r in rows if r["method"] == m]
        if aris:
            out[m] = {"median_ari": statistics.median(aris),
                      "mean_ari": math.fsum(aris) / len(aris),
                      "median_seconds": statistics.median(secs),
                      "replicates": len(aris)}
    return out


def check_study(rows, aggregate_rows, summary: dict, replicates: int) -> float:
    """Check a design-1 simulate run; returns the median ARI of the rsodc rows."""
    require(summary["failures"] == 0, f"simulate reports {summary['failures']} failures")
    require(len(rows) == len(METHODS) * replicates,
            f"replicates.csv has {len(rows)} rows, expected {len(METHODS) * replicates}")
    for r in rows:
        ari = float(r["ari"])
        require(-1.0 <= ari <= 1.0, f"ARI {ari!r} outside [-1, 1] in {r}")
        if r["method"] in ("rsodc", "sodc"):
            require(int(r["outer_iters"]) >= 1, f"no outer iteration in {r}")
    ours = study_aggregate(rows)
    require([a["method"] for a in aggregate_rows] == list(ours),
            "aggregate.csv methods differ from those in replicates.csv")
    for a in aggregate_rows:
        mine = ours[a["method"]]
        for col in AGG_COLUMNS:
            require(math.isclose(float(a[col]), mine[col], rel_tol=1e-12, abs_tol=1e-15),
                    f"aggregate {a['method']}.{col} = {a[col]} but replicates.csv "
                    f"gives {mine[col]!r}")
        require(mine["median_ari"] > 0.0,
                f"median ARI of {a['method']} is {mine['median_ari']:.4f}, not above 0")
    return ours["rsodc"]["median_ari"]


def gap_rule(ks, gap, se) -> int:
    """Smallest k with gap(k) >= gap(k+1) - se(k+1); the argmax otherwise."""
    for i in range(len(ks) - 1):
        if gap[i] >= gap[i + 1] - se[i + 1]:
            return ks[i]
    return ks[max(range(len(ks)), key=lambda i: gap[i])]


def check_select_k(curve_rows, chosen: dict, ks) -> int:
    """Check a select-k run's gap curve and choice; returns the chosen k."""
    got_ks = [int(r["k"]) for r in curve_rows]
    require(got_ks == list(ks), f"gap curve covers k = {got_ks}, expected {list(ks)}")
    gap = [float(r["gap"]) for r in curve_rows]
    se = [float(r["se"]) for r in curve_rows]
    require(all(math.isfinite(v) for v in gap + se), "gap curve has a non-finite value")
    require(all(v >= 0.0 for v in se), "gap curve has a negative standard error")
    require(chosen["gap"] == gap and chosen["se"] == se,
            "chosen_k.json and gap_curve.csv disagree on the curve")
    k = gap_rule(got_ks, gap, se)
    require(chosen["chosen_k"] == k,
            f"chosen k = {chosen['chosen_k']} but the gap rule on the curve gives {k}")
    return k
