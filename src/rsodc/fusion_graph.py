"""Fusion graph: k-nearest-neighbor edges, Gaussian kernel weights, and the
quadratic C with its majorization constant omega.

Edges l = (i, j) with i < j carry weights
alpha_{i,j} = indicator(kNN union) * exp(-tau * ||x_i - x_j||^2); pairs with
alpha = 0 are excluded. C = (rho/2) * sum_l g_l g_l^T aggregates the plain
incidence outer products WITHOUT the alpha weights: the weights enter the
algorithm only through the per-edge shrinkage thresholds in the V step.
A graph does not depend on rho: build_quadratic binds a rho to a copy, so
one graph serves fits at any rho without being written to.

The graph exists only as its edge list. Building it holds working blocks
of about KNN_BLOCK_ELEMENTS doubles beyond the O(m) edge arrays, whatever
n is: the kNN pairs come from blocks of KNN_BLOCK_ELEMENTS // n rows of the
distance matrix (at least 1, at most n), and the weights from blocks of
KNN_BLOCK_ELEMENTS // p edges. At n = 12 000, p = 20 and delta = 25,
compute_weights peaks at 18 MB (tracemalloc), most of it the edge arrays
and the Lanczos basis of lmax.

With G the n x m incidence matrix whose columns are the g_l, every product
the solver needs is one of two O(m d) edge operations: the gather G^T Y
(row differences y_i - y_j) and the scatter G T (row t_l added at i,
subtracted at j). C Q = (rho/2) G G^T Q is a gather followed by a scatter.
The dense C (dense_laplacian) is built only when the `C` attribute is
read; no fit reads it, and fits with gamma = 0 build no graph at all.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import DEFAULT_DELTA, DEFAULT_TAU, check_matrix, top_eigenvalue_sym

# Floor for omega when the edge set is empty (C = 0): keeps the
# majorization step defined as a vanishingly small shift toward Q.
OMEGA_FLOOR = 1e-12

# Float64 elements in one working block of the graph build: the kNN pairs
# come from blocks of about KNN_BLOCK_ELEMENTS // n rows of the distance
# matrix, and the weights from blocks of KNN_BLOCK_ELEMENTS // p edges.
KNN_BLOCK_ELEMENTS = 2 ** 17


def edge_gather(Y: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """G^T Y: the row differences y_i - y_j for every edge (i, j).

    Y is (n, d); the (m, d) result is in Fortran order, written one
    contiguous coordinate column at a time.
    """
    i, j = edges[:, 0], edges[:, 1]
    out = np.empty((len(i), Y.shape[1]), order="F")
    for c, col in enumerate(np.ascontiguousarray(Y.T)):
        np.subtract(col.take(i), col.take(j), out=out[:, c])
    return out


def edge_scatter(T: np.ndarray, edges: np.ndarray, n: int) -> np.ndarray:
    """G T = sum_l g_l t_l^T: row t_l added to row i and subtracted from row j.

    T is (m, d); the result is (n, d).
    """
    i, j = edges[:, 0], edges[:, 1]
    out = np.empty((n, T.shape[1]))
    for c in range(T.shape[1]):
        out[:, c] = np.bincount(i, T[:, c], minlength=n) - np.bincount(j, T[:, c], minlength=n)
    return out


def dense_laplacian(edges: np.ndarray, n: int) -> np.ndarray:
    """G G^T = sum_l g_l g_l^T as a dense n x n matrix (for inspection and
    small dense solves only)."""
    i, j = edges[:, 0], edges[:, 1]
    flat = np.concatenate([i * (n + 1), j * (n + 1), i * n + j, j * n + i])
    sign = np.repeat([1.0, -1.0], 2 * len(i))
    return np.bincount(flat, sign, minlength=n * n).reshape(n, n)


@dataclass
class FusionGraph:
    """Weighted edge set and the top eigenvalue of G G^T; rho only when bound.

    The edge list is stored in Fortran order, so that each endpoint column
    is one contiguous index array for the gathers and scatters.
    """

    edges: np.ndarray          # (m, 2) int array, each row (i, j) with i < j
    alpha: np.ndarray          # (m,) positive weights
    n: int
    lmax: float | None = None  # top eigenvalue of G G^T, found when None
    rho: float | None = None

    def __post_init__(self):
        self.edges = np.asfortranarray(self.edges)
        if self.lmax is None:
            self.lmax = top_eigenvalue_sym(self._apply_laplacian, self.n) if self.m else 0.0

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def _apply_laplacian(self, v: np.ndarray) -> np.ndarray:
        return edge_scatter(edge_gather(v[:, None], self.edges), self.edges, self.n)[:, 0]

    @property
    def omega(self) -> float | None:
        """(rho/2) lmax times (1 + 1e-8) against rounding, floored at OMEGA_FLOOR."""
        if self.rho is None:
            return None
        return float(max((self.rho / 2.0) * self.lmax * (1.0 + 1e-8), OMEGA_FLOOR))

    @property
    def C(self) -> np.ndarray | None:
        """The dense n x n (rho/2) G G^T, built on each access; no fit reads it."""
        if self.rho is None:
            return None
        return (self.rho / 2.0) * dense_laplacian(self.edges, self.n)


def cap_delta(delta: int, n: int) -> int:
    """The neighbor count usable on n points: delta capped at n - 1.

    Warns once when the cap applies. Each routine that takes a neighbor
    count caps it here once and hands the result to all of its graphs;
    ProblemInstance checks delta >= 1.
    """
    if delta > n - 1:
        warnings.warn(f"neighbor count {delta} capped at n - 1 = {n - 1}",
                      RuntimeWarning)
        return n - 1
    return delta


def knn_indicator(X, delta: int) -> np.ndarray:
    """Pairs (i, j), i < j, with j among i's delta nearest neighbors or i
    among j's (union symmetrization): an (m, 2) int64 array sorted by (i, j).

    Distances are Euclidean over rows. Ties are broken by smaller index.
    Requires 1 <= delta <= n - 1. Squared distances are formed
    KNN_BLOCK_ELEMENTS // n rows at a time (at least one, at most n), in
    two block buffers reused for every block; each block contributes the
    keys min(i, j) * n + max(i, j) of its neighbor pairs, and the sorted
    distinct keys give the union. The pairs come in Fortran order, as
    FusionGraph stores them.

    Each row's delta + 1 nearest candidates come from one argpartition.
    Where the delta-th of them lies strictly below the (delta + 1)-th, the
    first delta are the neighbors whatever the tie rule; only rows where
    the two tie go through full-width masks that admit the tied indices in
    order. With delta = n - 1 the (delta + 1)-th is the row's own infinite
    distance, so every other point gets in.
    """
    X = check_matrix(X)
    n = X.shape[0]
    if not 1 <= delta <= n - 1:
        raise ValueError(f"delta must be in [1, n-1] = [1, {n - 1}], got {delta}")
    sq = np.sum(X * X, axis=1)
    block = min(max(1, KNN_BLOCK_ELEMENTS // n), n)
    prod_buf, d2_buf = np.empty((block, n)), np.empty((block, n))
    keys = []
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        # d2 = sq_i + sq_j - 2 x_i.x_j, each step written into the buffers
        prod, d2 = prod_buf[:r1 - r0], d2_buf[:r1 - r0]
        np.matmul(X[r0:r1], X.T, out=prod)
        np.multiply(prod, 2.0, out=prod)
        np.add(sq[r0:r1, None], sq[None, :], out=d2)
        np.subtract(d2, prod, out=d2)
        d2[np.arange(r1 - r0), np.arange(r0, r1)] = np.inf
        cand = np.argpartition(d2, delta, axis=1)[:, :delta + 1]
        dist = np.take_along_axis(d2, cand, axis=1)
        # argpartition leaves the (delta + 1)-th distance in the last column
        # and no larger one before it
        clear = dist[:, :delta].max(axis=1) < dist[:, delta]
        rows = np.repeat(np.flatnonzero(clear), delta)
        cols = cand[clear, :delta].ravel()
        tied_rows = np.flatnonzero(~clear)
        if tied_rows.size:
            t_rows, t_cols = _tied_neighbors(d2[tied_rows], delta)
            rows = np.concatenate([rows, tied_rows[t_rows]])
            cols = np.concatenate([cols, t_cols])
        rows += r0
        keys.append(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    # the distinct keys by a sort: np.unique took 25x as long on 10^5 keys
    keys = np.sort(np.concatenate(keys).astype(np.int64, copy=False))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    # Fortran order, as FusionGraph keeps it: each endpoint column contiguous
    pairs = np.empty((len(keys), 2), dtype=np.int64, order="F")
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def _tied_neighbors(d2: np.ndarray, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each row's delta nearest columns, ties at the
    delta-th distance admitted in index order."""
    kth = np.partition(d2, delta - 1, axis=1)[:, delta - 1:delta]
    below = d2 < kth
    tied = d2 == kth
    room = delta - np.count_nonzero(below, axis=1)
    # a stable sort of the row puts ties at the delta-th distance in index
    # order: where more tie than there is room, the smallest indices get in
    crowded = np.count_nonzero(tied, axis=1) > room
    tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= room[crowded, None]
    return np.nonzero(below | tied)


def compute_weights(X, tau: float = DEFAULT_TAU, delta: int = DEFAULT_DELTA) -> FusionGraph:
    """Build the weighted edge set from the data.

    Returns a FusionGraph whose edges are the kNN pairs, sorted by (i, j),
    carrying alpha_{i,j} = exp(-tau * ||x_i - x_j||_2^2); pairs whose weight
    underflows to zero are dropped.
    """
    X = check_matrix(X)
    if not 0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    edges = knn_indicator(X, delta)
    # the squared lengths in blocks of edges, each gathered C-ordered, not by
    # edge_gather: np.sum over the rows of an F-ordered array adds their
    # squares in another order, moving alpha in the last bit
    sq_len = np.empty(len(edges))
    step = max(1, KNN_BLOCK_ELEMENTS // X.shape[1])
    for e0 in range(0, len(edges), step):
        pairs = edges[e0:e0 + step]
        diff = np.take(X, pairs[:, 0], axis=0) - np.take(X, pairs[:, 1], axis=0)
        np.sum(np.multiply(diff, diff, out=diff), axis=1, out=sq_len[e0:e0 + step])
    alpha = np.exp(np.multiply(sq_len, -tau, out=sq_len), out=sq_len)
    keep = alpha > 0.0
    if not keep.all():  # copied only when a weight underflowed
        edges, alpha = edges[keep], alpha[keep]
    return FusionGraph(edges=edges, alpha=alpha, n=X.shape[0])


def incidence_vector(l: tuple[int, int], n: int) -> np.ndarray:
    """The vector g_l with +1 at i, -1 at j, zeros elsewhere (0-based, i < j < n)."""
    i, j = int(l[0]), int(l[1])
    if i == j:
        raise ValueError(f"edge endpoints must differ, got ({i}, {j})")
    if not (0 <= i < j < n):
        raise ValueError(f"edge ({i}, {j}) out of range for n = {n}")
    g = np.zeros(n)
    g[i] = 1.0
    g[j] = -1.0
    return g


def build_quadratic(graph: FusionGraph, rho: float) -> FusionGraph:
    """A copy of graph bound to rho, sharing its arrays; graph is left as it was."""
    if not 0 < rho < np.inf:
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    return replace(graph, rho=float(rho))


def build_fusion_graph(X, tau: float, delta: int, rho: float) -> FusionGraph:
    """Convenience: weights, then the graph bound to rho."""
    return build_quadratic(compute_weights(X, tau, delta), rho)
