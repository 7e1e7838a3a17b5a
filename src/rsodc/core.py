"""Shared numeric primitives: centering, decompositions, RNG plumbing and
the parallel map that runs independent work items.

Every other module builds on the three contracts here: column centering
(applied implicitly, the n x n centering matrix is never materialized),
thin SVD, and the top eigenvalue of a symmetric PSD matrix.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Singular values below RANK_TOL * sigma_max count as zero for rank decisions.
RANK_TOL = 1e-12

# Entries of an estimated coefficient row below this are treated as exact zeros.
ZERO_TOL = 1e-12

# Most Lanczos steps taken by top_eigenvalue_sym.
LANCZOS_STEPS = 64

# Defaults of the fusion weights: kernel decay rate and neighbor count.
DEFAULT_TAU = 0.1
DEFAULT_DELTA = 25


def as_generator(seed) -> np.random.Generator:
    """Return a numpy Generator from an int seed, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(int(seed))


def child_seed(seed: int, *tags: int) -> np.random.SeedSequence:
    """Derive an independent RNG stream for one work item.

    The stream depends only on (seed, tags), never on scheduling order, so
    parallel and serial runs of the same campaign produce identical numbers.
    """
    return np.random.SeedSequence([int(seed)] + [int(t) for t in tags])


def parallel_map(fn, items, threads: int = 1) -> list:
    """[fn(item) for item in items], in order; a failed item yields None.

    Each item that raises is reported by one RuntimeWarning, so callers
    count failures from the Nones. The items run on a pool of at most
    min(threads, len(items), os.cpu_count()) threads, or in this thread
    when that is 1; seeding each item from child_seed keeps the results
    independent of scheduling.
    """
    def guarded(item):
        try:
            return fn(item)
        except Exception as exc:
            warnings.warn(f"{fn.__name__} failed on {item!r}: {exc}", RuntimeWarning)
            return None

    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [guarded(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(guarded, items))


def check_matrix(X, name: str = "X") -> np.ndarray:
    """Validate and return a finite 2-d float array."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def center_columns(X) -> np.ndarray:
    """Subtract the column means of X (rows are subjects).

    Equivalent to left-multiplying by the centering matrix, computed in
    O(np) without forming the n x n projector. Requires n >= 2.
    """
    A = check_matrix(X)
    if A.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to center, got {A.shape[0]}")
    return A - A.mean(axis=0, keepdims=True)


def row_norms(Z: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (m, d) array.

    Squares and adds the columns one at a time, then takes the root: one
    vector operation per column. np.linalg.norm(Z, axis=1) reduces each
    short row on its own and took 10x longer on (75 935, 2) edge arrays.
    The sums add the columns in the same order, so for d <= 7 the result
    equals np.linalg.norm bit for bit; from d = 8 numpy sums pairwise and
    the two differ in the last bit (up to 3.1e-16 relative, measured).
    """
    if Z.shape[1] == 0:
        return np.zeros(Z.shape[0])
    sq = Z[:, 0] * Z[:, 0]  # the sum's start: 0.0 + x is x, bit for bit
    for col in Z.T[1:]:
        sq += col * col
    return np.sqrt(sq, out=sq)


def thin_svd(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of an n x d matrix with d <= n.

    Returns (L, sigma, R) with L n x d column-orthonormal, sigma non-negative
    and non-increasing, R d x d orthogonal, and A = L @ diag(sigma) @ R.T.
    """
    A = check_matrix(A, "A")
    n, d = A.shape
    if d > n:
        raise ValueError(f"thin_svd expects d <= n, got shape {A.shape}")
    L, sigma, Rt = np.linalg.svd(A, full_matrices=False)
    return L, sigma, Rt.T


def top_eigenvalue_sym(matvec, n: int) -> float:
    """Largest eigenvalue of a symmetric PSD operator C, given as the
    function v -> C v on length-n vectors.

    Runs at most min(n, LANCZOS_STEPS) Lanczos steps with full
    reorthogonalization from a fixed-seed Gaussian start and returns the
    top eigenvalue theta of the tridiagonal matrix T. Every fourth step it
    stops once the top Ritz pair's residual bound beta |s_last| (the next
    off-diagonal times the last entry of T's top eigenvector; Parlett, The
    Symmetric Eigenvalue Problem) is at most 1e-12 theta. When the steps
    span the whole space the value is exact up to rounding; otherwise it is
    a Ritz value, never above the true eigenvalue. No rule on the change in
    theta between steps is used: one stopped 2e-8 short of the eigenvalue.
    """
    if n < 1:
        raise ValueError(f"the operator's dimension n must be >= 1, got {n}")
    steps = min(int(n), LANCZOS_STEPS)
    basis = np.zeros((steps, n))
    diag = np.zeros(steps)
    off = np.zeros(steps)
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    scale = 0.0
    for k in range(steps):
        basis[k] = v
        w = np.asarray(matvec(v), dtype=float)
        diag[k] = v @ w
        span = basis[:k + 1]
        for _ in range(2):  # twice is enough for full reorthogonalization
            w -= span.T @ (span @ w)
        off[k] = np.linalg.norm(w)
        scale = max(scale, abs(diag[k]), off[k])
        if off[k] <= 1e-12 * scale:
            break  # the Krylov space is invariant: its eigenvalues are exact
        # checking at every step cost more than it saved at n <= 1000
        if k % 4 == 3:
            theta, s = np.linalg.eigh(_tridiagonal(diag[:k + 1], off[:k]))
            if off[k] * abs(s[-1, -1]) <= 1e-12 * theta[-1]:
                return float(theta[-1])
        v = w / off[k]
    return float(np.linalg.eigvalsh(_tridiagonal(diag[:k + 1], off[:k]))[-1])


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with this diagonal and off-diagonal."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@dataclass
class ProblemInstance:
    """One clustering problem: the data plus every tuning parameter.

    The fields after data and k are the solver settings; this is the one
    place that names, defaults and checks them. tau and delta set the fusion
    weights exp(-tau ||x_i - x_j||^2) on the delta-nearest-neighbor pairs
    (a fit caps delta at n - 1). With v_mode="paper", gamma / rho < 1 is
    required when gamma > 0: it keeps the step lengths psi_l =
    gamma * alpha_l / rho of the paper V step below 1. The exact V step has
    no such bound.
    """

    data: np.ndarray
    k: int
    eta1: float = 0.0
    eta2: float = 0.0
    gamma: float = 0.0
    rho: float = 0.01
    epsilon: float = 1e-6
    max_outer: int = 100
    max_inner: int = 1000
    v_mode: str = "exact"
    tau: float = DEFAULT_TAU
    delta: int = DEFAULT_DELTA

    def __post_init__(self):
        self.data = check_matrix(self.data, "data")
        n, p = self.data.shape
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.k - 1 > min(n - 1, p):
            raise ValueError(
                f"k - 1 = {self.k - 1} exceeds min(n - 1, p) = {min(n - 1, p)}; "
                "a centered scoring matrix with k - 1 orthonormal columns "
                "needs n >= k rows and p >= k - 1 columns"
            )
        for name in ("eta1", "eta2", "gamma", "tau"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("rho", "epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("max_outer", "max_inner", "delta"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.v_mode not in ("paper", "exact"):
            raise ValueError(f"v_mode must be 'paper' or 'exact', got {self.v_mode!r}")
        if self.v_mode == "paper" and self.gamma > 0 and self.gamma / self.rho >= 1:
            raise ValueError(
                f"gamma/rho = {self.gamma / self.rho:.3g} must be < 1 "
                "(step length of the paper V update)"
            )

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def d(self) -> int:
        return self.k - 1
