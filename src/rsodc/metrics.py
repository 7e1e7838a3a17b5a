"""Evaluation indices: adjusted Rand index, cluster variance ratio,
support recovery rates for a coefficient matrix, and per-variable one-way
ANOVA F scores."""

from __future__ import annotations

import warnings

import numpy as np

from .core import ZERO_TOL, check_matrix

# Cluster assignments are plain integer vectors; any label values work, the
# indices only use the induced partition.
Partition = np.ndarray


def _as_labels(labels, name: str) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d label vector")
    return arr


def adjusted_rand_index(a: Partition, b: Partition) -> float:
    """Hubert-Arabie adjusted Rand index between two partitions.

    Computed from the contingency table as (Index - Expected) / (Max -
    Expected); invariant under relabeling of either side. The degenerate
    denominator (both partitions all-singletons or both one-cluster) only
    occurs when the partitions are identical, so it returns 1.0.
    """
    a = _as_labels(a, "a")
    b = _as_labels(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least 2 subjects")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    rows, cols = ai.max() + 1, bi.max() + 1
    table = np.bincount(ai * cols + bi, minlength=rows * cols).reshape(rows, cols).astype(float)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    index = float(np.sum(comb2(table)))
    row = float(np.sum(comb2(table.sum(axis=1))))
    col = float(np.sum(comb2(table.sum(axis=0))))
    expected = row * col / comb2(n)
    maximum = 0.5 * (row + col)
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def _sums_of_squares(X, labels, name: str):
    """Per-column between-group and within-group sums of squares across
    the label groups, and the number of groups."""
    X = check_matrix(X, name)
    lab = _as_labels(labels, "labels")
    if lab.shape[0] != X.shape[0]:
        raise ValueError(f"labels do not align with {name}")
    values = np.unique(lab)
    if values.size < 2:
        raise ValueError("need at least 2 groups")
    grand = X.mean(axis=0)
    ssb = np.zeros(X.shape[1])
    ssw = np.zeros(X.shape[1])
    for v in values:
        block = X[lab == v]
        mean = block.mean(axis=0)
        ssb += block.shape[0] * (mean - grand) ** 2
        ssw += np.sum((block - mean) ** 2, axis=0)
    return ssb, ssw, values.size


def variance_ratio(points, labels: Partition) -> float:
    """trace(between-cluster scatter) / trace(within-cluster scatter).

    Higher means better-separated clusters. Zero within-scatter returns
    +inf with a warning.
    """
    ssb, ssw, _ = _sums_of_squares(points, labels, "points")
    within = float(ssw.sum())
    if within == 0.0:
        warnings.warn("zero within-cluster scatter; variance ratio is infinite",
                      RuntimeWarning)
        return np.inf
    return float(ssb.sum()) / within


def sensitivity_specificity(B, informative, k: int = None):
    """Support recovery of a coefficient matrix against known signal rows.

    Parameters
    ----------
    B : (p, k-1) array
    informative : iterable of int
        1-based row numbers carrying signal; must be nonempty.
    k : int, optional
        Cluster count; defaults to B's column count plus one.

    Returns
    -------
    (sensitivity, specificity)
        Fraction of nonzero entries within informative rows, and fraction of
        zero entries within the remaining rows (1.0 when no rows remain).
        Entries count as zero at magnitude <= 1e-12.
    """
    B = check_matrix(B, "B")
    p, d = B.shape
    if k is None:
        k = d + 1
    if k - 1 != d:
        raise ValueError(f"B has {d} columns, expected k - 1 = {k - 1}")
    idx = np.asarray(sorted(set(int(i) for i in informative)), dtype=int)
    if idx.size == 0:
        raise ValueError("informative set must be nonempty")
    if idx.min() < 1 or idx.max() > p:
        raise ValueError(f"informative rows must lie in 1..{p}")
    mask = np.zeros(p, dtype=bool)
    mask[idx - 1] = True
    nonzero = np.abs(B) > ZERO_TOL
    sensitivity = float(np.count_nonzero(nonzero[mask])) / (idx.size * d)
    rest = p - idx.size
    if rest == 0:
        return sensitivity, 1.0
    specificity = float(np.count_nonzero(~nonzero[~mask])) / (rest * d)
    return sensitivity, specificity


def anova_f_scores(X, labels: Partition) -> np.ndarray:
    """Per-variable one-way ANOVA F statistic across the label groups.

    F_j = (between mean square) / (within mean square) with degrees of
    freedom (k - 1, n - k). Variables with zero within-group variance get
    +inf so they rank first in a descending screen.
    """
    ssb, ssw, k = _sums_of_squares(X, labels, "X")
    n, p = len(labels), ssb.size
    if n <= k:
        raise ValueError("need more subjects than groups")
    msb = ssb / (k - 1)
    msw = ssw / (n - k)
    out = np.full(p, np.inf)
    ok = msw > 0
    out[ok] = msb[ok] / msw[ok]
    out[(msw == 0) & (msb == 0)] = 0.0  # fully constant variable: no signal
    return out
