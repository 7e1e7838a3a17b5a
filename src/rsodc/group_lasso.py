"""The B step: exact block coordinate descent over variable groups.

With the scores Y fixed, B minimises the group-lasso subproblem

    K(B) = 1/2 ||Y - Xc B||_F^2 + (eta2/2) ||B||_F^2 + eta1 sum_j ||beta_j||_2,

one tall least squares problem in vec(B) with a group penalty: y* stacks
vec(Y) over p*(k-1) zeros, and Z stacks the block-diagonal replication of
the centered data over sqrt(eta2) * I, so that variable j owns one column
group Z_j of width k-1. Z_j^T Z_j = (||Xc[:, j]||^2 + eta2) * I, so with the
other groups fixed the minimiser over beta_j is closed-form (Yuan & Lin
2006; Friedman, Hastie & Tibshirani 2010):

    beta_j = group_soft_threshold(Xc[:, j]^T r_j, eta1) / (||Xc[:, j]||^2 + eta2),

with r_j the residual of every other group. Everything this needs is in the
p x p Gram G = Xc^T Xc and the p x (k-1) cross product H = Xc^T Y, so a sweep
and the objective cost O(p^2 (k-1)) whatever n is; a fit forms G once and
each B step forms H. The reported loss carries eta2 ||B||^2, so a fit builds
its design with twice its eta2, and K is then the loss as a function of B.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ZERO_TOL, check_matrix, row_norms

MAX_SWEEPS = 100


@dataclass
class StackedDesign:
    """Gram form of the B subproblem.

    Holds the centered data, the scores and the ridge weight, and derives
    the Gram G = Xc^T Xc (unless one is passed in), H = Xc^T Y and ||Y||^2;
    the tall y* vector and Z exist only implicitly.
    """

    Xc: np.ndarray            # n x p, column-centered
    Y: np.ndarray             # n x d
    eta2: float
    G: np.ndarray | None = None   # p x p Gram Xc^T Xc
    H: np.ndarray = field(init=False)              # p x d cross product Xc^T Y
    yy: float = field(init=False)                  # ||Y||_F^2
    col_norms_sq: np.ndarray = field(init=False)   # ||Xc[:, j]||^2 per group

    def __post_init__(self):
        self.Xc = check_matrix(self.Xc, "Xc")
        self.Y = check_matrix(self.Y, "Y")
        if self.Xc.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"row mismatch: Xc has {self.Xc.shape[0]} rows, Y has {self.Y.shape[0]}"
            )
        if self.eta2 < 0:
            raise ValueError("eta2 must be >= 0")
        if self.G is None:
            self.G = self.Xc.T @ self.Xc
        elif self.G.shape != (self.p, self.p):
            raise ValueError(f"G must be {self.p} x {self.p}, got {self.G.shape}")
        self.H = self.Xc.T @ self.Y
        self.yy = float(np.sum(self.Y * self.Y))
        self.col_norms_sq = np.diag(self.G).copy()

    @property
    def n(self) -> int:
        return self.Xc.shape[0]

    @property
    def p(self) -> int:
        return self.Xc.shape[1]

    @property
    def d(self) -> int:
        return self.Y.shape[1]


def build_stacked(Y, Xc, eta2: float, gram=None) -> StackedDesign:
    """Design from the current scores and the centered data.

    gram, when given, is Xc^T Xc; a fit passes the one it formed so that
    each B step forms only H = Xc^T Y.
    """
    return StackedDesign(Xc=np.asarray(Xc, dtype=float),
                         Y=np.asarray(Y, dtype=float), eta2=float(eta2), G=gram)


def group_soft_threshold(phi, t: float) -> np.ndarray:
    """Shrink the whole vector: 0 if ||phi|| <= t, else phi * (1 - t/||phi||)."""
    phi = np.asarray(phi, dtype=float)
    if t < 0:
        raise ValueError("threshold must be >= 0")
    norm = float(np.linalg.norm(phi))
    if norm <= t:
        return np.zeros_like(phi)
    return phi * (1.0 - t / norm)


def row_soft_threshold(Z, t) -> tuple[np.ndarray, np.ndarray]:
    """group_soft_threshold applied to every row of Z, row l at threshold t[l].

    Returns the rows and their norms, each the row's norm before shrinking
    times its shrink factor: row_norms of the rows up to rounding, without a
    second pass over them.
    """
    norms = row_norms(Z)
    # 1 - t / max(norms, tiny) where norms > t, else 0, in one array
    scale = np.maximum(norms, np.finfo(float).tiny)
    np.divide(t, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    scale[~(norms > t)] = 0.0
    return Z * scale[:, None], np.multiply(norms, scale, out=norms)


def _gram_objective(B, GB, design: StackedDesign, eta1: float) -> float:
    # np.add.reduce is np.sum, and sqrt of the row sums np.linalg.norm(B,
    # axis=1), without their Python wrappers: once per sweep, same bits
    sq = B * B
    fit = design.yy - 2.0 * np.add.reduce(B * design.H, None) + np.add.reduce(B * GB, None)
    fit += design.eta2 * np.add.reduce(sq, None)
    return float(0.5 * fit + eta1 * np.add.reduce(np.sqrt(np.add.reduce(sq, 1)), None))


def subproblem_objective(B, design: StackedDesign, eta1: float) -> float:
    """K(B) = 1/2 ||y* - Z vec(B)||^2 + eta1 * sum_j ||beta_j||_2.

    The fit term carries the same 1/2 as the reported loss; the padding
    contributes (eta2/2) ||B||_F^2. Evaluated through the Gram form
    1/2 (||Y||^2 - 2 <B, H> + <B, G B> + eta2 ||B||^2) in O(p^2 (k-1)).
    """
    B = np.asarray(B, dtype=float)
    return _gram_objective(B, design.G @ B, design, eta1)


def solve_B(B, design: StackedDesign, eta1: float, *, epsilon: float = 1e-6,
            max_sweeps: int = MAX_SWEEPS) -> tuple[np.ndarray, int]:
    """Exact group block coordinate descent on the Gram form of the subproblem.

    Each sweep visits the groups in order and sets beta_j to its exact
    minimiser with the other groups fixed,

        beta_j = S(H_j - (G B)_j + G_jj beta_j, eta1) / (G_jj + eta2),

    with S the group soft threshold, keeping G B up to date after each
    group; a group whose norm falls below ZERO_TOL snaps to zero, and a group
    with G_jj + eta2 = 0 stays zero. A zero group is first tested with one
    subtraction and one dot product, ||H_j - (G B)_j|| <= eta1, and left
    at zero when that holds. Sweeps stop when one lowers the
    subproblem objective by less than epsilon, or after max_sweeps with a
    warning. A sweep costs O(p^2 d) whatever n is; the exact update needs no
    step size.

    Returns the updated B and the number of sweeps taken.
    """
    B = np.array(B, dtype=float, copy=True)
    p, d = design.p, design.d
    if B.shape != (p, d):
        raise ValueError(f"B must be {p} x {d}, got {B.shape}")
    if eta1 < 0:
        raise ValueError("eta1 must be >= 0")
    eta1 = float(eta1)
    G = design.G
    GB = G @ B
    obj = _gram_objective(B, GB, design, eta1)
    # per-group row views and Python-float constants, formed once per call;
    # GB and B change in place, so their row views stay current
    B_rows, H_rows, GB_rows = list(B), list(design.H), list(GB)
    diag = G.diagonal().tolist()
    scale = (design.col_norms_sq + design.eta2).tolist()
    # whether beta_j is all zero: a zero group that stays zero changes nothing
    zero = [not bj.any() for bj in B]
    r = np.empty(d)
    for sweep in range(1, int(max_sweeps) + 1):
        for j in range(p):
            if zero[j]:
                # c = H_j - (G B)_j; a finite ||c|| at or below eta1 (or a
                # zero scale) leaves the group zero, and anything else
                # takes the full visit below, which raises on a non-finite c
                np.subtract(H_rows[j], GB_rows[j], out=r)
                norm = math.sqrt(np.dot(r, r))
                if norm < math.inf and (norm <= eta1 or scale[j] <= 0.0):
                    continue
            bj = B_rows[j]
            c = H_rows[j] - GB_rows[j] + diag[j] * bj
            norm = math.sqrt(float(c @ c))
            # beta_j = c * shrink, of norm (||c|| - eta1) / scale_j
            shrink = (1.0 - eta1 / norm) / scale[j] if norm > eta1 and scale[j] > 0.0 else 0.0
            if not math.isfinite(shrink * norm):
                raise FloatingPointError(f"non-finite update in group {j}")
            if shrink * norm < ZERO_TOL:
                shrink = 0.0
            if shrink == 0.0 and zero[j]:
                continue
            bj_new = c * shrink
            delta = bj_new - bj
            if np.count_nonzero(delta):
                GB += G[:, j, None] * delta
                bj[:] = bj_new
                zero[j] = shrink == 0.0
        new_obj = _gram_objective(B, GB, design, eta1)
        if obj - new_obj < epsilon:
            return B, sweep
        obj = new_obj
    warnings.warn(f"B step did not converge within {int(max_sweeps)} sweeps", RuntimeWarning)
    return B, int(max_sweeps)
