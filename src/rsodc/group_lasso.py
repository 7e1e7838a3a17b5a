"""The B step: proximal coordinate descent over variable groups.

The fit-plus-ridge part of the objective is rewritten as one tall least
squares problem: y* stacks vec(Y) (column-major) over p*(k-1) zeros, and Z
stacks the block-diagonal replication of the centered data over
sqrt(eta2) * I. Each variable j owns one column group Z_j of width k-1,
and one update is the proximal gradient step

    beta_j <- group_soft_threshold(beta_j + nu * Z_j^T (r_j - Z_j beta_j),
                                   nu * eta1).

Z_j^T Z_j = (||Xc[:, j]||^2 + eta2) * I, so the step-size clamp and the
whole sweep run on n x (k-1) residual matrices; the tall matrices are
materialized only on request.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ZERO_TOL, check_matrix

MAX_SWEEPS = 100


@dataclass
class StackedDesign:
    """Vectorized regression form of the B subproblem.

    Holds the centered data and the padding weight; the tall y* vector and
    the per-group blocks Z_j exist implicitly (apply/materialize methods).
    """

    Xc: np.ndarray            # n x p, column-centered
    Y: np.ndarray             # n x d
    eta2: float
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
        self.col_norms_sq = np.sum(self.Xc * self.Xc, axis=0)

    @property
    def n(self) -> int:
        return self.Xc.shape[0]

    @property
    def p(self) -> int:
        return self.Xc.shape[1]

    @property
    def d(self) -> int:
        return self.Y.shape[1]

    def y_star(self) -> np.ndarray:
        """The stacked target: (vec(Y)^T, 0^T)^T of length (n + p)(k-1)."""
        return np.concatenate([self.Y.reshape(-1, order="F"),
                               np.zeros(self.p * self.d)])

    def z_block(self, j: int) -> np.ndarray:
        """Materialize Z_j, shape ((n + p)(k-1)) x (k-1)."""
        n, p, d = self.n, self.p, self.d
        Zj = np.zeros(((n + p) * d, d))
        for c in range(d):
            Zj[c * n:(c + 1) * n, c] = self.Xc[:, j]
            Zj[n * d + c * p + j, c] = np.sqrt(self.eta2)
        return Zj

    def apply(self, B: np.ndarray) -> np.ndarray:
        """Z @ vec(B): vec(Xc @ B) stacked over sqrt(eta2) * vec(B)."""
        B = np.asarray(B, dtype=float)
        return np.concatenate([(self.Xc @ B).reshape(-1, order="F"),
                               np.sqrt(self.eta2) * B.reshape(-1, order="F")])


def build_stacked(Y, Xc, eta2: float = 0.0) -> StackedDesign:
    """Stacked design from the current scores and the centered data."""
    return StackedDesign(Xc=np.asarray(Xc, dtype=float),
                         Y=np.asarray(Y, dtype=float), eta2=float(eta2))


def group_soft_threshold(phi, t: float) -> np.ndarray:
    """Shrink the whole vector: 0 if ||phi|| <= t, else phi * (1 - t/||phi||)."""
    phi = np.asarray(phi, dtype=float)
    if t < 0:
        raise ValueError("threshold must be >= 0")
    norm = float(np.linalg.norm(phi))
    if norm <= t:
        return np.zeros_like(phi)
    return phi * (1.0 - t / norm)


def row_soft_threshold(Z, t) -> np.ndarray:
    """group_soft_threshold applied to every row of Z, row l at threshold t[l]."""
    norms = np.linalg.norm(Z, axis=1)
    scale = np.where(norms > t, 1.0 - t / np.maximum(norms, np.finfo(float).tiny), 0.0)
    return Z * scale[:, None]


def subproblem_objective(B, design: StackedDesign, eta1: float) -> float:
    """K(B) = 1/2 ||y* - Z vec(B)||^2 + eta1 * sum_j ||beta_j||_2.

    The fit term carries the same 1/2 as the reported loss; the padding
    contributes (eta2/2) ||B||_F^2.
    """
    B = np.asarray(B, dtype=float)
    R = design.Y - design.Xc @ B
    fit = 0.5 * (np.sum(R * R) + design.eta2 * np.sum(B * B))
    return float(fit + eta1 * np.sum(np.linalg.norm(B, axis=1)))


def clamp_step(design: StackedDesign, nu: float) -> float:
    """Clamp nu to 1/max_j sigma_max(Z_j)^2 = 1/max_j (||Xc[:,j]||^2 + eta2).

    A warning is emitted when the requested step is unsafe.
    """
    lip = float(np.max(design.col_norms_sq) + design.eta2)
    if lip <= 0.0:
        return nu
    bound = 1.0 / lip
    if nu > bound:
        warnings.warn(
            f"step size nu = {nu:.3g} exceeds the safe bound {bound:.3g}; clamping",
            RuntimeWarning,
        )
        return bound
    return nu


def update_B(B, design: StackedDesign, eta1: float, nu: float,
             sweeps: int = 1) -> np.ndarray:
    """Run `sweeps` full cyclic passes of the per-group proximal step.

    The residual matrix R = Y - Xc B is maintained incrementally; for
    group j the step reduces to
    phi = beta_j + nu * (Xc[:, j]^T R - eta2 * beta_j). Groups whose
    post-shrinkage norm falls below 1e-12 are snapped to exact zero.
    """
    B = np.array(B, dtype=float, copy=True)
    p, d = design.p, design.d
    if B.shape != (p, d):
        raise ValueError(f"B must be {p} x {d}, got {B.shape}")
    nu = clamp_step(design, nu)
    thresh = nu * eta1
    R = design.Y - design.Xc @ B
    for _ in range(int(sweeps)):
        for j in range(p):
            xj = design.Xc[:, j]
            bj = B[j]
            phi = bj + nu * (xj @ R - design.eta2 * bj)
            bj_new = group_soft_threshold(phi, thresh)
            if np.linalg.norm(bj_new) < ZERO_TOL:
                bj_new = np.zeros(d)
            if not np.isfinite(bj_new).all():
                raise FloatingPointError(f"non-finite update in group {j}")
            delta = bj - bj_new
            if delta.any():
                R += np.outer(xj, delta)
                B[j] = bj_new
    return B


def solve_B(B, design: StackedDesign, eta1: float, nu: float,
            epsilon: float = 1e-6, max_sweeps: int = MAX_SWEEPS) -> tuple[np.ndarray, int]:
    """Sweep until the subproblem objective decrease falls below epsilon.

    Returns the updated B and the number of sweeps taken.
    """
    obj = subproblem_objective(B, design, eta1)
    for sweep in range(1, int(max_sweeps) + 1):
        B = update_B(B, design, eta1, nu, sweeps=1)
        new_obj = subproblem_objective(B, design, eta1)
        if obj - new_obj < epsilon:
            return B, sweep
        obj = new_obj
    return B, int(max_sweeps)


def active_set(B) -> np.ndarray:
    """Indices of groups (rows) with any entry above the zero threshold."""
    B = np.asarray(B, dtype=float)
    return np.where(np.any(np.abs(B) > ZERO_TOL, axis=1))[0]
