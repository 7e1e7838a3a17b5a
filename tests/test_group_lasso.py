from __future__ import annotations

import numpy as np
import pytest

from rsodc.core import ZERO_TOL, center_columns
from rsodc.group_lasso import (
    StackedDesign,
    _gram_objective,
    build_stacked,
    group_soft_threshold,
    row_soft_threshold,
    solve_B,
    subproblem_objective,
)


def _random_design(rng, n=8, p=4, d=2, eta2=0.0) -> StackedDesign:
    Xc = center_columns(rng.standard_normal((n, p)))
    Y = rng.standard_normal((n, d))
    return build_stacked(Y, Xc, eta2)


# The tall stacked form of the subproblem, materialized: y* stacks vec(Y)
# (column-major) over p*d zeros, and Z stacks the block-diagonal replication
# of Xc over sqrt(eta2) * I, with one column group Z_j per variable.

def y_star(design: StackedDesign) -> np.ndarray:
    return np.concatenate([design.Y.reshape(-1, order="F"),
                           np.zeros(design.p * design.d)])


def z_block(design: StackedDesign, j: int) -> np.ndarray:
    n, p, d = design.n, design.p, design.d
    Zj = np.zeros(((n + p) * d, d))
    for c in range(d):
        Zj[c * n:(c + 1) * n, c] = design.Xc[:, j]
        Zj[n * d + c * p + j, c] = np.sqrt(design.eta2)
    return Zj


def apply(design: StackedDesign, B) -> np.ndarray:
    """Z @ vec(B): vec(Xc @ B) stacked over sqrt(eta2) * vec(B)."""
    B = np.asarray(B, dtype=float)
    return np.concatenate([(design.Xc @ B).reshape(-1, order="F"),
                           np.sqrt(design.eta2) * B.reshape(-1, order="F")])


def update_B(B, design: StackedDesign, eta1: float, nu: float,
             sweeps: int = 1) -> np.ndarray:
    """Reference proximal-gradient sweeps at step nu, capped at the safe
    1/max_j (||Xc[:, j]||^2 + eta2): for each group in turn,
    beta_j <- S(beta_j + nu (Xc[:, j]^T R - eta2 beta_j), nu eta1)
    on the residual R = Y - Xc B kept up to date."""
    B = np.array(B, dtype=float, copy=True)
    lip = float(np.max(design.col_norms_sq) + design.eta2)
    if lip > 0.0:
        nu = min(nu, 1.0 / lip)
    R = design.Y - design.Xc @ B
    for _ in range(int(sweeps)):
        for j in range(design.p):
            xj, bj = design.Xc[:, j], B[j]
            bj_new = group_soft_threshold(bj + nu * (xj @ R - design.eta2 * bj), nu * eta1)
            if np.linalg.norm(bj_new) < ZERO_TOL:
                bj_new = np.zeros(design.d)
            R += np.outer(xj, bj - bj_new)
            B[j] = bj_new
    return B


def test_group_soft_threshold_hand_values():
    v = np.array([3.0, 4.0])  # norm 5
    np.testing.assert_allclose(group_soft_threshold(v, 0.0), v)
    np.testing.assert_allclose(group_soft_threshold(v, 2.5), v * 0.5)
    np.testing.assert_array_equal(group_soft_threshold(v, 5.0), np.zeros(2))
    np.testing.assert_array_equal(group_soft_threshold(v, 6.0), np.zeros(2))
    with pytest.raises(ValueError):
        group_soft_threshold(v, -1.0)


def test_stacked_design_blocks_match_dense_form():
    rng = np.random.default_rng(0)
    design = _random_design(rng, n=5, p=3, d=2, eta2=0.3)
    B = rng.standard_normal((3, 2))
    # dense Z assembled from the blocks must reproduce apply(); the
    # coefficient vector stacks each row (group) of B contiguously
    Z = np.hstack([z_block(design, j) for j in range(design.p)])
    np.testing.assert_allclose(Z @ B.reshape(-1), apply(design, B), atol=1e-12)
    # Z_j^T Z_j is (||Xc[:, j]||^2 + eta2) * I
    for j in range(design.p):
        Zj = z_block(design, j)
        np.testing.assert_allclose(
            Zj.T @ Zj, (design.col_norms_sq[j] + design.eta2) * np.eye(2),
            atol=1e-12)
    # the objective equals the explicit stacked least squares
    y = y_star(design)
    expect = 0.5 * np.sum((y - apply(design, B)) ** 2) + 1.5 * np.sum(
        np.linalg.norm(B, axis=1))
    assert subproblem_objective(B, design, 1.5) == pytest.approx(expect, rel=1e-12)


def test_update_B_is_monotone_per_sweep():
    rng = np.random.default_rng(2)
    for _ in range(5):
        design = _random_design(rng, n=10, p=5, d=2, eta2=float(rng.uniform(0, 0.5)))
        eta1 = float(rng.uniform(0.1, 2.0))
        B = rng.standard_normal((5, 2))
        prev = subproblem_objective(B, design, eta1)
        for _ in range(20):
            B = update_B(B, design, eta1, 0.001, sweeps=1)
            cur = subproblem_objective(B, design, eta1)
            assert cur <= prev + 1e-10
            prev = cur


def test_solve_B_reaches_a_fixed_point_of_the_prox_step():
    rng = np.random.default_rng(3)
    design = _random_design(rng, n=12, p=4, d=2)
    B, sweeps = solve_B(rng.standard_normal((4, 2)), design, 1.0,
                        epsilon=1e-12, max_sweeps=5000)
    # at a fixed point one more sweep moves nothing
    B2 = update_B(B, design, 1.0, 0.01, sweeps=1)
    np.testing.assert_allclose(B2, B, atol=1e-6)
    assert sweeps >= 1


def test_large_eta1_zeroes_everything():
    rng = np.random.default_rng(4)
    design = _random_design(rng)
    B, _ = solve_B(rng.standard_normal((4, 2)), design, 1e6)
    np.testing.assert_array_equal(B, np.zeros((4, 2)))
    assert not (np.abs(B) > ZERO_TOL).any()


def test_row_soft_threshold_shrinks_each_row_like_the_vector_rule():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((40, 3))
    t = rng.uniform(0.0, 2.5, 40)
    Z[0] = 0.0
    out, _ = row_soft_threshold(Z, t)
    for row, thresh, got in zip(Z, t, out):
        np.testing.assert_allclose(got, group_soft_threshold(row, thresh), rtol=1e-14, atol=0)
    assert np.all(out[np.linalg.norm(Z, axis=1) <= t] == 0.0)


def test_solve_B_sweep_is_the_exact_group_minimiser():
    # with orthogonal columns the groups decouple, so one sweep of exact
    # group updates lands on the closed-form minimiser and the next moves nothing
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(center_columns(rng.standard_normal((15, 4))))
    Xc = Q * np.array([3.0, 1.0, 0.5, 2.0])
    Xc[:, 2] = 0.0
    Y = rng.standard_normal((15, 2))
    for eta2 in (0.0, 0.7):
        design = build_stacked(Y, Xc, eta2)
        H = Xc.T @ Y
        norms = np.sum(Xc * Xc, axis=0)
        expect = np.array([group_soft_threshold(H[j], 0.8) / (norms[j] + eta2)
                           if norms[j] + eta2 > 0 else np.zeros(2) for j in range(4)])
        B, sweeps = solve_B(rng.standard_normal((4, 2)), design, 0.8, epsilon=1e-12)
        np.testing.assert_allclose(B, expect, atol=1e-12)
        assert sweeps == 2
        # a zero column with no ridge stays exactly zero
        assert eta2 > 0 or not B[2].any()


def test_build_stacked_rejects_a_gram_of_the_wrong_shape():
    design = _random_design(np.random.default_rng(13), n=30, p=6, d=2)
    with pytest.raises(ValueError):
        build_stacked(design.Y, design.Xc, 0.3, gram=np.eye(5))


def _solve_B_visiting_every_group(B, design, eta1, epsilon=1e-6, max_sweeps=100):
    """solve_B's sweeps as they ran before zero groups were skipped: every
    group forms its update and writes it when it differs."""
    B = np.array(B, dtype=float, copy=True)
    G, H = design.G, design.H
    scale = design.col_norms_sq + design.eta2
    GB = G @ B
    obj = _gram_objective(B, GB, design, eta1)
    for sweep in range(1, max_sweeps + 1):
        for j in range(design.p):
            bj = B[j]
            c = H[j] - GB[j] + G[j, j] * bj
            norm = float(np.sqrt(c @ c))
            shrink = (1.0 - eta1 / norm) / scale[j] if norm > eta1 and scale[j] > 0.0 else 0.0
            if shrink * norm < ZERO_TOL:
                shrink = 0.0
            bj_new = c * shrink
            delta = bj_new - bj
            if delta.any():
                GB += G[:, j, None] * delta
                B[j] = bj_new
        new_obj = _gram_objective(B, GB, design, eta1)
        if obj - new_obj < epsilon:
            return B, sweep
        obj = new_obj
    return B, max_sweeps


def test_solve_B_skipping_zero_groups_matches_visiting_every_group():
    # twelve informative columns of thirty, a start where some groups are
    # zero and others not, and a path of eta1 values chained as a fit's B
    # steps are: groups enter, leave and stay at zero along the way
    rng = np.random.default_rng(14)
    n, p, d = 60, 30, 3
    X = center_columns(rng.standard_normal((n, p)))
    Y = X[:, :12] @ rng.standard_normal((12, d)) * 0.3 + rng.standard_normal((n, d))
    start = rng.standard_normal((p, d))
    start[rng.permutation(p)[:12]] = 0.0
    entered = left = stayed = 0
    for eta2 in (0.0, 0.5):
        design = build_stacked(Y, X, eta2)
        B = start
        for eta1 in (0.5, 4.0, 12.0, 25.0, 8.0, 2.0, 40.0, 1.0):
            got, sweeps = solve_B(B, design, eta1, epsilon=1e-10)
            want, want_sweeps = _solve_B_visiting_every_group(B, design, eta1, epsilon=1e-10)
            np.testing.assert_array_equal(got, want)
            assert sweeps == want_sweeps
            was, now = B.any(axis=1), got.any(axis=1)
            entered += int(np.sum(~was & now))
            left += int(np.sum(was & ~now))
            stayed += int(np.sum(~was & ~now))
            B = got
    assert entered > 0 and left > 0 and stayed > 0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solve_B_raises_on_a_non_finite_update_of_a_zero_group(bad):
    # a group that starts at zero takes the zero-group visit first; its
    # non-finite c must raise there as it does for a nonzero group
    rng = np.random.default_rng(15)
    design = _random_design(rng, n=30, p=6, d=2)
    j = 2
    B = rng.standard_normal((6, 2))
    B[j] = 0.0
    design.H[j] = [bad, 0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError, match=rf"^non-finite update in group {j}$"):
            solve_B(B, design, 0.5)
