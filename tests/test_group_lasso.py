from __future__ import annotations

import numpy as np
import pytest

from rsodc.core import center_columns
from rsodc.group_lasso import (
    StackedDesign,
    active_set,
    build_stacked,
    clamp_step,
    group_soft_threshold,
    row_soft_threshold,
    solve_B,
    subproblem_objective,
    update_B,
)


def _random_design(rng, n=8, p=4, d=2, eta2=0.0) -> StackedDesign:
    Xc = center_columns(rng.standard_normal((n, p)))
    Y = rng.standard_normal((n, d))
    return build_stacked(Y, Xc, eta2)


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
    Z = np.hstack([design.z_block(j) for j in range(design.p)])
    np.testing.assert_allclose(Z @ B.reshape(-1), design.apply(B), atol=1e-12)
    # Z_j^T Z_j is (||Xc[:, j]||^2 + eta2) * I
    for j in range(design.p):
        Zj = design.z_block(j)
        np.testing.assert_allclose(
            Zj.T @ Zj, (design.col_norms_sq[j] + design.eta2) * np.eye(2),
            atol=1e-12)
    # the objective equals the explicit stacked least squares
    y = design.y_star()
    expect = 0.5 * np.sum((y - design.apply(B)) ** 2) + 1.5 * np.sum(
        np.linalg.norm(B, axis=1))
    assert subproblem_objective(B, design, 1.5) == pytest.approx(expect, rel=1e-12)


def test_clamp_step_warns_and_bounds():
    rng = np.random.default_rng(1)
    design = _random_design(rng, eta2=0.2)
    bound = 1.0 / (np.max(design.col_norms_sq) + 0.2)
    with pytest.warns(RuntimeWarning):
        assert clamp_step(design, 10.0) == pytest.approx(bound)
    assert clamp_step(design, bound / 2) == pytest.approx(bound / 2)


def test_update_B_is_monotone_per_sweep():
    rng = np.random.default_rng(2)
    for _ in range(5):
        design = _random_design(rng, n=10, p=5, d=2, eta2=float(rng.uniform(0, 0.5)))
        eta1 = float(rng.uniform(0.1, 2.0))
        nu = clamp_step(design, 0.001)
        B = rng.standard_normal((5, 2))
        prev = subproblem_objective(B, design, eta1)
        for _ in range(20):
            B = update_B(B, design, eta1, nu, sweeps=1)
            cur = subproblem_objective(B, design, eta1)
            assert cur <= prev + 1e-10
            prev = cur


def test_solve_B_reaches_a_fixed_point_of_the_prox_step():
    rng = np.random.default_rng(3)
    design = _random_design(rng, n=12, p=4, d=2)
    nu = clamp_step(design, 0.01)
    B, sweeps = solve_B(rng.standard_normal((4, 2)), design, 1.0, nu,
                        epsilon=1e-12, max_sweeps=5000)
    # at a fixed point one more sweep moves nothing
    B2 = update_B(B, design, 1.0, nu, sweeps=1)
    np.testing.assert_allclose(B2, B, atol=1e-6)
    assert sweeps >= 1


def test_large_eta1_zeroes_everything():
    rng = np.random.default_rng(4)
    design = _random_design(rng)
    nu = clamp_step(design, 0.001)
    B, _ = solve_B(rng.standard_normal((4, 2)), design, 1e6, nu)
    np.testing.assert_array_equal(B, np.zeros((4, 2)))
    assert active_set(B).size == 0


def test_active_set_indices():
    B = np.array([[0.0, 0.0], [1e-13, 0.0], [0.5, 0.0], [0.0, -2.0]])
    np.testing.assert_array_equal(active_set(B), [2, 3])


def test_row_soft_threshold_shrinks_each_row_like_the_vector_rule():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((40, 3))
    t = rng.uniform(0.0, 2.5, 40)
    Z[0] = 0.0
    out = row_soft_threshold(Z, t)
    for row, thresh, got in zip(Z, t, out):
        np.testing.assert_allclose(got, group_soft_threshold(row, thresh), rtol=1e-14, atol=0)
    assert np.all(out[np.linalg.norm(Z, axis=1) <= t] == 0.0)
