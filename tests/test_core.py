from __future__ import annotations

import warnings

import numpy as np
import pytest

import rsodc.core as core
from rsodc.core import (
    ProblemInstance,
    as_generator,
    center_columns,
    check_matrix,
    child_seed,
    parallel_map,
    row_norms,
    thin_svd,
    top_eigenvalue_sym,
)


def test_as_generator_accepts_int_seedsequence_generator():
    g1 = as_generator(7)
    g2 = as_generator(np.random.SeedSequence(7))
    g3 = as_generator(np.random.default_rng(7))
    a, b, c = (g.standard_normal(4) for g in (g1, g2, g3))
    np.testing.assert_allclose(a, b)
    np.testing.assert_allclose(a, c)


def test_child_seed_streams_are_order_free_and_distinct():
    draws = {}
    for tags in [(1, 0), (1, 1), (2, 0)]:
        rng = as_generator(child_seed(9, *tags))
        draws[tags] = rng.standard_normal(3)
    again = as_generator(child_seed(9, 1, 1)).standard_normal(3)
    np.testing.assert_allclose(draws[(1, 1)], again)
    assert not np.allclose(draws[(1, 0)], draws[(1, 1)])
    assert not np.allclose(draws[(1, 0)], draws[(2, 0)])


def test_check_matrix_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        check_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        check_matrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        check_matrix(np.array([[1.0, np.nan]]))


def test_center_columns_zeroes_means_and_is_idempotent():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((11, 4)) + 3.0
    Xc = center_columns(X)
    np.testing.assert_allclose(Xc.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(center_columns(Xc), Xc, atol=1e-12)
    with pytest.raises(ValueError):
        center_columns(np.ones((1, 3)))


def test_thin_svd_reconstructs_and_orders():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, n + 1))
        A = rng.standard_normal((n, d))
        L, sigma, R = thin_svd(A)
        assert L.shape == (n, d) and R.shape == (d, d)
        np.testing.assert_allclose(L.T @ L, np.eye(d), atol=1e-10)
        np.testing.assert_allclose(R.T @ R, np.eye(d), atol=1e-10)
        assert np.all(np.diff(sigma) <= 1e-12) and np.all(sigma >= 0)
        rel = np.linalg.norm(L @ np.diag(sigma) @ R.T - A) / max(1.0, np.linalg.norm(A))
        assert rel <= 1e-9
    with pytest.raises(ValueError):
        thin_svd(np.zeros((2, 3)))


def test_top_eigenvalue_matches_dense_solver_both_paths():
    rng = np.random.default_rng(2)
    for n in (5, 30, 80):
        G = rng.standard_normal((n, n))
        C = G @ G.T
        expect = float(np.linalg.eigvalsh(C)[-1])
        got = top_eigenvalue_sym(C.__matmul__, n)
        assert abs(got - expect) <= 1e-6 * max(1.0, abs(expect))


def test_problem_instance_validation():
    X = np.random.default_rng(3).standard_normal((10, 4))
    inst = ProblemInstance(data=X, k=3)
    assert (inst.n, inst.p, inst.d) == (10, 4, 2)
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=1)
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=6)  # k - 1 > min(n, p)
    # a centered n x (k - 1) matrix with orthonormal columns needs k - 1 <= n - 1
    for rows, k in ((1, 2), (2, 3), (3, 4)):
        with pytest.raises(ValueError, match="n >= k"):
            ProblemInstance(data=X[:rows], k=k)
    assert ProblemInstance(data=X[:3], k=3).d == 2
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, eta1=-0.1)
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, rho=0.0)
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, gamma=0.5, rho=0.1, v_mode="paper")
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, v_mode="fast")
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, max_outer=0)  # no outer iteration would run
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, max_inner=0)  # no scoring step would run
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, tau=-0.1)  # weights would grow with distance
    with pytest.raises(ValueError):
        ProblemInstance(data=X, k=3, delta=0)  # no neighbors, so no fusion graph
    # NaN fails every ordering test, so each float setting is checked finite
    for name in ("eta1", "eta2", "gamma", "rho", "epsilon", "tau"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                ProblemInstance(data=X, k=3, **{name: bad})
    # the ratio filter only applies to the paper V step with the fusion term active
    ProblemInstance(data=X, k=3, gamma=0.0, rho=0.01, v_mode="paper")
    ProblemInstance(data=X, k=3, gamma=0.5, rho=0.1, v_mode="exact")


def test_top_eigenvalue_takes_a_matvec_and_needs_its_dimension():
    rng = np.random.default_rng(4)
    for n in (1, 7, 150):
        G = rng.standard_normal((n, n))
        C = G @ G.T
        expect = float(np.linalg.eigvalsh(C)[-1])
        got = top_eigenvalue_sym(lambda v: C @ v, n=n)
        assert abs(got - expect) <= 1e-9 * max(1.0, expect)
        # a Ritz value never exceeds the top eigenvalue by more than rounding
        assert got <= expect * (1.0 + 1e-12)
    assert top_eigenvalue_sym(np.zeros((70, 70)).__matmul__, 70) == 0.0
    with pytest.raises(ValueError):
        top_eigenvalue_sym(lambda v: v, 0)


@pytest.mark.parametrize("threads", [1, 3])
def test_parallel_map_keeps_order_and_turns_each_failure_into_none(threads):
    def halve_even(x):
        if x % 2:
            raise ValueError(f"odd {x}")
        return x // 2

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = parallel_map(halve_even, range(9), threads)
    assert out == [0, None, 1, None, 2, None, 3, None, 4]
    assert len(caught) == 4
    assert all(w.category is RuntimeWarning for w in caught)
    assert sorted(str(w.message) for w in caught)[0] == "halve_even failed on 1: odd 1"



@pytest.mark.parametrize("threads, items, cpus, workers", [
    (5000, 1750, 4, 4), (3, 10, 4, 3), (5000, 2, 4, 2), (8, 10, None, None),
    (2, 1, 4, None), (1, 10, 4, None)])
def test_parallel_map_starts_at_most_one_worker_per_item_and_core(
        threads, items, cpus, workers, monkeypatch):
    started = []

    class RecordingExecutor:
        """Stands in for the thread pool: records its size, runs in order."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return map(fn, values)

    monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(core.os, "cpu_count", lambda: cpus)
    assert parallel_map(lambda x: 2 * x, range(items), threads) == [
        2 * x for x in range(items)]
    # a bound of one worker runs the items in the calling thread
    assert started == ([] if workers is None else [workers])

@pytest.mark.parametrize("d", range(1, 8))
def test_row_norms_equal_numpy_bit_for_bit_below_eight_columns(d):
    rng = np.random.default_rng(d)
    Z = rng.standard_normal((500, d)) * np.exp(rng.uniform(-30, 30, (500, 1)))
    np.testing.assert_array_equal(row_norms(Z), np.linalg.norm(Z, axis=1))
    assert row_norms(np.zeros((0, d))).shape == (0,)


def test_row_norms_from_eight_columns_differ_from_numpy_in_the_last_bit():
    # numpy sums rows of 8 or more pairwise; the column-wise sum is another
    # order of the same additions
    rng = np.random.default_rng(8)
    for d in (8, 9, 16):
        Z = rng.standard_normal((2000, d))
        ref = np.linalg.norm(Z, axis=1)
        assert np.max(np.abs(row_norms(Z) - ref) / ref) <= 4e-16
