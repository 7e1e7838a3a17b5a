from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

import rsodc.model_selection as model_selection
from rsodc.core import child_seed, thin_svd
from rsodc.datagen import SimulationConfig, generate
from rsodc.model_selection import (
    GapCurve,
    ParamGrid,
    choose_k_from_curve,
    gap_statistic,
    kappa,
    select_k_by_gap,
    selection_indicator,
    stability_cv,
)
from rsodc.solver import kmeans


def test_param_grid_default_combo_count():
    grid = ParamGrid()
    combos = grid.combos("paper")
    # 5 x 5 gamma/rho pairs leave 24 after the gamma/rho < 1 filter
    assert len(combos) == 7 * 24
    assert all(g / r < 1.0 for _, g, r in combos)
    assert (0.1, 0.001, 0.01) in combos
    assert not any(g == 0.01 and r == 0.01 for _, g, r in combos)
    # the exact V step needs no filter
    assert len(grid.combos("exact")) == 7 * 25


def test_param_grid_validation():
    with pytest.raises(ValueError):
        ParamGrid(repeats=0)
    bad = ParamGrid(gamma_candidates=(0.5,), rho_candidates=(0.1,))
    with pytest.raises(ValueError):
        bad.combos("paper")
    for name in ("eta1_candidates", "gamma_candidates", "rho_candidates"):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            ParamGrid(**{name: ()})


def test_selection_indicator():
    B = np.array([[0.0, 0.0], [1e-13, 0.0], [0.2, 0.0]])
    np.testing.assert_array_equal(selection_indicator(B), [0, 0, 1])


def test_kappa_worked_indicator_vectors():
    a = np.array([0, 1, 0, 1, 0])
    b = np.array([0, 1, 1, 1, 0])
    assert kappa(a, b) == pytest.approx(0.6154, abs=1e-4)
    assert kappa(b, a) == pytest.approx(kappa(a, b))


def test_kappa_degenerate_overrides():
    assert kappa(np.zeros(4, dtype=int), np.zeros(4, dtype=int)) == -1.0
    assert kappa(np.ones(4, dtype=int), np.ones(4, dtype=int)) == -1.0
    mixed = np.array([0, 1, 1, 0])
    assert kappa(mixed, mixed) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        kappa(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        kappa(np.array([0, 1]), np.array([0, 1, 1]))


def test_stability_cv_is_reproducible_and_thread_invariant():
    cfg = SimulationConfig(n=24, p=20, k=3, theta=3.0, xi=0.5, seed=2)
    X, _ = generate(cfg)
    # two rho values: threads read each half's one graph at both
    grid = ParamGrid(eta1_candidates=(1.0, 2.5), gamma_candidates=(0.001,),
                     rho_candidates=(0.01, 0.1), repeats=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best1, table1 = stability_cv(X, 3, grid, delta=5, seed=7, threads=1)
        best2, table2 = stability_cv(X, 3, grid, delta=5, seed=7, threads=3)
    assert best1 == best2
    assert table1 == table2
    assert len(table1) == 4
    assert all(len(row["kappas"]) == 2 for row in table1)
    assert {row["eta1"] for row in table1} == {1.0, 2.5}
    means = [np.mean(row["kappas"]) for row in table1]
    np.testing.assert_allclose([row["mean_kappa"] for row in table1], means)
    best_mean = max(row["mean_kappa"] for row in table1)
    assert best1["mean_kappa"] == pytest.approx(best_mean)


def test_stability_cv_needs_enough_rows():
    with pytest.raises(ValueError):
        stability_cv(np.zeros((3, 2)), 2)


def test_choose_k_from_curve_rule_and_fallback():
    # first k whose gap clears the next gap minus its standard error
    assert choose_k_from_curve([2, 3, 4], [0.5, 0.9, 0.85], [0.02, 0.02, 0.02]) == 3
    # monotone decreasing: the first candidate wins immediately
    assert choose_k_from_curve([2, 3, 4], [0.9, 0.5, 0.3], [0.01, 0.01, 0.01]) == 2
    # strictly increasing with tiny errors: no k satisfies the rule -> argmax
    assert choose_k_from_curve([2, 3, 4], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0]) == 4
    # unimodal curves pick the peak or stop one short of it
    rng = np.random.default_rng(0)
    for _ in range(20):
        peak = int(rng.integers(1, 5))
        gap = np.concatenate([np.linspace(0.0, 1.0, peak + 1),
                              np.linspace(1.0, 0.2, 6 - peak)[1:]])
        ks = list(range(2, 2 + gap.size))
        chosen = choose_k_from_curve(ks, gap, np.full(gap.size, 1e-6))
        assert chosen in (ks[peak], ks[peak - 1])


def test_gap_statistic_recovers_three_planted_blobs():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    X = np.vstack([c + 0.3 * rng.standard_normal((15, 2)) for c in centers])
    curve = gap_statistic(X, range(2, 7), mc_samples=40, seed=1)
    assert isinstance(curve, GapCurve)
    assert curve.chosen_k == 3
    assert curve.gap.shape == (5,) and curve.se.shape == (5,)
    assert np.all(curve.se >= 0)


def test_gap_statistic_validation_and_determinism():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((12, 2))
    with pytest.raises(ValueError):
        gap_statistic(X, [12])
    with pytest.raises(ValueError):
        gap_statistic(X, [])
    with pytest.raises(ValueError):
        gap_statistic(X, [2], reference="boxed")
    with pytest.raises(ValueError):
        gap_statistic(X, [2], mc_samples=0)
    a = gap_statistic(X, [2, 3], mc_samples=10, seed=5)
    b = gap_statistic(X, [2, 3], mc_samples=10, seed=5)
    np.testing.assert_allclose(a.gap, b.gap)
    np.testing.assert_allclose(a.se, b.se)
    c = gap_statistic(X, [2, 3], mc_samples=10, seed=5, reference="pca")
    assert c.gap.shape == (2,)


# The gap statistic with one k-means call for the data with `restarts`
# restarts and one for each reference draw with at most GAP_REF_RESTARTS;
# each k's draws and their seeding read one stream each, in draw order.

def _reference_gap(P, ks, mc_samples, seed, restarts, reference):
    ref_restarts = min(restarts, model_selection.GAP_REF_RESTARTS)
    n, p = P.shape
    if reference == "pca":
        mu = P.mean(axis=0)
        _, _, R = thin_svd(P - mu)
        frame = (P - mu) @ R
    else:
        frame = P
    lo, hi = frame.min(axis=0), frame.max(axis=0)

    def log_dispersion(points, k, restarts, stream):
        _, centroids = kmeans(points, k, restarts=restarts, seed=stream)
        return float(np.log(max(centroids.inertia, 1e-12)))

    gap, se = np.empty(len(ks)), np.empty(len(ks))
    for idx, k in enumerate(ks):
        draws = np.random.default_rng(child_seed(seed, 8, k))
        seeding = np.random.default_rng(child_seed(seed, 9, k))
        refs = np.empty(mc_samples)
        for b in range(mc_samples):
            draw = lo + draws.random((n, p)) * (hi - lo)
            if reference == "pca":
                draw = draw @ R.T + mu
            refs[b] = log_dispersion(draw, k, ref_restarts, seeding)
        gap[idx] = refs.mean() - log_dispersion(P, k, restarts, child_seed(seed, 7, k))
        se[idx] = refs.std(ddof=0) * np.sqrt(1.0 + 1.0 / mc_samples)
    return gap, se


@pytest.mark.parametrize("block_elements", [model_selection.GAP_BLOCK_ELEMENTS, 1])
@pytest.mark.parametrize("reference", ["uniform", "pca"])
def test_stacked_gap_statistic_equals_one_call_per_draw(reference, block_elements,
                                                        monkeypatch):
    rng = np.random.default_rng(6)
    n, restarts, mc_samples, ks = 150, 5, 100, [1, 2, 4]
    centers = rng.standard_normal((3, 3)) * 4.0
    P = centers[rng.integers(3, size=n)] + rng.standard_normal((n, 3))
    calls = []

    def counted(points, *args, **kwargs):
        calls.append(np.shape(points))
        return kmeans(points, *args, **kwargs)

    monkeypatch.setattr(model_selection, "kmeans", counted)
    monkeypatch.setattr(model_selection, "GAP_BLOCK_ELEMENTS", block_elements)
    curve = gap_statistic(P, ks, mc_samples=mc_samples, seed=4, restarts=restarts,
                          reference=reference)
    gap, se = _reference_gap(P, ks, mc_samples, 4, restarts, reference)
    assert np.array_equal(curve.gap, gap) and np.array_equal(curve.se, se)
    # the data went to k-means alone, one call per k, and its draws in
    # blocks of whole stacks sized by the draws' restarts, at least one a block
    ref_restarts = min(restarts, model_selection.GAP_REF_RESTARTS)
    per_block = [max(1, block_elements // (ref_restarts * n * k)) for k in ks]
    blocks = [-(-mc_samples // b) for b in per_block]
    assert len(calls) == len(ks) + sum(blocks) and max(blocks) > 1
    stacks = [shape for shape in calls if len(shape) == 3]
    assert [shape for shape in calls if len(shape) != 3] == [(n, 3)] * len(ks)
    assert all(shape[1:] == (n, 3) for shape in stacks)
    assert sum(shape[0] for shape in stacks) == len(ks) * mc_samples


@pytest.mark.parametrize("restarts, data_restarts, draw_restarts", [
    (1, 1, 1),
    (None, model_selection.GAP_RESTARTS, model_selection.GAP_REF_RESTARTS),
])
def test_gap_statistic_clusters_the_data_and_its_draws_with_their_own_restarts(
        restarts, data_restarts, draw_restarts, monkeypatch):
    rng = np.random.default_rng(8)
    P = rng.standard_normal((60, 3)) + 3.0 * rng.integers(2, size=(60, 1))
    calls = []

    def counted(points, k, restarts, seeds):
        calls.append((np.ndim(points), restarts))
        return kmeans(points, k, restarts, seeds)

    monkeypatch.setattr(model_selection, "kmeans", counted)
    options = {} if restarts is None else {"restarts": restarts}
    curve = gap_statistic(P, [2, 3], mc_samples=10, seed=2, **options)
    gap, se = _reference_gap(P, [2, 3], 10, 2, data_restarts, "uniform")
    assert np.array_equal(curve.gap, gap) and np.array_equal(curve.se, se)
    assert {r for ndim, r in calls if ndim == 2} == {data_restarts}
    assert {r for ndim, r in calls if ndim == 3} == {draw_restarts}


def test_gap_statistic_memory_is_one_block():
    n, k, restarts = 4000, 6, 10
    E = np.random.default_rng(3).standard_normal((n, 5))
    tracemalloc.start()
    try:
        gap_statistic(E, [k], mc_samples=10, seed=0, restarts=restarts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bound of the one-set k-means memory test; the distances of all
    # eleven sets at once take 21 MB
    assert peak < 4 * restarts * n * k * 8


def test_select_k_by_gap_on_planted_structure():
    cfg = SimulationConfig(n=60, p=20, k=3, theta=3.0, xi=0.5, seed=13)
    X, _ = generate(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chosen, curve, fits = select_k_by_gap(
            X, range(2, 6), eta1=2.5, gamma=0.001, rho=0.01,
            mc_samples=20, seed=3)
    assert chosen == curve.chosen_k
    assert set(fits) == {2, 3, 4, 5}
    for k, fit in fits.items():
        assert fit.embedding.shape == (60, k - 1)
    assert chosen in curve.k_candidates


def test_select_k_by_gap_validates_range():
    X = np.random.default_rng(6).standard_normal((10, 4))
    with pytest.raises(ValueError):
        select_k_by_gap(X, [1, 2])
    with pytest.raises(ValueError):
        select_k_by_gap(X, [2, 10])
    with pytest.raises(ValueError):
        select_k_by_gap(X, [6])  # k - 1 exceeds p


@pytest.mark.parametrize("restarts", [0, -4])
def test_gap_selection_refuses_fewer_than_one_restart(restarts, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(model_selection, "fit_rsodc", no_fit)
    X = np.random.default_rng(0).standard_normal((30, 4))
    with pytest.raises(ValueError, match="restarts"):
        gap_statistic(X, [2, 3], mc_samples=3, restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        select_k_by_gap(X, [2, 3], mc_samples=3, restarts=restarts)


def test_select_k_by_gap_thread_invariance():
    cfg = SimulationConfig(n=30, p=20, k=2, theta=2.5, xi=0.5, seed=21)
    X, _ = generate(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c1, curve1, _ = select_k_by_gap(X, [2, 3, 4], eta1=1.0, gamma=0.001,
                                        rho=0.01, mc_samples=10, seed=9, threads=1)
        c2, curve2, _ = select_k_by_gap(X, [2, 3, 4], eta1=1.0, gamma=0.001,
                                        rho=0.01, mc_samples=10, seed=9, threads=3)
    assert c1 == c2
    np.testing.assert_allclose(curve1.gap, curve2.gap)
    np.testing.assert_allclose(curve1.se, curve2.se)


def test_select_k_by_gap_curve_is_gap_statistic_on_each_embedding():
    cfg = SimulationConfig(n=30, p=20, k=3, theta=3.0, xi=0.5, seed=17)
    X, _ = generate(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, curve, fits = select_k_by_gap(X, [2, 3, 4], eta1=1.0, gamma=0.001,
                                         rho=0.01, mc_samples=8, restarts=3, seed=11)
    for i, k in enumerate(curve.k_candidates):
        alone = gap_statistic(fits[k].embedding, [k], mc_samples=8, seed=11, restarts=3)
        assert curve.gap[i] == alone.gap[0]
        assert curve.se[i] == alone.se[0]


def test_zero_fusion_selection_builds_no_graph(monkeypatch):
    import rsodc.model_selection as ms

    def no_graph(*args, **kwargs):
        raise AssertionError("a gamma = 0 fit built a fusion graph")

    monkeypatch.setattr(ms.fusion_graph, "compute_weights", no_graph)
    X, _ = generate(SimulationConfig(n=48, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    grid = ParamGrid(eta1_candidates=(1.0,), gamma_candidates=(0.0,),
                     rho_candidates=(0.01,), repeats=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, curve, fits = select_k_by_gap(X, [2, 3], eta1=1.0, gamma=0.0,
                                         mc_samples=3, restarts=2, seed=1)
        _, table = stability_cv(X, 3, grid, seed=7)
    assert curve.k_candidates == [2, 3]
    assert all(fit.diagnostics["edges"] == 0 for fit in fits.values())
    assert table[0]["failures"] == 0


def test_stability_cv_builds_one_graph_per_half(monkeypatch):
    import rsodc.model_selection as ms
    import rsodc.solver as solver

    real_build = ms.fusion_graph.compute_weights
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    def no_graph(*args, **kwargs):
        raise AssertionError("a fit built its own fusion graph")

    monkeypatch.setattr(ms.fusion_graph, "compute_weights", counting_build)
    monkeypatch.setattr(solver, "build_fusion_graph", no_graph)
    X, _ = generate(SimulationConfig(n=48, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    grid = ParamGrid(eta1_candidates=(1.0,), gamma_candidates=(0.001, 0.005),
                     rho_candidates=(0.01, 0.1), repeats=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, table = stability_cv(X, 3, grid, delta=5, seed=7)
    assert len(builds) == 2 * grid.repeats
    assert [row["failures"] for row in table] == [0, 0, 0, 0]


def test_stability_cv_counts_failed_fits(monkeypatch):
    import rsodc.model_selection as ms

    real_fit = ms.fit_rsodc

    def fit_failing_at_high_eta1(inst, graph, seed):
        if inst.eta1 > 2.0:
            raise FloatingPointError("diverged")
        return real_fit(inst, graph, seed=seed)

    monkeypatch.setattr(ms, "fit_rsodc", fit_failing_at_high_eta1)
    # halves of 24 rows: a fit needs at least p = 20 rows
    X, _ = generate(SimulationConfig(n=48, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    grid = ParamGrid(eta1_candidates=(1.0, 2.5), gamma_candidates=(0.001,),
                     rho_candidates=(0.01,), repeats=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, table = stability_cv(X, 3, grid, delta=5, seed=7, threads=3)
    assert len([w for w in caught if "diverged" in str(w.message)]) == 3
    assert [row["failures"] for row in table] == [0, 3]
    assert table[1]["kappas"] == [-1.0, -1.0, -1.0]


def test_model_selection_forwards_every_setting(monkeypatch):
    # non-default values; the paper V step needs gamma / rho < 1 below
    settings = dict(eta2=0.3, epsilon=1e-5, max_outer=7, max_inner=11,
                    v_mode="paper")
    seen = []
    real_fit = model_selection.fit_rsodc

    def recording_fit(inst, graph, seed):
        seen.append(inst)
        return real_fit(inst, graph, seed=seed)

    monkeypatch.setattr(model_selection, "fit_rsodc", recording_fit)
    X, _ = generate(SimulationConfig(n=48, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    grid = ParamGrid(eta1_candidates=(1.0,), gamma_candidates=(0.001,),
                     rho_candidates=(0.01, 0.1), repeats=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, table = stability_cv(X, 3, grid, delta=5, seed=7, **settings)
        assert len(seen) == 2 * 2 * 2 and [row["failures"] for row in table] == [0, 0]
        select_k_by_gap(X, [2, 3], eta1=1.0, gamma=0.005, rho=0.05, delta=5,
                        mc_samples=3, restarts=2, seed=1, **settings)
    assert len(seen) == 8 + 2
    for inst in seen:
        assert {name: getattr(inst, name) for name in settings} == settings
    assert {inst.rho for inst in seen[:8]} == {0.01, 0.1}
    assert [(inst.k, inst.eta1, inst.gamma, inst.rho) for inst in seen[8:]] == [
        (2, 1.0, 0.005, 0.05), (3, 1.0, 0.005, 0.05)]


def _cap_warnings(caught) -> int:
    return sum("capped at n - 1" in str(w.message) for w in caught)


def test_stability_cv_fits_halves_with_fewer_rows_than_columns():
    # halves of 12 rows against p = 20 columns
    X, _ = generate(SimulationConfig(n=24, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    grid = ParamGrid(eta1_candidates=(1.0, 2.5), gamma_candidates=(0.001,),
                     rho_candidates=(0.01,), repeats=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, table = stability_cv(X, 3, grid, delta=5, seed=7)
    assert [row["failures"] for row in table] == [0, 0]
    assert not [w for w in caught if "failed on" in str(w.message)]


def test_neighbor_cap_warns_once_per_call():
    X, _ = generate(SimulationConfig(n=24, p=20, k=3, theta=3.0, xi=0.5, seed=2))
    grid = ParamGrid(eta1_candidates=(1.0, 2.5), gamma_candidates=(0.001,),
                     rho_candidates=(0.01,), repeats=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stability_cv(X, 3, grid, delta=30, seed=7)  # 8 fits on halves of 12
    assert _cap_warnings(caught) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        select_k_by_gap(X, [2, 3], eta1=1.0, gamma=0.001, delta=30, mc_samples=3,
                        restarts=2, seed=1)  # 2 fits on 24 rows
    assert _cap_warnings(caught) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        select_k_by_gap(X, [2, 3], eta1=1.0, gamma=0.001, delta=23, mc_samples=3,
                        restarts=2, seed=1)
    assert _cap_warnings(caught) == 0
