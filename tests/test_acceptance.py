"""End-to-end acceptance battery.

Each test pins one contract of the toolkit at its stated tolerance:
constraint invariants, bound and oracle equivalences, worked metric values,
degeneracy and determinism guarantees, and scaled synthetic-study
reproductions with stochastic bands.
"""

from __future__ import annotations

import itertools
import json
import warnings
from collections import Counter

import numpy as np
import pytest

from rsodc._io import write_matrix_csv
from rsodc.admm_scoring import majorizer_value, update_V
from rsodc.cli import main
from rsodc.core import ProblemInstance, center_columns, thin_svd
from rsodc.datagen import SimulationConfig, generate
from rsodc.fusion_graph import build_fusion_graph
from rsodc.group_lasso import build_stacked, solve_B, subproblem_objective
from rsodc.metrics import adjusted_rand_index
from rsodc.model_selection import kappa, select_k_by_gap
from rsodc.solver import fit_rsodc, fit_sodc


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def _planted(n, p, k, theta, xi, seed):
    return generate(SimulationConfig(n=n, p=p, k=k, theta=theta, xi=xi,
                                     seed=seed))


# -- 1: constraint invariants over a 50-seed battery --------------------------

def test_scoring_constraints_hold_across_seed_battery():
    worst_orth = 0.0
    worst_center = 0.0
    for s in range(50):
        k = 3 if s % 2 == 0 else 4
        X, _ = _planted(60, 20, k, 2.2, 0.5, seed=s)
        inst = ProblemInstance(data=X, k=k, eta1=2.5, gamma=0.001, rho=0.01)
        fit = _quiet(fit_rsodc, inst, seed=s)
        worst_orth = max(worst_orth, fit.diagnostics["max_orth_violation"])
        worst_center = max(worst_center, fit.diagnostics["max_center_violation"])
    assert worst_orth <= 1e-8
    assert worst_center <= 1e-8


# -- 2: the linearization bound is sound --------------------------------------

def test_majorizer_upper_bounds_trace_with_equality_at_expansion_point():
    rng = np.random.default_rng(0)

    def orthonormal(n, d):
        A = rng.standard_normal((n, d))
        L, _, R = thin_svd(A)
        return L @ R.T

    for _ in range(200):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, 2))
        graph = build_fusion_graph(pts, tau=float(rng.uniform(0, 0.5)),
                                   delta=int(rng.integers(1, n)), rho=0.05)
        Y = orthonormal(n, d)
        Q = orthonormal(n, d)
        lhs = float(np.trace(Y.T @ graph.C @ Y))
        rhs = majorizer_value(Y, Q, graph.C, graph.omega)
        assert lhs <= rhs + 1e-10
        at_q = float(np.trace(Q.T @ graph.C @ Q))
        assert abs(majorizer_value(Q, Q, graph.C, graph.omega) - at_q) <= 1e-10


# -- 3: the SVD solution wins the trace maximization --------------------------

def test_svd_solution_beats_random_orthonormal_competitors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, min(4, n)))
        D = rng.standard_normal((n, d))
        L, _, R = thin_svd(D)
        best = float(np.sum((L @ R.T) * D))
        for _ in range(1000):
            G = rng.standard_normal((n, d))
            Z, _ = np.linalg.qr(G)
            assert float(np.sum(Z * D)) <= best + 1e-10


# -- 4: the coordinate B step matches an independent minimizer ----------------

def _fista_group_lasso(design, eta1, iters=20000):
    # accelerated proximal gradient on the same subproblem, written against
    # the dense gradient rather than the coordinate recursion
    Xc, Y, eta2 = design.Xc, design.Y, design.eta2
    p, d = design.p, design.d
    L = float(np.linalg.eigvalsh(Xc.T @ Xc)[-1] + eta2)
    t = 1.0 / L
    B = np.zeros((p, d))
    Z = B.copy()
    momentum = 1.0
    for _ in range(iters):
        G = Xc.T @ (Xc @ Z - Y) + eta2 * Z
        step = Z - t * G
        norms = np.linalg.norm(step, axis=1)
        scale = np.maximum(0.0, 1.0 - t * eta1 / np.maximum(norms, 1e-300))
        B_new = step * scale[:, None]
        momentum_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2))
        Z = B_new + ((momentum - 1.0) / momentum_new) * (B_new - B)
        B, momentum = B_new, momentum_new
    return B


def test_B_update_matches_independent_numeric_minimizer():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(4, 11))
        p = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        Xc = center_columns(rng.standard_normal((n, p)) * 2.0)
        Y = rng.standard_normal((n, d))
        eta1 = float(rng.uniform(0.05, 1.5))
        eta2 = float(rng.choice([0.0, 0.2]))
        design = build_stacked(Y, Xc, eta2)
        B, _ = solve_B(rng.standard_normal((p, d)), design, eta1,
                       epsilon=1e-12, max_sweeps=20000)
        oracle = _fista_group_lasso(design, eta1)
        ours = subproblem_objective(B, design, eta1)
        ref = subproblem_objective(oracle, design, eta1)
        assert abs(ours - ref) <= 1e-4, f"trial {trial}: {ours} vs {ref}"


# -- 5: the V step against a generic per-edge minimizer -----------------------

def _edge_objective(v, q, psi):
    return 0.5 * float(np.sum((v - q) ** 2)) + psi * float(np.linalg.norm(v))


def _numeric_edge_minimum(q, psi):
    # the objective is radial around the ray through q, so a bounded scalar
    # search over the step length is a full-strength generic minimizer
    from scipy.optimize import minimize_scalar
    norm_q = float(np.linalg.norm(q))
    if norm_q == 0.0:
        return 0.0
    direction = q / norm_q

    def along(t):
        return _edge_objective(t * direction, q, psi)

    res = minimize_scalar(along, bounds=(0.0, norm_q + 1.0), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


class _OneEdgeGraph:
    def __init__(self, alpha):
        self.m = 1
        self.edges = np.array([[0, 1]])
        self.alpha = np.array([alpha])


def _one_edge_state(y_i, y_j, v, lam):
    from rsodc.admm_scoring import ScoringState
    Y = np.vstack([y_i, y_j])
    return ScoringState(Y=Y, V=v[None, :], Lambda=lam[None, :])


def test_exact_V_update_matches_numeric_minimizer():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        y_i = rng.standard_normal(d)
        y_j = rng.standard_normal(d)
        lam = rng.standard_normal(d)
        v = rng.standard_normal(d)
        gamma, rho = 0.05, float(rng.uniform(0.2, 1.0))
        alpha = float(rng.uniform(0.1, 1.0))
        graph = _OneEdgeGraph(alpha)
        state = _one_edge_state(y_i, y_j, v, lam)
        update_V(state, graph, gamma, rho, mode="exact")
        psi = gamma * alpha / rho
        q = (y_i - y_j) - lam / rho
        ours = _edge_objective(state.V[0], q, psi)
        ref = _numeric_edge_minimum(q, psi)
        assert abs(ours - ref) <= 1e-6


def test_one_step_V_update_never_increases_the_edge_objective():
    # psi spans the full admissible range (0, 1) of the one-step update
    rng = np.random.default_rng(0)
    increases = []
    for _ in range(100):
        d = int(rng.integers(1, 4))
        y_i = rng.standard_normal(d)
        y_j = rng.standard_normal(d)
        lam = rng.standard_normal(d)
        v = rng.standard_normal(d)
        psi = float(rng.uniform(0.01, 0.99))
        gamma, rho, alpha = psi, 1.0, 1.0
        q = (y_i - y_j) - lam / rho
        before = _edge_objective(v, q, psi)
        graph = _OneEdgeGraph(alpha)
        state = _one_edge_state(y_i, y_j, v, lam)
        update_V(state, graph, gamma, rho, mode="paper")
        after = _edge_objective(state.V[0], q, psi)
        if after > before + 1e-12:
            increases.append(after - before)
    assert not increases, (
        f"{len(increases)} of 100 edges increased, worst by {max(increases):.3g}")


# -- 6: ARI against exhaustive pair counting ----------------------------------

def _partitions(n):
    # restricted growth strings enumerate set partitions canonically
    def rec(prefix, mx):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))

    yield from rec([0], 0)


def _pair_counting_ari(a, b):
    n = len(a)
    same_same = same_diff = diff_same = diff_diff = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                same_same += 1
            elif sa:
                same_diff += 1
            elif sb:
                diff_same += 1
            else:
                diff_diff += 1
    num = 2.0 * (same_same * diff_diff - same_diff * diff_same)
    den = ((same_same + same_diff) * (same_diff + diff_diff)
           + (same_same + diff_same) * (diff_same + diff_diff))
    if den == 0.0:
        return 1.0
    return num / den


def test_ari_agrees_with_pair_counting_on_all_small_partitions():
    for n in range(2, 7):
        parts = list(_partitions(n))
        for a, b in itertools.product(parts, repeat=2):
            expect = _pair_counting_ari(a, b)
            got = adjusted_rand_index(np.array(a), np.array(b))
            assert got == pytest.approx(expect, abs=1e-12), (a, b)


def test_ari_hand_value():
    assert adjusted_rand_index(np.array([1, 1, 2, 2]),
                               np.array([1, 2, 1, 2])) == pytest.approx(-0.5)


# -- 7: kappa worked example ---------------------------------------------------

def test_kappa_worked_example_and_override():
    assert kappa(np.array([0, 1, 0, 1, 0]),
                 np.array([0, 1, 1, 1, 0])) == pytest.approx(0.6154, abs=1e-4)
    assert kappa(np.ones(6, dtype=int), np.ones(6, dtype=int)) == -1.0


# -- 8: gamma = 0 degenerates to the fusion-free solver -----------------------

def test_zero_fusion_weight_matches_the_fusion_free_fit():
    for s in range(10):
        n = 20 + 4 * s
        k = 2 + s % 3
        X, _ = _planted(n, 20, k, 2.5, 0.4, seed=100 + s)
        eta1 = 0.5 + 0.25 * s
        a = _quiet(fit_sodc, ProblemInstance(data=X, k=k, eta1=eta1), seed=s)
        b = _quiet(fit_rsodc,
                   ProblemInstance(data=X, k=k, eta1=eta1, gamma=0.0), seed=s)
        assert abs(a.objective_trace[-1] - b.objective_trace[-1]) <= 1e-6


# -- 9: scaled synthetic-study reproduction, accuracy band --------------------

def test_median_ari_over_fifty_seeds_in_band():
    aris = []
    for s in range(50):
        X, truth = _planted(60, 20, 3, 2.2, 0.5, seed=1000 + s)
        inst = ProblemInstance(data=X, k=3, eta1=2.5, gamma=0.001, rho=0.01)
        fit = _quiet(fit_rsodc, inst, seed=s)
        aris.append(adjusted_rand_index(truth, fit.labels))
    median = float(np.median(aris))
    assert 0.33 <= median <= 0.63, f"median ARI {median:.3f} outside band"


# -- 10: scaled cluster-count selection ---------------------------------------

def test_modal_selected_k_equals_planted_k():
    chosen = []
    for r in range(20):
        X, _ = _planted(60, 20, 3, 2.2, 0.5, seed=5000 + r)
        k, _, _ = _quiet(select_k_by_gap, X, range(2, 10), eta1=2.5,
                         gamma=0.001, rho=0.01, mc_samples=50, seed=r,
                         threads=2)
        chosen.append(k)
    counts = Counter(chosen)
    modal = counts.most_common(1)[0][0]
    assert modal == 3, f"selected counts {dict(counts)}"


# -- 11: every objective trace is non-increasing ------------------------------

def test_objective_traces_never_increase():
    configs = [
        dict(k=2, eta1=0.5, gamma=0.0, rho=0.01),
        dict(k=3, eta1=2.5, gamma=0.001, rho=0.01),
        dict(k=3, eta1=1.0, gamma=0.005, rho=0.05, v_mode="exact"),
        dict(k=4, eta1=0.1, gamma=0.003, rho=0.05),
        dict(k=3, eta1=2.0, eta2=0.5, gamma=0.001, rho=0.01),
        dict(k=2, eta1=3.0, gamma=0.01, rho=0.1, v_mode="exact"),
    ]
    for s, cfg in enumerate(configs):
        X, _ = _planted(40, 20, max(cfg["k"], 2), 2.2, 0.5, seed=200 + s)
        inst = ProblemInstance(data=X, **cfg)
        for fitter in (fit_rsodc, fit_sodc):
            fit = _quiet(fitter, inst, seed=s)
            diffs = np.diff(fit.objective_trace)
            assert np.all(diffs <= 1e-8), (cfg, fitter.__name__)


# -- 12: determinism and thread invariance ------------------------------------

def test_repeated_runs_reproduce_fit_json_modulo_timings(tmp_path):
    X, _ = _planted(30, 20, 3, 2.5, 0.5, seed=77)
    data = tmp_path / "data.csv"
    write_matrix_csv(data, X, [f"v{j + 1}" for j in range(20)])
    out = tmp_path / "out"
    args = ["fit", str(data), "--k", "3", "--eta1", "2.0", "--gamma", "0.001",
            "--rho", "0.01", "--seed", "5", "--out", str(out)]
    payloads = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(args) == 0
        payload = json.loads((out / "fit.json").read_text())
        payload["manifest"].pop("timings")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_aggregate_statistics_are_thread_invariant(tmp_path):
    def run(threads, name):
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["simulate", "--design", "1", "--replicates", "3",
                       "--n", "24", "--threads", str(threads),
                       "--out", str(out)])
        assert rc == 0
        agg = json.loads((out / "simulate.json").read_text())["aggregate"]
        for row in agg:
            row.pop("median_seconds", None)
        return agg

    assert run(1, "t1") == run(4, "t4")
