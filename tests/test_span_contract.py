"""The scoring step's span sites are reached, through their module attributes.

perfbench/spans.py times the scoring step by replacing module attributes
(`rsodc.admm_scoring.update_V`, `rsodc.solver.inner_admm`, ...), and reads
each `inner_admm` call's iteration count off the `.iterations` of what the
call returns. A step inlined into its caller, or reached through another
name, leaves every other test green and its layer at zero time in a
traced run; tests/test_bench_span_sites.py checks only that the names
exist. This test runs a fused and a fusion-free fit with a counting wrapper
on each name and checks that each is called.
"""

from __future__ import annotations

import collections
import warnings

import pytest

from rsodc import admm_scoring, solver
from rsodc.core import ProblemInstance
from rsodc.datagen import SimulationConfig, generate

ADMM_SITES = ("assemble_D", "update_Y", "thin_svd", "update_V", "update_Lambda",
              "augmented_lagrangian")
SOLVER_SITES = ("inner_admm", "update_Y", "solve_B", "kmeans", "thin_svd")


@pytest.fixture
def counted(monkeypatch):
    """Calls per wrapped site, and each inner_admm call's (.iterations,
    admm_scoring.update_Y calls made during it)."""
    calls, runs = collections.Counter(), []

    def wrap(module, attr):
        original = getattr(module, attr)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def counting(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    for attr in ADMM_SITES:
        wrap(admm_scoring, attr)
    for attr in SOLVER_SITES:
        wrap(solver, attr)
    inner = solver.inner_admm

    def recording(*args, **kwargs):
        before = calls["admm_scoring.update_Y"]
        run = inner(*args, **kwargs)
        runs.append((run.iterations, calls["admm_scoring.update_Y"] - before))
        return run

    monkeypatch.setattr(solver, "inner_admm", recording)
    return calls, runs


def _instance(gamma: float) -> ProblemInstance:
    X, _ = generate(SimulationConfig(n=60, p=20, k=3, theta=2.2, xi=0.5, seed=1000))
    return ProblemInstance(data=X, k=3, eta1=2.5, gamma=gamma, rho=0.1, v_mode="exact")


def test_a_fused_fit_reaches_every_scoring_span_site(counted):
    calls, runs = counted
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = solver.fit_rsodc(_instance(0.05), seed=0)
    reached = {f"admm_scoring.{attr}" for attr in ADMM_SITES} | {
        f"solver.{attr}" for attr in SOLVER_SITES if attr != "update_Y"}
    assert all(calls[key] > 0 for key in reached), calls
    # the fused Y step is the ADMM alone
    assert calls["solver.update_Y"] == 0
    # every call's return carries its own iteration count: one Y update each
    assert runs and all(iterations == updates for iterations, updates in runs)
    assert sum(iterations for iterations, _ in runs) == sum(fit.inner_iterations)
    assert calls["solver.inner_admm"] == len(runs)


def test_a_fusion_free_fit_reaches_the_solver_span_sites(counted):
    calls, runs = counted
    fit = solver.fit_sodc(_instance(0.0), seed=0)
    assert all(calls[f"solver.{attr}"] > 0 for attr in SOLVER_SITES if attr != "inner_admm")
    # one Procrustes solve per Y step, through solver.update_Y and its SVD
    assert calls["solver.update_Y"] == sum(fit.inner_iterations)
    assert calls["admm_scoring.thin_svd"] == calls["solver.update_Y"]
    assert runs == [] and calls["solver.inner_admm"] == 0
    assert all(calls[f"admm_scoring.{attr}"] == 0 for attr in
               ("assemble_D", "update_V", "update_Lambda", "augmented_lagrangian"))
