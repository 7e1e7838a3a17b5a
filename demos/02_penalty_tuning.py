"""Tune the sparsity and fusion penalties by split-half stability.

Each (eta1, gamma, rho) combination is scored by refitting on paired data
halves and measuring agreement of the selected-feature indicators with
Cohen's kappa. The grid here is a small excerpt so the demo finishes in
seconds; widen the lists for a real sweep.
"""

import warnings

from rsodc import ParamGrid, SimulationConfig, generate, stability_cv

# ---------------------------------------------------------------------------
# Planted data with 2 informative coordinates out of 20.
# ---------------------------------------------------------------------------

X, truth = generate(SimulationConfig(n=48, p=20, k=3, theta=2.5, xi=0.5, seed=4))

grid = ParamGrid(eta1_candidates=(0.5, 1.5, 2.5),
                 gamma_candidates=(0.001, 0.005),
                 rho_candidates=(0.01,), repeats=4)
print(f"grid: {len(grid.combos('exact'))} combinations, {grid.repeats} repeats each")

# ---------------------------------------------------------------------------
# Run the cross-validation. Fits that stall early warn; that is expected
# at aggressive penalties, so keep the demo output quiet.
# ---------------------------------------------------------------------------

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    best, table = stability_cv(X, k=3, grid=grid, seed=0, threads=2)

print("\n  eta1   gamma    rho   mean kappa")
for row in table:
    print(f"  {row['eta1']:4.1f}   {row['gamma']:.3f}   {row['rho']:.2f}   "
          f"{row['mean_kappa']:+.3f}")

print(f"\nbest: eta1={best['eta1']}, gamma={best['gamma']}, rho={best['rho']} "
      f"(mean kappa {best['mean_kappa']:.3f})")
