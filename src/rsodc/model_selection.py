"""Tuning-parameter selection by kappa-based clustering stability and
cluster-number selection by the gap statistic.

Stability scoring fits the solver on two random halves of the data with the
same weights and compares which variables each half selects; weights whose
selected support replicates across splits score high. The gap statistic
compares the k-means dispersion of an embedding against uniform reference
draws from its bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ProblemInstance, ZERO_TOL, check_matrix, child_seed, parallel_map, thin_svd
from . import fusion_graph  # compute_weights looked up where a tracer wraps it
from .fusion_graph import cap_delta
from .solver import fit_rsodc, kmeans, outcome_counts, summed_outcome_counts

PAPER_ETA1 = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
PAPER_GAMMA = (0.001, 0.003, 0.005, 0.007, 0.01)
PAPER_RHO = (0.01, 0.03, 0.05, 0.07, 0.1)

# Defaults of the gap-statistic choice of k, shared with the command line.
GAP_K_RANGE = range(2, 10)
GAP_MC_SAMPLES = 100
GAP_RESTARTS = 10
# Restarts per reference draw, at most the data's: they only lower the
# optimisation bias of E*[log W_k], which moves every k's gap alike.
GAP_REF_RESTARTS = 3

DISPERSION_FLOOR = 1e-12

# Bound on restarts * n * k, the distance entries held per set, summed over
# the reference draws the gap statistic stacks into one k-means call.
GAP_BLOCK_ELEMENTS = 1 << 16


@dataclass
class ParamGrid:
    """Candidate weights; combos("paper") keeps only gamma / rho < 1."""

    eta1_candidates: tuple = PAPER_ETA1
    gamma_candidates: tuple = PAPER_GAMMA
    rho_candidates: tuple = PAPER_RHO
    repeats: int = 10

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for name in ("eta1_candidates", "gamma_candidates", "rho_candidates"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")

    def combos(self, v_mode: str) -> list:
        """Every (eta1, gamma, rho) combination; the paper V step needs
        gamma / rho < 1, so under v_mode "paper" the others are dropped."""
        out = [(e1, g, r)
               for e1 in self.eta1_candidates
               for g in self.gamma_candidates
               for r in self.rho_candidates
               if v_mode != "paper" or g / r < 1.0]
        if not out:
            raise ValueError("no candidate combination satisfies gamma / rho < 1")
        return out


@dataclass
class GapCurve:
    """gap and standard-error values per candidate cluster count."""

    k_candidates: list
    gap: np.ndarray
    se: np.ndarray
    chosen_k: int


def selection_indicator(B) -> np.ndarray:
    """Binary vector marking rows of B with any entry above 1e-12."""
    B = check_matrix(B, "B")
    return (np.abs(B) > ZERO_TOL).any(axis=1).astype(int)


def kappa(a, b) -> float:
    """Cohen's kappa between two binary selection vectors.

    Both-all-zero and both-all-one pairs return -1 (degenerate selections
    are treated as maximally unstable). The remaining chance-agreement
    corner p_e = 1 cannot occur outside those cases; it would return 0.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError("vectors must share a positive length")
    for v in (a, b):
        if not np.isin(v, (0, 1)).all():
            raise ValueError("vectors must be binary")
    if (a.sum() == 0 and b.sum() == 0) or (a.sum() == a.size and b.sum() == b.size):
        return -1.0
    p_o = float(np.mean(a == b))
    pa, pb = float(np.mean(a)), float(np.mean(b))
    p_e = pa * pb + (1.0 - pa) * (1.0 - pb)
    if p_e == 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def stability_cv(X, k: int, grid: ParamGrid = None, seed: int = 0, threads: int = 1,
                 **settings):
    """Pick the weight combination whose variable selection is most stable.

    For every combo and each of grid.repeats random half splits (sizes
    floor(n/2) and the rest; splits shared across combos), the solver runs
    on both halves and the kappa of the two selection indicators is
    recorded. Every fit takes the grid's eta1, gamma and rho, and its other
    ProblemInstance fields from settings; each combo's instance is built
    before any fit runs, so a setting no fit can take raises ValueError
    here. One graph per half, delta capped at floor(n/2) - 1, serves every
    combo's fit there at its own rho (none when every gamma is 0). A failed
    fit contributes kappa -1 with a warning. The best combo maximizes mean
    kappa; ties go to the smallest (eta1, gamma, rho).

    Returns
    -------
    (best, table)
        best: dict with eta1, gamma, rho, mean_kappa and ties, the number
        of combos whose mean kappa equals the best's (the best's own
        included). table: one dict per combo with the per-repeat kappas,
        the failure count, and the solver.outcome_counts of its
        2 * repeats fits, those of a repeat that failed left out.
    """
    X = check_matrix(X, "X")
    n = X.shape[0]
    if n < 4:
        raise ValueError("need n >= 4 for two nonempty halves")
    grid = grid if grid is not None else ParamGrid()
    half = n // 2
    splits = []
    for r in range(grid.repeats):
        perm = np.random.default_rng(child_seed(seed, 2, r)).permutation(n)
        splits.append((np.sort(perm[:half]), np.sort(perm[half:])))
    # every combo's instance, checked on the smaller half, which also bounds
    # delta for both halves
    base = ProblemInstance(data=X[splits[0][0]], k=k, **settings)
    base = replace(base, delta=cap_delta(base.delta, half))
    combos = grid.combos(base.v_mode)
    instances = [replace(base, eta1=eta1, gamma=gamma, rho=rho)
                 for eta1, gamma, rho in combos]
    fused = any(gamma > 0.0 for _, gamma, _ in combos)
    graphs = [[fusion_graph.compute_weights(X[rows], base.tau, base.delta) if fused else None
               for rows in pair] for pair in splits]

    def split_kappa(item):
        ci, r = item
        fits = [fit_rsodc(replace(instances[ci], data=X[rows]), graphs[r][side],
                          seed=child_seed(seed, 3, ci, r, side))
                for side, rows in enumerate(splits[r])]
        return kappa(*(selection_indicator(fit.B_hat) for fit in fits)), outcome_counts(fits)

    items = [(ci, r) for ci in range(len(combos)) for r in range(grid.repeats)]
    values = parallel_map(split_kappa, items, threads)
    kappas = np.array([-1.0 if v is None else v[0] for v in values]).reshape(
        len(combos), grid.repeats)
    means = kappas.mean(axis=1)
    table = []
    for ci, (eta1, gamma, rho) in enumerate(combos):
        counts = [v[1] for v in values[ci * grid.repeats:(ci + 1) * grid.repeats]
                  if v is not None]
        table.append({"eta1": eta1, "gamma": gamma, "rho": rho,
                      "mean_kappa": float(means[ci]), "kappas": kappas[ci].tolist(),
                      "failures": grid.repeats - len(counts),
                      **summed_outcome_counts(counts)})
    bi = min(range(len(combos)), key=lambda ci: (-means[ci],) + combos[ci])
    best = {key: table[bi][key] for key in ("eta1", "gamma", "rho", "mean_kappa")}
    best["ties"] = int(np.count_nonzero(means == means[bi]))
    return best, table


def choose_k_from_curve(k_candidates, gap, se) -> int:
    """Smallest k with gap(k) >= gap(next) - se(next); argmax gap fallback."""
    gap = np.asarray(gap, dtype=float)
    se = np.asarray(se, dtype=float)
    ks = list(k_candidates)
    for i in range(len(ks) - 1):
        if gap[i] >= gap[i + 1] - se[i + 1]:
            return ks[i]
    return ks[int(np.argmax(gap))]


def reference_restarts(restarts: int) -> int:
    """k-means restarts per gap reference draw when the data takes `restarts`."""
    return min(restarts, GAP_REF_RESTARTS)


def gap_statistic(points, k_range, mc_samples: int = GAP_MC_SAMPLES, seed: int = 0,
                  restarts: int = GAP_RESTARTS, reference: str = "uniform") -> GapCurve:
    """Gap curve of a point set over candidate cluster counts.

    gap(k) averages log(W*_k) - log(W_k) over mc_samples uniform reference
    draws from the bounding box of `points` (reference="pca" aligns the box
    with the principal axes first); W is the k-means within-cluster sum of
    squares, floored at 1e-12 before the log. se(k) is the reference
    standard deviation scaled by sqrt(1 + 1/mc_samples). The data goes to
    k-means alone with `restarts` restarts, seeded from (seed, 7, k). Each k
    has one stream per role: its reference draws come from (seed, 8, k), in
    draw order, and their k-means++ seeding from (seed, 9, k), in draw
    order too, reference_restarts(restarts) restarts each. The draws go to
    k-means in stacks of up to GAP_BLOCK_ELEMENTS // (that count n k) sets;
    each stream is read in the order a one-call-per-draw loop reads it, so
    the block size changes no value, and the values for one k do not
    depend on which other candidates are in k_range.
    """
    P = check_matrix(points, "points")
    n, p = P.shape
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k_range")
    if ks[0] < 1 or ks[-1] > n - 1:
        raise ValueError(f"k candidates must lie in [1, {n - 1}]")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if reference not in ("uniform", "pca"):
        raise ValueError("reference must be 'uniform' or 'pca'")
    if reference == "pca":
        mu = P.mean(axis=0)
        _, _, R = thin_svd(P - mu)
        frame = (P - mu) @ R
    else:
        frame = P
    lo, hi = frame.min(axis=0), frame.max(axis=0)

    def log_dispersion(sets, k, tries, seeds):
        _, centroids = kmeans(sets, k, tries, seeds)
        return np.log(np.maximum(centroids.inertia, DISPERSION_FLOOR))

    ref_restarts = reference_restarts(restarts)
    gap = np.empty(len(ks))
    se = np.empty(len(ks))
    for idx, k in enumerate(ks):
        per_block = max(1, GAP_BLOCK_ELEMENTS // (ref_restarts * n * k))
        draws = np.random.default_rng(child_seed(seed, 8, k))
        seeding = np.random.default_rng(child_seed(seed, 9, k))
        refs = []
        for start in range(0, mc_samples, per_block):
            size = min(per_block, mc_samples - start)
            sets = lo + draws.random((size, n, p)) * (hi - lo)
            if reference == "pca":
                sets = sets @ R.T + mu
            refs.extend(log_dispersion(sets, k, ref_restarts, [seeding] * size))
        refs = np.array(refs)
        gap[idx] = refs.mean() - log_dispersion(P, k, restarts, child_seed(seed, 7, k))
        se[idx] = refs.std(ddof=0) * np.sqrt(1.0 + 1.0 / mc_samples)
    return GapCurve(k_candidates=ks, gap=gap, se=se,
                    chosen_k=choose_k_from_curve(ks, gap, se))


def select_k_by_gap(X, k_range=GAP_K_RANGE, mc_samples: int = GAP_MC_SAMPLES,
                    restarts: int = GAP_RESTARTS, seed: int = 0, threads: int = 1,
                    **settings):
    """Choose the cluster count by the gap statistic on per-k embeddings.

    Each candidate k gets its own solver fit (embedding dimension k - 1), all
    on one fusion graph, or none when gamma = 0; the gap and its standard
    error are computed on that embedding. Every fit takes its ProblemInstance
    fields but data and k from settings; each candidate's instance is built
    before any fit runs, so a setting no fit can take raises ValueError
    here. The chosen k is the smallest with gap(k) >= gap(k+1) - se(k+1),
    falling back to the argmax. Candidates whose fit fails are excluded
    with a warning.

    Returns
    -------
    (chosen_k, GapCurve, fits)
        fits maps each surviving candidate k to its FitResult.
    """
    X = check_matrix(X, "X")
    n = X.shape[0]
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[-1] > n - 1:
        raise ValueError(f"k candidates must lie in [2, {n - 1}], got {ks}")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    instances = {k: ProblemInstance(data=X, k=k, **settings) for k in ks}
    first = instances[ks[0]]  # every candidate has the same graph settings
    graph = None
    if first.gamma > 0.0:
        # capped once here, so that the candidates' fits do not warn again
        delta = cap_delta(first.delta, n)
        instances = {k: replace(inst, delta=delta) for k, inst in instances.items()}
        graph = fusion_graph.compute_weights(X, first.tau, delta)

    def fit_and_gap(k):
        fit = fit_rsodc(instances[k], graph, seed=child_seed(seed, 5, k))
        return fit, gap_statistic(fit.embedding, [k], mc_samples, seed, restarts)

    fits, gap, se = {}, [], []
    for k, result in zip(ks, parallel_map(fit_and_gap, ks, threads)):
        if result is not None:
            fits[k] = result[0]
            gap.append(result[1].gap[0])
            se.append(result[1].se[0])
    if not fits:
        raise RuntimeError("every candidate k failed")
    curve = GapCurve(k_candidates=list(fits), gap=np.array(gap), se=np.array(se),
                     chosen_k=choose_k_from_curve(list(fits), gap, se))
    return curve.chosen_k, curve, fits
