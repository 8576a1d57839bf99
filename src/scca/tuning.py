"""Hyperparameter selection: cross-validated correlation and permutation test.

Both tuners sweep a (gamma1, gamma2) grid. Cross-validation scores a cell by
the average held-out correlation of the fitted canonical covariates; the
permutation test scores it by the fraction of row-permuted refits whose
correlation beats the matched fit. Cells are independent tasks with seeds
derived from (master seed, cell index), so reports are reproducible
regardless of worker count or execution order.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .covariance import ViewMatrix, center_scale
from .errors import DegenerateInputError, DimensionError, EmptySupportError
from .pattern import ConvergenceSpec
from .solve import fit_pair, pearson


@dataclass(frozen=True)
class TuneGrid:
    """Grid of sparsity values plus resampling sizes and the master seed."""

    gamma1_values: tuple[float, ...]
    gamma2_values: tuple[float, ...]
    folds: int = 5
    permutations: int = 100
    seed: int = 0

    def __post_init__(self):
        g1 = tuple(float(g) for g in self.gamma1_values)
        g2 = tuple(float(g) for g in self.gamma2_values)
        if not g1 or not g2:
            raise ValueError("grids must be non-empty")
        if any(g < 0 for g in g1 + g2):
            raise ValueError("sparsity values must be non-negative")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.permutations < 1:
            raise ValueError("need at least 1 permutation")
        object.__setattr__(self, "gamma1_values", g1)
        object.__setattr__(self, "gamma2_values", g2)

    def cells(self) -> list[tuple[int, int, float, float]]:
        out = []
        idx = 0
        for i, g1 in enumerate(self.gamma1_values):
            for j, g2 in enumerate(self.gamma2_values):
                out.append((idx, i, j, g1, g2))
                idx += 1
        return out


@dataclass(eq=False)
class TuneReport:
    """Per-cell scores and traces, the chosen point, and recorded failures."""

    mode: str
    gamma1_values: tuple[float, ...]
    gamma2_values: tuple[float, ...]
    scores: np.ndarray                 # rho_cv (cv) or p-value (perm); nan = unusable
    traces: np.ndarray                 # per-fold or per-permutation values
    chosen: tuple[float, float]
    chosen_index: tuple[int, int]
    matched_rho: np.ndarray | None = None
    failures: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "gamma1_values": list(self.gamma1_values),
            "gamma2_values": list(self.gamma2_values),
            "scores": [[None if np.isnan(v) else float(v) for v in row]
                       for row in self.scores],
            "traces": self.traces.tolist(),
            "chosen": {"gamma1": self.chosen[0], "gamma2": self.chosen[1]},
            "chosen_index": list(self.chosen_index),
            "failures": list(self.failures),
            "flags": list(self.flags),
        }
        if self.matched_rho is not None:
            out["matched_rho"] = self.matched_rho.tolist()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass(frozen=True)
class FitConfig:
    """How each tuning cell fits the pair pipeline."""

    penalty: str = "l1"
    stage2: str = "svd"
    scale: bool = False
    ridge: float = 0.0
    order: str = "auto"
    restarts: int = 0
    divisor: str = "n"


def _cell_seed(master: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(index,))


def _fold_slices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous blocks; remainders go to the first folds."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xF01D,)))
    order = rng.permutation(n)
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    folds, start = [], 0
    for size in sizes:
        folds.append(np.sort(order[start:start + size]))
        start += size
    return folds


def _fit_directions(d1: np.ndarray, d2: np.ndarray, g1: float, g2: float,
                    cfg: FitConfig, conv: ConvergenceSpec,
                    seed: int) -> tuple[np.ndarray, np.ndarray, object, object]:
    """Center/scale raw sample blocks and fit one factor; returns directions
    plus the per-column transforms needed to map held-out rows."""
    v1 = ViewMatrix(d1, [f"V{j+1}" for j in range(d1.shape[1])])
    v2 = ViewMatrix(d2, [f"V{j+1}" for j in range(d2.shape[1])])
    mu1, mu2 = d1.mean(axis=0), d2.mean(axis=0)
    if cfg.scale:
        sd1 = np.where(d1.std(axis=0, ddof=1) > 0, d1.std(axis=0, ddof=1), 1.0)
        sd2 = np.where(d2.std(axis=0, ddof=1) > 0, d2.std(axis=0, ddof=1), 1.0)
    else:
        sd1 = np.ones(d1.shape[1])
        sd2 = np.ones(d2.shape[1])
    c1 = center_scale(v1, scale=cfg.scale)
    c2 = center_scale(v2, scale=cfg.scale)
    sol = fit_pair(c1, c2, g1, g2, factors=1, penalty=cfg.penalty, conv=conv,
                   stage2=cfg.stage2, ridge=cfg.ridge, order=cfg.order,
                   restarts=cfg.restarts, seed=seed, divisor=cfg.divisor)
    return sol.directions[0][:, 0], sol.directions[1][:, 0], (mu1, sd1), (mu2, sd2)


def _cv_cell(x1: np.ndarray, x2: np.ndarray, g1: float, g2: float,
             grid: TuneGrid, cfg: FitConfig, conv: ConvergenceSpec,
             cell_index: int) -> dict:
    folds = _fold_slices(x1.shape[0], grid.folds, grid.seed)
    all_idx = np.arange(x1.shape[0])
    fold_rhos = np.zeros(grid.folds)
    flags = []
    for k, hold in enumerate(folds):
        train = np.setdiff1d(all_idx, hold)
        try:
            z1, z2, t1, t2 = _fit_directions(x1[train], x2[train], g1, g2, cfg,
                                             conv, seed=cell_index)
        except (EmptySupportError, DegenerateInputError) as err:
            fold_rhos[k] = 0.0
            flags.append(f"fold {k + 1}: fit failed ({err}); rho recorded as 0")
            continue
        h1 = (x1[hold] - t1[0]) / t1[1]
        h2 = (x2[hold] - t2[0]) / t2[1]
        rho, degenerate = pearson(h1 @ z1, h2 @ z2)
        if degenerate:
            flags.append(f"fold {k + 1}: degenerate held-out covariate; rho recorded as 0")
        fold_rhos[k] = rho
    return {"score": float(fold_rhos.mean()), "trace": fold_rhos, "flags": flags,
            "failed": False, "matched_rho": np.nan}


def _perm_cell(x1: np.ndarray, x2: np.ndarray, g1: float, g2: float,
               grid: TuneGrid, cfg: FitConfig, conv: ConvergenceSpec,
               cell_index: int) -> dict:
    flags: list[str] = []
    try:
        z1, z2, t1, t2 = _fit_directions(x1, x2, g1, g2, cfg, conv, seed=cell_index)
    except (EmptySupportError, DegenerateInputError) as err:
        return {"score": np.nan, "trace": np.zeros(grid.permutations),
                "flags": [f"matched fit failed: {err}"], "failed": True,
                "matched_rho": np.nan}
    rho, _ = pearson(((x1 - t1[0]) / t1[1]) @ z1, ((x2 - t2[0]) / t2[1]) @ z2)
    rho = abs(rho)
    rng = np.random.default_rng(_cell_seed(grid.seed, cell_index))
    perm_rhos = np.zeros(grid.permutations)
    for p in range(grid.permutations):
        perm = rng.permutation(x1.shape[0])
        x1p = x1[perm]
        try:
            z1p, z2p, t1p, t2p = _fit_directions(x1p, x2, g1, g2, cfg, conv,
                                                 seed=cell_index)
            rp, _ = pearson(((x1p - t1p[0]) / t1p[1]) @ z1p,
                             ((x2 - t2p[0]) / t2p[1]) @ z2p)
            perm_rhos[p] = abs(rp)
        except (EmptySupportError, DegenerateInputError):
            perm_rhos[p] = 0.0  # conservative: a failed permutation fit never beats rho
    p_value = float(np.mean(perm_rhos > rho))
    return {"score": p_value, "trace": perm_rhos, "flags": flags, "failed": False,
            "matched_rho": rho}


def grid_orchestrate(mode: str, x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid,
                     cfg: FitConfig | None = None,
                     conv: ConvergenceSpec | None = None,
                     jobs: int | None = None) -> TuneReport:
    """Run every grid cell (optionally in parallel) and assemble the report.

    Results are keyed by cell index so the report is identical for any
    worker count or completion order. Per-cell failures are recorded
    without aborting the sweep.
    """
    if mode not in ("cv", "perm"):
        raise ValueError("mode must be 'cv' or 'perm'")
    if x1.n != x2.n:
        raise DimensionError("views must share samples")
    if mode == "cv" and x1.n < 2 * grid.folds:
        raise DimensionError("need n >= 2k for k-fold tuning")
    cfg = cfg or FitConfig()
    conv = conv or ConvergenceSpec()
    cell_fn: Callable = _cv_cell if mode == "cv" else _perm_cell
    d1, d2 = x1.data, x2.data

    cells = grid.cells()
    results: list[dict | None] = [None] * len(cells)

    def run(cell):
        idx, _i, _j, g1, g2 = cell
        return idx, cell_fn(d1, d2, g1, g2, grid, cfg, conv, idx)

    if jobs is not None and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for idx, res in pool.map(run, cells):
                results[idx] = res
    else:
        for cell in cells:
            idx, res = run(cell)
            results[idx] = res

    n1, n2 = len(grid.gamma1_values), len(grid.gamma2_values)
    width = grid.folds if mode == "cv" else grid.permutations
    scores = np.full((n1, n2), np.nan)
    traces = np.zeros((n1, n2, width))
    matched = np.full((n1, n2), np.nan)
    failures: list[str] = []
    flags: list[str] = []
    for idx, i, j, g1, g2 in cells:
        res = results[idx]
        scores[i, j] = res["score"]
        traces[i, j] = res["trace"]
        matched[i, j] = res["matched_rho"]
        label = f"(gamma1={g1:g}, gamma2={g2:g})"
        if res["failed"]:
            failures.append(f"{label}: " + "; ".join(res["flags"]))
        else:
            flags.extend(f"{label}: {msg}" for msg in res["flags"])

    usable = ~np.isnan(scores)
    if not usable.any():
        raise EmptySupportError("every grid cell failed; widen the grid")

    best: tuple | None = None
    for idx, i, j, g1, g2 in cells:
        if np.isnan(scores[i, j]):
            continue
        primary = -scores[i, j] if mode == "cv" else scores[i, j]
        # ties lean toward sparser models: larger gamma1+gamma2, then gamma2
        key = (primary, -(g1 + g2), -g2, -g1)
        if best is None or key < best[0]:
            best = (key, (i, j), (g1, g2))
    return TuneReport(mode=mode, gamma1_values=grid.gamma1_values,
                      gamma2_values=grid.gamma2_values, scores=scores,
                      traces=traces, chosen=best[2], chosen_index=best[1],
                      matched_rho=matched if mode == "perm" else None,
                      failures=failures, flags=flags)


def cv_tune(x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid,
            penalty: str = "l1", conv: ConvergenceSpec | None = None,
            cfg: FitConfig | None = None, jobs: int | None = None) -> TuneReport:
    """k-fold cross-validated correlation over the grid; the chosen point
    maximizes the fold-averaged held-out correlation, ties toward sparser."""
    cfg = cfg or FitConfig()
    cfg = FitConfig(penalty=penalty, stage2=cfg.stage2, scale=cfg.scale,
                    ridge=cfg.ridge, order=cfg.order, restarts=cfg.restarts,
                    divisor=cfg.divisor)
    return grid_orchestrate("cv", x1, x2, grid, cfg=cfg, conv=conv, jobs=jobs)


def perm_tune(x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid,
              penalty: str = "l1", conv: ConvergenceSpec | None = None,
              cfg: FitConfig | None = None, jobs: int | None = None) -> TuneReport:
    """Independence permutation test over the grid; the chosen point
    minimizes the p-value, ties toward sparser."""
    cfg = cfg or FitConfig()
    cfg = FitConfig(penalty=penalty, stage2=cfg.stage2, scale=cfg.scale,
                    ridge=cfg.ridge, order=cfg.order, restarts=cfg.restarts,
                    divisor=cfg.divisor)
    return grid_orchestrate("perm", x1, x2, grid, cfg=cfg, conv=conv, jobs=jobs)
