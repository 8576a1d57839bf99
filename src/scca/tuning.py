"""Hyperparameter selection: cross-validated correlation and permutation test.

Both tuners sweep a (gamma1, gamma2) grid. Cross-validation scores a cell by
the average held-out correlation of the fitted canonical covariates. It runs
fold by fold, and within a fold it does each step of a fit once for each
distinct value of what the step depends on: stage one by ``pattern_grid``,
which runs the first side at every first-side gamma as one ascent and the
second side once per first-side support at every second-side gamma as one
ascent, then stage two with the held-out correlation once per support
pair. The permutation test scores a cell by the fraction of row-permuted
refits whose correlation beats the matched fit, and counts the refits that
failed; it centres the views once per sweep and refits each cell's
permutations as one batch. Every
first-side iterate of a refit lies in the row space of the other view's
n x p data, so the batch's first side runs on a thin n x r factor of that
view (r <= n, formed once per sweep): a member-step costs n(r + p_first)
instead of n(p1 + p2). With the SVD stage two the refits whose supports
survive run stage two as one batch too, each masked to its supports, and
their correlations come from one product per view; the GEP stage two
solves each refit's pencil in turn.
A sweep runs on processes, not threads: one per usable CPU (at most
``jobs``), this one and forked children, each pinned to its own CPU, with
every loaded OpenBLAS at one thread for the whole sweep. Each process takes
the next fold or cell that no process has taken yet, in grid order, until
none is left, so a costly cell or a slow CPU holds up only the process that
has it; on ascending grids the costly small-gamma cells start first.
``jobs=1``, or a ``taskset`` to one CPU, keeps it in this process.
Every fit runs stage one from the one deterministic start the pair pipeline
uses, so the only randomness is in the folds and permutations. Their seeds
derive from (master seed, cell index), so reports are reproducible regardless
of process count or execution order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import cores, jsontext
from .covariance import CrossOperator, PermutedCross, ViewMatrix, center_scale, standardize
from .errors import (DegenerateInputError, DimensionError, EmptySupportError,
                     SingularityError)
from .pattern import ConvergenceSpec, pattern_grid, pattern_pair_batch
from .solve import check_stage2, fit_pair, pearson, power_svd_batch, stage_two


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
        if not all(0 <= g < np.inf for g in g1 + g2):
            raise ValueError("sparsity values must be finite and non-negative")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.permutations < 1:
            raise ValueError("need at least 1 permutation")
        object.__setattr__(self, "gamma1_values", g1)
        object.__setattr__(self, "gamma2_values", g2)

    def cells(self) -> list[tuple[int, int, int, float, float]]:
        """Every grid cell as (flat index, gamma1 index, gamma2 index,
        gamma1, gamma2), gamma2 varying fastest."""
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
    refit_failures: np.ndarray | None = None  # perm: failed refits per cell; nan = none ran
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
        if self.refit_failures is not None:
            out["refit_failures"] = [[None if np.isnan(v) else int(v) for v in row]
                                     for row in self.refit_failures]
        return out

    def to_json(self) -> str:
        return jsontext.dumps(self.to_dict())


@dataclass(frozen=True)
class FitConfig:
    """How each tuning cell fits the pair pipeline; stage one always runs
    from the pipeline's one deterministic start."""

    penalty: str = "l1"
    stage2: str = "svd"
    scale: bool = False


_log = logging.getLogger("scca")


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


def _cv_fold(x1: ViewMatrix, x2: ViewMatrix, hold: np.ndarray, cells: list,
             cfg: FitConfig, conv: ConvergenceSpec) -> list[tuple[float, str | None]]:
    """One fold's held-out correlation of every cell, each with its flag or None.

    Fold means change, so the fold centres (and scales) its training rows
    once, maps its held-out rows by their means and sds once, and builds one
    cross operator. Each step of a cell's ``fit_pair`` factor is then done
    once per fold for each distinct value of what it depends on (each side
    starts deterministically, so no step depends on the cell itself):
    - the first side: at every first-side gamma, as one ascent;
    - the second side: once per first-side support, at every second-side
      gamma, as one ascent (these two are ``pattern_grid``);
    - stage two and the held-out correlation: once per support pair.
    A failed step is kept as its error, so every cell that needs it fails
    with the same flag.
    """
    # a mask, not np.setdiff1d: that imports numpy.ma, once in every forked process
    train = np.ones(x1.n, dtype=bool)
    train[hold] = False
    d1, mu1, sd1, _ = standardize(x1.data[train], cfg.scale)
    d2, mu2, sd2, _ = standardize(x2.data[train], cfg.scale)
    op = CrossOperator.from_views(ViewMatrix(d1, x1.names, centered=True),
                                  ViewMatrix(d2, x2.names, centered=True))
    held1, held2 = (x1.data[hold] - mu1) / sd1, (x2.data[hold] - mu2) / sd2
    pairs = pattern_grid(op, [c[3] for c in cells], [c[4] for c in cells], cfg.penalty, conv)
    held_out: dict = {}
    out = []
    for *_, g1, g2 in cells:
        result = pairs[g1, g2]
        if not isinstance(result, Exception):
            key = (result.tau1.bits.tobytes(), result.tau2.bits.tobytes())
            if key not in held_out:
                try:
                    est = stage_two({(0, 1): op}, [result.tau1.indices(), result.tau2.indices()],
                                    cfg.stage2, conv)
                    z1, z2 = est.directions
                    held_out[key] = pearson(held1 @ z1, held2 @ z2)
                except (DegenerateInputError, SingularityError) as err:
                    held_out[key] = err
            result = held_out[key]
        if isinstance(result, Exception):
            # worded as fit_pair words a fit whose one factor failed
            out.append((0.0, f"fit failed (no factor could be fitted: factor 1: {result}); "
                             "rho recorded as 0"))
            continue
        rho, degenerate = result
        out.append((rho, "degenerate held-out covariate; rho recorded as 0"
                    if degenerate else None))
    return out


def _cv_cells(x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid, cells: list, cfg: FitConfig,
              conv: ConvergenceSpec, jobs: int | None, capped: bool) -> list[dict]:
    """Every cell's fold-averaged held-out correlation, fold by fold."""
    per_fold = _map(lambda hold: _cv_fold(x1, x2, hold, cells, cfg, conv),
                    _fold_slices(x1.n, grid.folds, grid.seed), jobs, capped, "cv folds")
    results = []
    for c in range(len(cells)):
        fold_rhos = np.array([fold[c][0] for fold in per_fold])
        flags = [f"fold {k + 1}: {fold[c][1]}" for k, fold in enumerate(per_fold)
                 if fold[c][1] is not None]
        results.append({"score": float(fold_rhos.mean()), "trace": fold_rhos,
                        "flags": flags, "failed": False, "matched_rho": np.nan,
                        "refit_failures": np.nan})
    return results


@dataclass(frozen=True)
class _PermSweep:
    """What every permutation cell shares. A row permutation keeps column
    means and sds, so both views are centred (and scaled) once per sweep,
    and their n x n Grams and thin factors (n x r, r <= n, root root' =
    Gram) are formed once too."""

    v1: ViewMatrix
    v2: ViewMatrix
    div: float
    gram1: np.ndarray
    gram2: np.ndarray
    root1: np.ndarray
    root2: np.ndarray

    @classmethod
    def prepare(cls, x1: ViewMatrix, x2: ViewMatrix, cfg: FitConfig) -> "_PermSweep":
        v1, v2 = center_scale(x1, scale=cfg.scale), center_scale(x2, scale=cfg.scale)
        return cls(v1, v2, CrossOperator.from_views(v1, v2).div,
                   v1.data @ v1.data.T, v2.data @ v2.data.T,
                   np.linalg.qr(v1.data.T, mode="r").T, np.linalg.qr(v2.data.T, mode="r").T)

    def batch(self, perms: np.ndarray) -> PermutedCross:
        """The cross-covariances of view 1's rows permuted by each column of ``perms``."""
        return PermutedCross(self.v1.data, self.v2.data, self.div, perms,
                             np.argsort(perms, axis=0), self.gram1, self.gram2,
                             self.root1, self.root2)


def _permutations(seed: int, cell_index: int, n: int, count: int) -> np.ndarray:
    """A cell's row permutations, one per column, drawn from its own stream."""
    rng = np.random.default_rng(_cell_seed(seed, cell_index))
    return np.column_stack([rng.permutation(n) for _ in range(count)])


def _abs_correlations(batch: PermutedCross, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """|rho| of every member k's covariates A[idx_k] z1_k and B z2_k (columns
    k of z1 and z2), from one product per view and a row gather; 0 where a
    covariate is constant, as :func:`pearson` records it."""
    count = z1.shape[1]
    a = (batch.a @ z1).ravel().take(batch.idx * count + np.arange(count))
    b = batch.b @ z2
    a -= a.mean(axis=0)
    b -= b.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", a, a) * np.einsum("ij,ij->j", b, b))
    usable = norms > 0
    return np.where(usable, np.abs(np.einsum("ij,ij->j", a, b)) / np.where(usable, norms, 1.0),
                    0.0)


def _batched_refits(sweep: _PermSweep, perms: np.ndarray, g1: float, g2: float,
                    cfg: FitConfig, conv: ConvergenceSpec) -> tuple[np.ndarray, int]:
    """|rho| of the refit of every permutation (a column of ``perms``) of view
    1's rows, and how many refits failed: stage one for all of them as one
    batch, then stage two and the correlation for the members whose supports
    survived. The SVD stage two runs them as one batch too, each member
    masked to its supports (``power_svd_batch``), and an all-zero shrunk
    block is a failed refit; the GEP stage two solves each member's own
    pencil in turn. A failed refit counts as rho 0, so it never beats the
    matched fit."""
    batch = sweep.batch(perms)
    found = pattern_pair_batch(batch, g1, g2, penalty=cfg.penalty, conv=conv)
    rhos = np.zeros(perms.shape[1])
    failures = int((~found.ok).sum())
    keep = np.flatnonzero(found.ok)
    if cfg.stage2 == "svd":
        if keep.size:
            members = batch.take(keep)
            z1, z2, ok = power_svd_batch(replace(members, rmask=found.tau1[:, keep],
                                                 cmask=found.tau2[:, keep]), conv)
            rhos[keep] = _abs_correlations(members, z1, z2) * ok
            failures += int((~ok).sum())
        return rhos, failures
    for k in keep:
        member = batch.member(k)
        try:
            est = stage_two({(0, 1): member}, [np.flatnonzero(found.tau1[:, k]),
                                                np.flatnonzero(found.tau2[:, k])],
                            cfg.stage2, conv)
        except (DegenerateInputError, SingularityError):
            failures += 1
            continue
        z1, z2 = est.directions
        rhos[k] = abs(pearson(member.a @ z1, member.b @ z2)[0])
    return rhos, failures


def _perm_cell(sweep: _PermSweep, g1: float, g2: float, grid: TuneGrid, cfg: FitConfig,
               conv: ConvergenceSpec, cell_index: int) -> dict:
    try:
        sol = fit_pair(sweep.v1, sweep.v2, g1, g2, factors=1, penalty=cfg.penalty, conv=conv,
                       stage2=cfg.stage2)
    except (EmptySupportError, DegenerateInputError) as err:
        return {"score": np.nan, "trace": np.zeros(grid.permutations),
                "flags": [f"matched fit failed: {err}"], "failed": True,
                "matched_rho": np.nan, "refit_failures": np.nan}
    rho = abs(float(sol.correlations[0]))
    perms = _permutations(grid.seed, cell_index, sweep.v1.n, grid.permutations)
    perm_rhos, failures = _batched_refits(sweep, perms, g1, g2, cfg, conv)
    p_value = float(np.mean(perm_rhos > rho))
    flags = []
    size = sum(view[0].active_count for view in sol.patterns)
    if cfg.stage2 == "gep" and size >= sweep.v1.n:
        # centred views span at most n - 1 dimensions, so supports this
        # large share a covariate and the pencil's rho is 1 up to rounding
        flags.append(f"GEP stage two on |S1|+|S2| = {size} >= n = {sweep.v1.n} coordinates: "
                     "the matched rho is 1 by construction, so the p-value ranks rounding noise")
    return {"score": p_value, "trace": perm_rhos, "flags": flags, "failed": False,
            "matched_rho": rho, "refit_failures": failures}


def _map(fn: Callable, items: list, jobs: int | None, capped: bool, what: str) -> list:
    """``fn`` of every item, in order, on min(usable CPUs, items, ``jobs``)
    processes: this one and forked, pinned children, each taking the next
    item not yet taken, in item order, until none is left
    (``cores.run_queue``). Runs here, item by item, for ``jobs=1``, one
    usable CPU, no ``os.fork``, one item, or no OpenBLAS thread control
    (``capped`` False: pinned processes would share their CPU with BLAS
    threads). Logs one debug record: the process count and how many items
    each process returned, or why it runs here."""
    cpus = cores.usable_cpus()
    reason = ("jobs=1" if jobs == 1 else "no fork" if not cpus else
              "one CPU" if len(cpus) == 1 else "one item" if len(items) == 1 else
              "no BLAS control" if not capped else None)
    if reason is not None:
        _log.debug("tuning sweep of %d %s: 1 process (%s)", len(items), what, reason)
        return [fn(item) for item in items]
    workers = min(len(cpus), len(items), jobs or len(cpus))
    out, taken = cores.run_queue(lambda k: fn(items[k]), len(items), cpus[:workers])
    _log.debug("tuning sweep of %d %s: %d processes (items per process: %s)", len(items),
               what, workers, ", ".join(map(str, taken)))
    return out


def grid_orchestrate(mode: str, x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid,
                     cfg: FitConfig | None = None,
                     conv: ConvergenceSpec | None = None,
                     jobs: int | None = None) -> TuneReport:
    """Run every grid cell and assemble the report.

    Cross-validation runs fold by fold and the permutation test cell by
    cell, on up to ``jobs`` processes (default: one per usable CPU): this
    one and forked children, each pinned to its own CPU. ``jobs=1`` runs
    the sweep in this process; so does a ``taskset`` to one CPU. For the
    whole sweep every loaded OpenBLAS runs at one thread, whether or not
    it forks, so the report is byte-identical for any process count, CPU
    count or completion order; where no OpenBLAS thread control is found
    the sweep runs here on the BLAS threads it has. Per-cell failures are
    recorded without aborting the sweep.
    """
    if mode not in ("cv", "perm"):
        raise ValueError("mode must be 'cv' or 'perm'")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if x1.n != x2.n:
        raise DimensionError(f"sample counts differ: {x1.n} vs {x2.n}")
    if mode == "cv" and x1.n < 2 * grid.folds:
        raise DimensionError("need n >= 2k for k-fold tuning")
    cfg = cfg or FitConfig()
    conv = conv or ConvergenceSpec()
    check_stage2(cfg.stage2, 2)
    cells = grid.cells()
    if cfg.stage2 == "gep":
        # scipy brings its own OpenBLAS: load it here, unpinned, so that it
        # starts with every CPU and the thread cap below covers it too
        import scipy.linalg  # noqa: F401
    with cores.one_blas_thread() as capped:
        if mode == "cv":
            results = _cv_cells(x1, x2, grid, cells, cfg, conv, jobs, capped)
        else:
            sweep = _PermSweep.prepare(x1, x2, cfg)
            results = _map(lambda cell: _perm_cell(sweep, cell[3], cell[4], grid, cfg, conv,
                                                   cell[0]), cells, jobs, capped, "perm cells")

    n1, n2 = len(grid.gamma1_values), len(grid.gamma2_values)
    width = grid.folds if mode == "cv" else grid.permutations
    scores = np.full((n1, n2), np.nan)
    traces = np.zeros((n1, n2, width))
    matched = np.full((n1, n2), np.nan)
    refit_failures = np.full((n1, n2), np.nan)
    failures: list[str] = []
    flags: list[str] = []
    for idx, i, j, g1, g2 in cells:
        res = results[idx]
        scores[i, j] = res["score"]
        traces[i, j] = res["trace"]
        matched[i, j] = res["matched_rho"]
        refit_failures[i, j] = res["refit_failures"]
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
                      refit_failures=refit_failures if mode == "perm" else None,
                      failures=failures, flags=flags)


def cv_tune(x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid,
            conv: ConvergenceSpec | None = None, cfg: FitConfig | None = None,
            jobs: int | None = None) -> TuneReport:
    """k-fold cross-validated correlation over the grid; the chosen point
    maximizes the fold-averaged held-out correlation, ties toward sparser.
    Each fit is ``cfg``'s (penalty included)."""
    return grid_orchestrate("cv", x1, x2, grid, cfg=cfg, conv=conv, jobs=jobs)


def perm_tune(x1: ViewMatrix, x2: ViewMatrix, grid: TuneGrid,
              conv: ConvergenceSpec | None = None, cfg: FitConfig | None = None,
              jobs: int | None = None) -> TuneReport:
    """Independence permutation test over the grid; the chosen point
    minimizes the p-value, ties toward sparser. Each fit is ``cfg``'s
    (penalty included)."""
    return grid_orchestrate("perm", x1, x2, grid, cfg=cfg, conv=conv, jobs=jobs)
