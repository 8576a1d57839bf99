"""Multi-view stage one: per-view sparsity patterns with successive shrinkage.

For a target view s, all other views' iterates are swept cyclically; the
summed projections of view s's coordinates are thresholded by the row sum
of the sparsity parameter matrix. Patterns are computed last view first,
each one shrinking every block that touches its view before the next solve.
Every pair's cross-covariance is a factored ``CrossOperator``, so a sweep
costs O(n sum p) and no p_r x p_s block is formed before stage two, which
gets the doubly shrunken blocks only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CrossOperator, SparsityPattern, ViewMatrix
from .errors import DegenerateInputError, DimensionError, EmptySupportError
from .pattern import ConvergenceSpec, _hinge, init_direction
from .solve import CcaSolution, check_stage2, covariates, stage_two


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """m x m finite, non-negative sparsity parameter matrix with zero diagonal.

    Row s's sum is the effective threshold for view s's coordinates.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DimensionError("gamma matrix must be square")
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise ValueError("gamma matrix entries must be finite and non-negative")
        if np.any(np.diag(values) != 0):
            raise ValueError("gamma matrix diagonal must be zero")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    def threshold(self, s: int) -> float:
        return float(self.values[s].sum())

    @classmethod
    def for_pair(cls, gamma1: float, gamma2: float) -> "GammaMatrix":
        """Two-view matrix whose row sums reproduce the pair thresholds."""
        return cls(np.array([[0.0, gamma1], [gamma2, 0.0]]))


@dataclass(eq=False)
class MultiViewProblem:
    """Views plus their (possibly shrunken) upper-triangular cross-covariances.

    ``active[r]`` maps the current coordinates of view r back to global
    indices; each unordered pair's covariance is stored once, as a
    ``CrossOperator``, and re-oriented on access so that ``tilde(r, s)``
    always has view r's coordinates as rows.
    """

    views: list[ViewMatrix]
    blocks: dict[tuple[int, int], CrossOperator]
    active: list[np.ndarray]

    @classmethod
    def from_views(cls, views) -> "MultiViewProblem":
        views = list(views)
        if len(views) < 2:
            raise DimensionError("need at least two views")
        blocks = {}
        for r in range(len(views)):
            for s in range(r + 1, len(views)):
                blocks[(r, s)] = CrossOperator.from_views(views[r], views[s])
        return cls(views=views, blocks=blocks,
                   active=[np.arange(v.p) for v in views])

    @property
    def m(self) -> int:
        return len(self.views)

    def dim(self, r: int) -> int:
        return int(self.active[r].size)

    def tilde(self, r: int, s: int) -> CrossOperator:
        """Operator between views r and s oriented with r's coordinates as rows."""
        return self.blocks[(r, s)] if r < s else self.blocks[(s, r)].T

    def restrict(self, s: int, bits: np.ndarray) -> "MultiViewProblem":
        """Shrink view s's coordinates to the active bits (over current coords)."""
        bits = np.asarray(bits, dtype=bool)
        if bits.size != self.dim(s):
            raise DimensionError("pattern length does not match the current view size")
        if not bits.any():
            raise EmptySupportError(f"view {s + 1} pattern has no active coordinates",
                                    side=f"view {s + 1}")
        blocks = {}
        for (r, t), block in self.blocks.items():
            if r == s:
                blocks[(r, t)] = block.rows(bits)
            elif t == s:
                blocks[(r, t)] = block.cols(bits)
            else:
                blocks[(r, t)] = block
        active = list(self.active)
        active[s] = active[s][bits]
        return MultiViewProblem(views=self.views, blocks=blocks, active=active)


def _projection(problem: MultiViewProblem, s: int, zs: dict[int, np.ndarray]) -> np.ndarray:
    """View s's coordinates projected onto the other views' iterates, summed."""
    return sum(problem.tilde(q, s).T @ z for q, z in zs.items())


def _sweep_objective(problem: MultiViewProblem, s: int, zs: dict[int, np.ndarray],
                     thresh: float) -> float:
    """Ascent functional of the sweep: squared hinge plus doubled pair terms."""
    others = [r for r in range(problem.m) if r != s]
    value = _hinge(_projection(problem, s, zs), thresh, "l1")[0]
    for a_i, a in enumerate(others):
        for b in others[a_i + 1:]:
            value += 2.0 * float(zs[a] @ (problem.tilde(a, b) @ zs[b]))
    return value


def multiview_pattern(problem: MultiViewProblem, gam: GammaMatrix, s: int,
                      conv: ConvergenceSpec | None = None,
                      ) -> tuple[SparsityPattern, dict[int, np.ndarray], int,
                                 np.ndarray | None, bool]:
    """Sparsity pattern of view s from a cyclic sweep over the other views.

    Each other view starts at the largest-norm column of its block with
    view s. Returns (pattern over view s's current coordinates, final
    per-view iterates, sweep count, optional objective trace, converged). Joint
    convergence is the maximum per-view direction change falling below tol;
    ``converged`` is False when ``conv.max_iter`` sweeps ran without it.
    """
    if gam.m != problem.m:
        raise DimensionError("gamma matrix size does not match the number of views")
    if not 0 <= s < problem.m:
        raise DimensionError(f"view index {s} out of range")
    conv = conv or ConvergenceSpec()
    others = [r for r in range(problem.m) if r != s]
    thresh = gam.threshold(s)

    zs = {r: init_direction(problem.tilde(r, s)).values for r in others}

    trace = [] if conv.objective_track else None
    sweeps = 0
    converged = False
    for _ in range(conv.max_iter):
        if trace is not None:
            trace.append(_sweep_objective(problem, s, zs, thresh))
        max_move = 0.0
        for r in others:
            update = problem.tilde(r, s) @ _hinge(_projection(problem, s, zs), thresh, "l1")[1]
            for l in others:
                if l != r:
                    update = update + problem.tilde(r, l) @ zs[l]
            nrm = np.linalg.norm(update)
            if nrm == 0.0:
                raise DegenerateInputError(f"zero update for view {r + 1}")
            z_new = update / nrm
            max_move = max(max_move, float(np.linalg.norm(z_new - zs[r])))
            zs[r] = z_new
        sweeps += 1
        converged = max_move <= conv.tol
        if converged:
            break
    if trace is not None:
        trace.append(_sweep_objective(problem, s, zs, thresh))

    bits = _hinge(_projection(problem, s, zs), thresh, "l1")[1] != 0
    if not bits.any():
        raise EmptySupportError(
            f"every coordinate of view {s + 1} is at or below the threshold",
            side=f"view {s + 1}")
    return (SparsityPattern(bits), zs, sweeps,
            np.asarray(trace) if trace is not None else None, converged)


def multiview_screen(problem: MultiViewProblem, gam: GammaMatrix, s: int) -> SparsityPattern:
    """Data-only prefilter: coordinates whose summed block-column norms are
    at or below the row-sum threshold can never be active."""
    if gam.m != problem.m:
        raise DimensionError("gamma matrix size does not match the number of views")
    norms = np.zeros(problem.dim(s))
    for r in range(problem.m):
        if r != s:
            norms += problem.tilde(r, s).col_norms()
    return SparsityPattern(norms > gam.threshold(s))


def multiview_scca(views, gam: GammaMatrix, conv: ConvergenceSpec | None = None,
                   stage2: str | None = None) -> CcaSolution:
    """Two-stage multi-view fit: successive-shrinkage patterns, then stage two.

    Patterns are computed for the last view first; every operator touching
    that view is restricted to its support before the next view is solved.
    ``stage_two`` then runs on the doubly shrunken blocks with ``stage2``
    (default ``"power"``, the cyclic power method; ``"gep"``, the block
    generalized eigenproblem with its automatic ridge retry; ``"svd"`` for
    two views). A view whose stage one used all ``conv.max_iter`` sweeps
    without converging is reported in the warnings. Stage one is the
    absolute-value (l1) threshold rule, the only one defined for more than
    two views.
    """
    conv = conv or ConvergenceSpec()
    stage2 = stage2 or "power"
    problem = MultiViewProblem.from_views(views)
    m = problem.m
    if gam.m != m:
        raise DimensionError("gamma matrix size does not match the number of views")
    check_stage2(stage2, m)

    shrunk = problem
    patterns: list[SparsityPattern | None] = [None] * m
    iterations: dict = {}
    traces: dict = {}
    warnings: tuple[str, ...] = ()
    for s in range(m - 1, -1, -1):
        try:
            pat, _zs, sweeps, trace, converged = multiview_pattern(shrunk, gam, s,
                                                                   conv=conv)
        except (EmptySupportError, DegenerateInputError) as err:
            raise type(err)(f"stage one failed at view {s + 1}: {err}") from err
        # view s is still full length when its own pattern is solved
        patterns[s] = pat
        iterations[f"view{s + 1}"] = sweeps
        if not converged:
            warnings += (f"view {s + 1}: stage one reached max_iter ({sweeps} sweeps)",)
        if trace is not None:
            traces[f"view{s + 1}"] = trace
        shrunk = shrunk.restrict(s, pat.bits)

    est = stage_two(problem.blocks, shrunk.active, stage2, conv)
    warnings += est.warnings
    cov = covariates([view.data for view in problem.views], est.directions)
    warnings += tuple(f"degenerate covariate pair ({r + 1},{s + 1})"
                      for r, s in cov.degenerate)
    mean_rho = float(cov.rho[np.triu_indices(m, k=1)].mean())

    info = dict(iterations)
    if traces:
        info["traces"] = traces
    return CcaSolution(
        directions=[z[:, None] for z in est.directions],
        correlations=np.array([mean_rho]),
        factor_count=1,
        normalization=est.normalization,
        covariates=[cv[:, None] for cv in cov.values],
        patterns=[[patterns[r]] for r in range(m)],
        iterations=[info],
        pairwise_correlations=[cov.rho],
        warnings=warnings)
