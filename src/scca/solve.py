"""Stage-two estimation on shrunken problems and multi-factor deflation.

``stage_two`` is the one stage two of every pipeline (``multi_factor``,
so ``fit_pair``; ``directed_fit``; ``multiview_scca``): it shrinks each
pair's cross-covariance operator to the supports found by stage one and
fills in the active entries by a power-iteration SVD (two views,
inversion-free default), cyclic multi-view power sweeps, or the block
generalized eigenvalue pencil that normalizes against the within-view
covariances (``cca_gep`` is its two-view case), with an automatic ridge
for a singular pencil. Additional factors come from deflating
the cross-covariance by fitted rank-one terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .covariance import CrossOperator, PermutedCross, SparsityPattern, ViewMatrix
from .errors import (DegenerateInputError, DimensionError, EmptySupportError,
                     SingularityError)
from .pattern import (ConvergenceSpec, Direction, _as_block, _batch_ascent, _hinge_ascent,
                      init_direction, pattern_pair)

_UNIT_TOL = 1e-8


@dataclass(eq=False)
class CcaSolution:
    """Fitted canonical factors for two or more views.

    Directions are full-length with exact zeros off-support and are stored
    one column per factor. ``normalization`` records the convention:
    ``"unit"`` (unit Euclidean norm over active entries, SVD back-end) or
    ``"cov"`` (unit z'C_ii z, GEP back-ends). Correlations are sorted
    non-increasing across factors.
    """

    directions: list[np.ndarray]
    correlations: np.ndarray
    factor_count: int
    normalization: str
    covariates: list[np.ndarray] | None = None
    patterns: list[list[SparsityPattern]] | None = None
    iterations: list[dict] = field(default_factory=list)
    pairwise_correlations: list[np.ndarray] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.correlations = np.asarray(self.correlations, dtype=float)
        if self.correlations.size > 1 and np.any(np.diff(self.correlations) > 1e-12):
            raise ValueError("correlations must be sorted non-increasing")


def deflate(c, z1, z2):
    """Subtract the fitted rank-one term scaled by z1' C z2 from the residual.

    ``c`` is a dense block, returned as a new deflated array, or a
    CrossOperator, which gains one correction term instead of being rebuilt.
    """
    z1 = np.asarray(z1.values if isinstance(z1, Direction) else z1, dtype=float)
    z2 = np.asarray(z2.values if isinstance(z2, Direction) else z2, dtype=float)
    block = _as_block(c)
    if z1.shape != (block.shape[0],) or z2.shape != (block.shape[1],):
        raise DimensionError("deflation directions do not match the block")
    if abs(np.linalg.norm(z1) - 1.0) > _UNIT_TOL or abs(np.linalg.norm(z2) - 1.0) > _UNIT_TOL:
        raise DimensionError("deflation directions must have unit Euclidean norm")
    if isinstance(block, CrossOperator):
        return block.deflated(z1, z2)
    scale = float(z1 @ block @ z2)
    return block - scale * np.outer(z1, z2)


def power_svd(c, conv: ConvergenceSpec | None = None, trace: list | None = None,
              status: dict | None = None) -> tuple[Direction, Direction, float]:
    """Leading singular triple of a block by power iteration on the stage-one
    kernel.

    ``c`` is a dense block or a CrossOperator, which is never formed. The
    iterate u starts at the block's largest-norm column and ascends by
    ``_hinge_ascent`` at threshold 0, whose update weights are the
    projections w = C'u: each step is u <- CC'u/||CC'u||, the tracked
    functional ||C'u||^2 = sigma^2 is non-decreasing, and the ascent stops by
    ``conv``'s rule. Returns u, v = w/||w|| and sigma = ||w|| >= 0. Pass a
    list as ``trace`` to record sigma at every visited iterate, and a dict as
    ``status`` to receive ``iterations`` and ``converged`` (False when
    ``conv.max_iter`` iterations ran without meeting the stop rule).
    """
    block = _as_block(c)
    conv = conv or ConvergenceSpec()
    if trace is not None:
        conv = replace(conv, objective_track=True)
    run = _hinge_ascent(block, [0.0], "l1", init_direction(block).values[:, None], conv,
                        stall_guard=False)
    if trace is not None:
        trace.extend(math.sqrt(val) for val in run.traces[0])
    if status is not None:
        status.update(iterations=int(run.iterations[0]), converged=not run.capped[0])
    sigma = math.sqrt(run.objective[0])
    return Direction(run.z[:, 0]), Direction(run.weights[:, 0] / sigma), sigma


def power_svd_batch(batch: PermutedCross,
                    conv: ConvergenceSpec | None = None) -> tuple[np.ndarray, np.ndarray,
                                                                  np.ndarray]:
    """:func:`power_svd` of every member of a batch at once, as one ascent.

    Member k of ``batch`` (p1 x p2, its rows and columns masked to a support
    pair) stands in for the block shrunk to those supports: its iterate
    starts at its largest-norm column and ascends at threshold 0, without the
    stall guard, so each column runs power_svd's iteration. Returns U (p1 x
    K) and V (p2 x K), whose columns are member k's u and v, zero off the
    supports, and which members have a non-zero block; power_svd raises
    DegenerateInputError on the others, whose columns are zero.
    """
    run, ok = _batch_ascent(batch, 0.0, "l1", conv or ConvergenceSpec(), stall_guard=False)
    return run.z, run.weights / np.where(ok, np.sqrt(run.objective), 1.0), ok


def _fix_sign(z1: np.ndarray, partners: list[np.ndarray]) -> None:
    """Flip the factor jointly so z1's first non-zero entry is positive."""
    nz = np.flatnonzero(z1)
    if nz.size and z1[nz[0]] < 0:
        z1 *= -1.0
        for z in partners:
            z *= -1.0


def _multiview_dims(cross: Mapping[tuple[int, int], np.ndarray]) -> list[int]:
    m = max(max(pair) for pair in cross) + 1
    dims = [0] * m
    for (r, s), block in cross.items():
        if not (0 <= r < s < m):
            raise DimensionError("cross blocks must be keyed by (r, s) with r < s")
        for idx, size in ((r, block.shape[0]), (s, block.shape[1])):
            if dims[idx] and dims[idx] != size:
                raise DimensionError(f"inconsistent dimensions for view {idx}")
            dims[idx] = size
    if any(d == 0 for d in dims):
        raise DimensionError("every view must appear in at least one cross block")
    return dims


def _pencil(cross: Mapping[tuple[int, int], np.ndarray], diag: Sequence[np.ndarray],
            ridge: float) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Generalized eigenpairs of the m-view block pencil A w = rho B w.

    A stacks the cross blocks with a zero diagonal; B is block-diagonal in
    the within-view blocks plus ridge I. Returns the eigenvalues (ascending),
    each view's rows of the eigenvector matrix, and B's diagonal blocks.
    """
    dims = _multiview_dims(cross)
    m = len(dims)
    if m < 2:
        raise DimensionError("need at least two views")
    if len(diag) != m:
        raise DimensionError(f"expected {m} within-view blocks, got {len(diag)}")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    offs = np.concatenate([[0], np.cumsum(dims)])
    a = np.zeros((offs[-1], offs[-1]))
    for (r, s), block in cross.items():
        a[offs[r]:offs[r + 1], offs[s]:offs[s + 1]] = block
        a[offs[s]:offs[s + 1], offs[r]:offs[r + 1]] = block.T
    b_parts = []
    for r, d in enumerate(diag):
        d = _as_block(d)
        if d.shape != (dims[r], dims[r]):
            raise DimensionError(f"diag[{r}] does not match view dimension")
        if np.abs(d - d.T).max(initial=0.0) > 1e-10 * (np.abs(d).max(initial=0.0) + 1.0):
            raise DimensionError(f"diag[{r}] must be symmetric")
        b_parts.append(d + ridge * np.eye(dims[r]))
    # imported here, as only this pencil uses scipy: loading it doubles the
    # start-up time of every command
    import scipy.linalg
    try:
        vals, vecs = scipy.linalg.eigh(a, scipy.linalg.block_diag(*b_parts))
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as err:
        raise SingularityError(
            "within-view covariance is singular; re-run with ridge > 0") from err
    return vals, [vecs[offs[r]:offs[r + 1]] for r in range(m)], b_parts


def cca_gep(c11, c12, c22, ridge: float = 0.0, factors: int | None = None) -> CcaSolution:
    """Canonical directions from the block generalized eigenvalue problem.

    Solves [[0, C12],[C21, 0]] w = rho [[C11+ridge I, 0],[0, C22+ridge I]] w,
    the two-view pencil of ``multiview_gep``; the positive generalized
    eigenvalues are the canonical correlations and each direction is
    normalized so z'(C_ii+ridge I)z = 1. Intended for shrunken blocks of
    size O(n).
    """
    c12 = _as_block(c12)
    vals, (w1, w2), (b1, b2) = _pencil({(0, 1): c12}, [c11, c22], ridge)
    p1, p2 = c12.shape
    order = np.argsort(vals)[::-1]
    k_max = min(p1, p2)
    k = k_max if factors is None else min(factors, k_max)
    warnings: tuple[str, ...] = ()
    z1s = np.zeros((p1, k))
    z2s = np.zeros((p2, k))
    rhos = np.empty(k)
    for j in range(k):
        z1, z2 = w1[:, order[j]].copy(), w2[:, order[j]].copy()
        n1 = float(z1 @ b1 @ z1)
        n2 = float(z2 @ b2 @ z2)
        if n1 <= 0 or n2 <= 0:
            raise SingularityError("eigenvector has zero within-view norm; increase ridge")
        z1 /= np.sqrt(n1)
        z2 /= np.sqrt(n2)
        _fix_sign(z1, [z2])
        rho = max(float(vals[order[j]]), 0.0)
        if z1 @ c12 @ z2 < 0:
            z2 *= -1.0
        z1s[:, j], z2s[:, j], rhos[j] = z1, z2, rho
    if k and rhos[0] <= 1e-14:
        warnings += ("leading generalized eigenvalue is ~0: uninformative cross block",)
    return CcaSolution(directions=[z1s, z2s], correlations=rhos, factor_count=k,
                       normalization="cov", warnings=warnings)


class MultiviewGepResult(NamedTuple):
    directions: list[np.ndarray]
    value: float
    uninformative: bool


def _oriented(cross: Mapping[tuple[int, int], np.ndarray], r: int, s: int) -> np.ndarray:
    return cross[(r, s)] if r < s else cross[(s, r)].T


def multiview_gep(cross: Mapping[tuple[int, int], np.ndarray],
                  diag: Sequence[np.ndarray], ridge: float = 0.0) -> MultiviewGepResult:
    """Top eigenvector of the m-view block pencil, split per view.

    The left matrix stacks the shrunken cross blocks with a zero diagonal;
    the right is block-diagonal in the within-view blocks. A zero leading
    eigenvalue is flagged as uninformative rather than raised.
    """
    vals, parts, b_parts = _pencil(cross, diag, ridge)
    top = int(np.argmax(vals))
    directions = []
    for w, b in zip(parts, b_parts):
        z = w[:, top].copy()
        nrm = float(z @ b @ z)
        if nrm > 0:
            z /= np.sqrt(nrm)
        directions.append(z)
    value = float(vals[top])
    return MultiviewGepResult(directions, value, uninformative=value <= 1e-12)


def multiview_power(cross: Mapping[tuple[int, int], np.ndarray],
                    conv: ConvergenceSpec | None = None,
                    status: dict | None = None) -> list[np.ndarray]:
    """Leading multi-view directions by per-view power sweeps.

    Views are processed last to first, each by one ascent of the stage-one
    kernel with ``conv``'s stop rule; already-estimated partners enter the
    update linearly, the rest through their squared block so the sweep needs
    no within-view inversion. Returns unit vectors per view. Pass a dict as
    ``status`` to receive, per view, ``iterations`` and ``converged`` (False
    when the view used all ``conv.max_iter`` updates without meeting the
    stop rule).
    """
    conv = conv or ConvergenceSpec()
    dims = _multiview_dims(cross)
    m = len(dims)
    if m < 2:
        raise DimensionError("need at least two views")
    # each view starts on its block with the last view (the last view's with
    # the one before it)
    zs = [init_direction(_oriented(cross, r, m - 1 if r != m - 1 else m - 2)).values
          for r in range(m)]

    iterations, converged = [0] * m, [False] * m
    for r in range(m - 1, -1, -1):
        # view r's power step on the stage-one kernel: the earlier views enter
        # through the operator [C_0r; ...; C_r-1,r]', the later ones, already
        # estimated, through the constant pull sum_s C_sr' z_s
        c = np.hstack([_oriented(cross, r, s) for s in range(r)] or [np.zeros((dims[r], 0))])
        pull = sum((_oriented(cross, r, s) @ zs[s] for s in range(r + 1, m)),
                   np.zeros(dims[r]))
        run = _hinge_ascent(c, [0.0], "l1", zs[r][:, None], conv, pull=(1.0, pull),
                            stall_guard=False)
        if run.vanished[0]:
            raise DegenerateInputError(f"zero update for view {r}")
        zs[r], iterations[r] = run.z[:, 0], int(run.iterations[0])
        converged[r] = not run.capped[0]
    if status is not None:
        status.update(iterations=iterations, converged=converged)
    return zs


def pearson(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """Sample correlation; returns (0.0, True-flag) for degenerate inputs."""
    a = a - a.mean()
    b = b - b.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0, True
    return float(a @ b / (na * nb)), False


class Covariates(NamedTuple):
    """One factor's covariates X_r z_r, the m x m Pearson correlations of
    every pair (zero diagonal), and the pairs r < s whose correlation was set
    to 0 because a covariate is constant."""

    values: list[np.ndarray]
    rho: np.ndarray
    degenerate: list[tuple[int, int]]


def covariates(data: Sequence[np.ndarray], directions: Sequence[np.ndarray]) -> Covariates:
    """The post-stage-two step of every pipeline."""
    values = [x @ z for x, z in zip(data, directions)]
    rho, degenerate = np.zeros((len(values), len(values))), []
    for r, s in itertools.combinations(range(len(values)), 2):
        rho[r, s], flagged = pearson(values[r], values[s])
        rho[s, r] = rho[r, s]
        if flagged:
            degenerate.append((r, s))
    return Covariates(values, rho, degenerate)


class StageTwo(NamedTuple):
    """One factor's full-length directions, their normalization and warnings."""

    directions: list[np.ndarray]
    normalization: str
    warnings: tuple[str, ...]


def check_stage2(method: str, views: int) -> None:
    """Reject a stage-two back-end name before any stage one runs."""
    if method not in ("svd", "power", "gep") or (method == "svd" and views != 2):
        raise ValueError("stage2 must be 'svd' (two views), 'power' or 'gep'")


def stage_two(blocks: Mapping[tuple[int, int], CrossOperator], active: Sequence[np.ndarray],
              method: str, conv: ConvergenceSpec | None = None) -> StageTwo:
    """Estimate one factor's active entries on the doubly shrunken blocks.

    ``blocks`` maps each pair (r, s), r < s, to the CrossOperator between
    views r and s over their full coordinates, which also carries the views'
    data; ``active[r]`` holds view r's support indices. ``method`` is
    ``"svd"`` (power_svd, two views only, unit norm), ``"power"``
    (multiview_power, unit norm) or ``"gep"`` (the block pencil with the
    within-view blocks on the supports, z'C_rr z = 1; a pencil with a support
    of n or more coordinates, or one that fails as singular, gets a ridge of
    1e-8 of the mean active variance, reported in the warnings). A power SVD
    or a view's power sweep that reaches ``conv.max_iter`` is reported in the
    warnings too.
    Directions come back full length with zeros off the supports, signed so
    that view 1's first non-zero entry is positive and z_1'C_1r z_r >= 0 for
    every other view r.
    """
    m = len(active)
    check_stage2(method, m)
    data: list = [None] * m
    for (r, s), op in blocks.items():
        data[r], data[s] = op.a, op.b
    conv = conv or ConvergenceSpec()
    cross = {(r, s): op.rows(active[r]).cols(active[s]).dense()
             for (r, s), op in blocks.items()}
    warnings: tuple[str, ...] = ()
    if method == "svd":
        status: dict = {}
        u, v, _sigma = power_svd(cross[(0, 1)], conv, status=status)
        parts, normalization = [u.values, v.values], "unit"
        if not status["converged"]:
            warnings += (f"stage two reached max_iter ({status['iterations']} iterations)",)
    elif method == "power":
        status = {}
        parts, normalization = multiview_power(cross, conv=conv, status=status), "unit"
        warnings += tuple(f"view {r + 1}: stage two reached max_iter "
                          f"({status['iterations'][r]} iterations)"
                          for r in range(m - 1, -1, -1) if not status["converged"][r])
    else:
        div = blocks[(0, 1)].div
        subs = [d[:, ix] for d, ix in zip(data, active)]
        diag = [a.T @ a / div for a in subs]
        result = None
        # a centred view has rank below n, so without a ridge a support of n or
        # more coordinates is singular whatever the rounding: it gets the
        # automatic ridge up front, any other pencil only if it fails
        if all(a.shape[1] < a.shape[0] for a in subs):
            try:
                result = multiview_gep(cross, diag)
            except SingularityError:
                pass
        if result is None:
            auto = max(1e-8 * sum(np.trace(d) / d.shape[0] for d in diag) / m, 1e-12)
            result = multiview_gep(cross, diag, ridge=auto)
            warnings += (f"singular within-view covariance: applied ridge {auto:.3e}",)
        if result.uninformative:
            warnings += ("leading eigenvalue is ~0: cross blocks are uninformative",)
        if not all(np.any(z) for z in result.directions):
            raise SingularityError("eigenvector has zero within-view norm; increase ridge")
        parts, normalization = result.directions, "cov"

    zs = [np.zeros(d.shape[1]) for d in data]
    for z, ix, part in zip(zs, active, parts):
        z[ix] = part
    _fix_sign(zs[0], zs[1:])
    for r in range(1, m):
        if zs[0][active[0]] @ cross[(0, r)] @ zs[r][active[r]] < 0:
            zs[r] *= -1.0
    return StageTwo(zs, normalization, warnings)


def _exhausted(residual: CrossOperator, base: float) -> bool:
    """Whether the deflated ``residual`` is rounding noise: its Frobenius norm
    is at most 1e-7 of ``base``, the norm before the first deflation.

    The thin QRs of ``fro_norm`` cost O((p1 + p2) (n + k)^2), so the Gram
    form of the column norms, O(n (p1 + p2)), screens first. Its rounding is
    that of a difference of squares, about sqrt(eps) ~ 1.5e-8 of ``base``
    (times a modest growth factor), so a Gram-form norm above 1e-5 of
    ``base`` proves a true norm far above 1e-7 of it: the residual is alive
    and the QR answer could only agree. Below that margin the QR check
    decides, as it always did.
    """
    floor = max(base, 1e-300)
    if float(np.linalg.norm(residual.col_norms())) > 1e-5 * floor:
        return False
    return residual.fro_norm() <= 1e-7 * floor


def multi_factor(x1: ViewMatrix, x2: ViewMatrix, gammas1: Sequence[float],
                 gammas2: Sequence[float], penalty: str = "l1",
                 conv: ConvergenceSpec | None = None, stage2: str = "svd",
                 order: str = "auto") -> CcaSolution:
    """Fit several canonical factors by pattern/estimate/deflate cycles.

    Parameters
    ----------
    gammas1, gammas2 : sequences of float
        Per-factor sparsity thresholds (equal length m <= min(n, p1, p2)).
    stage2 : {"svd", "power", "gep"}
        ``stage_two`` back-end filling in active entries on each shrunken residual.

    Each factor's patterns come from the current residual cross-covariance;
    the residual is then deflated by the fitted rank-one term (directions
    renormalized to unit Euclidean norm). The residual is a CrossOperator,
    so only the blocks shrunk to each factor's supports are formed. A factor
    whose support collapses truncates the solution with a diagnostic instead
    of raising. Factors are ordered by decreasing sample canonical correlation.
    """
    gammas1 = list(gammas1)
    gammas2 = list(gammas2)
    if len(gammas1) != len(gammas2):
        raise DimensionError("gamma vectors must have equal length")
    m = len(gammas1)
    bound = min(x1.n, x1.p, x2.p)
    if not 1 <= m <= bound:
        raise DimensionError(f"factor count must be in [1, {bound}]")
    check_stage2(stage2, 2)
    conv = conv or ConvergenceSpec()

    residual = CrossOperator.from_views(x1, x2)
    # only a later factor needs the scale: a zero first block fails in stage one
    base_scale = residual.fro_norm() if m > 1 else None
    factors = []
    warnings: tuple[str, ...] = ()
    normalization = "unit"
    for i, (g1, g2) in enumerate(zip(gammas1, gammas2)):
        if i and _exhausted(residual, base_scale):
            warnings += (f"factor {i + 1}: residual numerically exhausted "
                         "(data rank reached)",)
            break
        try:
            pair = pattern_pair(residual, g1, g2, penalty=penalty, conv=conv, order=order)
        except (EmptySupportError, DegenerateInputError) as err:
            warnings += (f"factor {i + 1}: {err}",)
            break
        try:
            est = stage_two({(0, 1): residual}, [pair.tau1.indices(), pair.tau2.indices()],
                            stage2, conv)
        except (DegenerateInputError, SingularityError) as err:
            warnings += (f"factor {i + 1}: {err}",)
            break
        warnings += tuple(f"factor {i + 1}: {w}" for w in pair.warnings) + est.warnings
        normalization = est.normalization
        cov = covariates([x1.data, x2.data], est.directions)
        if cov.degenerate:
            warnings += (f"factor {i + 1}: degenerate covariate, correlation set to 0",)
        if i + 1 < m:
            residual = deflate(residual, *(z / np.linalg.norm(z) for z in est.directions))
        info = dict(pair.iterations)
        if conv.objective_track:
            info["traces"] = pair.traces
        factors.append((cov.rho[0, 1], est.directions, cov.values, (pair.tau1, pair.tau2), info))

    if not factors:
        raise EmptySupportError("no factor could be fitted: " + "; ".join(warnings))

    factors.sort(key=lambda f: -f[0])
    return CcaSolution(
        directions=[np.column_stack([f[1][r] for f in factors]) for r in (0, 1)],
        correlations=np.array([f[0] for f in factors]),
        factor_count=len(factors),
        normalization=normalization,
        covariates=[np.column_stack([f[2][r] for f in factors]) for r in (0, 1)],
        patterns=[[f[3][r] for f in factors] for r in (0, 1)],
        iterations=[f[4] for f in factors],
        warnings=warnings)


def fit_pair(x1: ViewMatrix, x2: ViewMatrix, gamma1: float, gamma2: float,
             factors: int = 1, **kwargs) -> CcaSolution:
    """Single-call pipeline: constant per-factor thresholds through multi_factor."""
    return multi_factor(x1, x2, [gamma1] * factors, [gamma2] * factors, **kwargs)
