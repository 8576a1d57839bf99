"""Directed sparse CCA: steer canonical directions toward an accessory vector.

An observed length-n accessory vector y enters stage one either through
dot-product alignment terms (with the per-view cross products X_i'y),
through regression coefficients substituted for those products, through a
stacked symmetric reformulation of the squared-error loss, or through a
select-then-solve two-stage baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CrossOperator, SparsityPattern, ViewMatrix, _check_pair
from .errors import (DegenerateInputError, DimensionError, IndefiniteMatrixError,
                     SingularityError)
from .pattern import (ConvergenceSpec, Direction, PatternResult, _as_block, _col_norms,
                      _one, _solve, max_iter_warnings)
from .solve import CcaSolution, check_stage2, covariates, fit_pair, stage_two


@dataclass(eq=False)
class AccessoryVector:
    """Observed length-n vector toward which directions are steered."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise DimensionError("accessory vector must be 1-d")

    def center(self) -> "AccessoryVector":
        if self.centered:
            return self
        return AccessoryVector(self.values - self.values.mean(), centered=True)


@dataclass(frozen=True)
class DirectedParams:
    """Sparsity thresholds and alignment weights (all non-negative)."""

    gamma1: float
    gamma2: float
    eps1: float = 1.0
    eps2: float = 1.0

    def __post_init__(self):
        if not all(v >= 0 for v in (self.gamma1, self.gamma2, self.eps1, self.eps2)):
            raise ValueError("all directed parameters must be non-negative")

    def swapped(self) -> "DirectedParams":
        return DirectedParams(self.gamma2, self.gamma1, self.eps2, self.eps1)


def directed_pattern_dot(c, x1ty, x2ty, params: DirectedParams, z0=None,
                         conv: ConvergenceSpec | None = None) -> PatternResult:
    """Partner support with dot-product alignment toward the accessory vector.

    ``x1ty`` and ``x2ty`` are the per-view products with y (the caller picks
    the scaling convention). The alignment terms shift the thresholded
    projections by eps2*x2ty and add a constant pull eps1*x1ty to the
    update; with both eps at zero this is bit-for-bit the undirected solver.
    The tracked functional doubles the linear alignment term, making it the
    exact ascent functional of the update. ``c`` may be a CrossOperator.
    """
    block = _as_block(c)
    x1ty = np.asarray(x1ty, dtype=float)
    x2ty = np.asarray(x2ty, dtype=float)
    if x1ty.shape != (block.shape[0],):
        raise DimensionError("x1ty length does not match block rows")
    if x2ty.shape != (block.shape[1],):
        raise DimensionError("x2ty length does not match block columns")
    if z0 is None and not _col_norms(block).max() > 0:
        # a zero block is still solvable when the alignment term drives the update
        pull = params.eps1 * x1ty
        if not np.any(pull):
            raise DegenerateInputError("zero block and zero alignment")
        z0 = pull / np.linalg.norm(pull)
    return _one(_solve(block, [params.gamma2], "l1", z0=z0, conv=conv, side="partner",
                       empty="every aligned projection is at or below the threshold",
                       offset=params.eps2 * x2ty, pull=(params.eps1, x1ty)))


def directed_pattern_reg(c, beta1, beta2, params: DirectedParams, z0=None,
                         conv: ConvergenceSpec | None = None) -> PatternResult:
    """Dot-product variant with regression coefficients in place of X_i'y."""
    return directed_pattern_dot(c, beta1, beta2, params, z0=z0, conv=conv)


def compute_beta(x: ViewMatrix, y: AccessoryVector, ridge: float = 0.0) -> np.ndarray:
    """Ridge least-squares coefficients (X'X + ridge I)^-1 X'y of y on a view.

    For p <= n this solves the p x p normal equations. For p > n, where X'X
    has rank at most n, it needs ridge > 0 and solves the equal n x n dual
    form X'(XX' + ridge I)^-1 y, so no p x p matrix is formed.
    """
    if x.n != y.values.size:
        raise DimensionError("accessory length does not match the view")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    dual = x.p > x.n
    if dual and ridge == 0:
        # rank(X'X) <= n < p: singular without forming the p x p Gram matrix
        raise SingularityError("normal equations are singular; re-run with ridge > 0")
    gram = x.data @ x.data.T if dual else x.data.T @ x.data
    gram = gram + ridge * np.eye(gram.shape[0])
    vals = np.linalg.eigvalsh(gram)
    if vals[0] <= 1e-10 * max(vals[-1], 1e-300):
        raise SingularityError("normal equations are singular; re-run with ridge > 0")
    if dual:
        return x.data.T @ np.linalg.solve(gram, y.values)
    return np.linalg.solve(gram, x.data.T @ y.values)


@dataclass(eq=False)
class StackedProblem:
    """Symmetric stacked form of the squared-error-directed program, on a thin factor.

    The stacked matrix tilde_c = [[eps1*C11, C12], [C12', eps2*C22]] is never
    formed: ``root`` is a k x (p1+p2) factor with root'root = tilde_c and
    k <= 2n. ``tilde_x`` is the n x (p1+p2) concatenation [eps1*X1, eps2*X2];
    ``split`` = p1.
    """

    root: np.ndarray
    tilde_x: np.ndarray
    split: int

    def __post_init__(self):
        self.root = np.asarray(self.root, dtype=float)
        self.tilde_x = np.asarray(self.tilde_x, dtype=float)
        if self.root.ndim != 2:
            raise DimensionError("root must be 2-d")
        p = self.root.shape[1]
        if self.tilde_x.shape[1] != p:
            raise DimensionError("tilde_x width must equal the root's width")
        if not 1 <= self.split <= p - 1:
            raise DimensionError("split must lie strictly inside the stacked coordinate")

    @classmethod
    def build(cls, x1: ViewMatrix, x2: ViewMatrix, eps1: float,
              eps2: float) -> "StackedProblem":
        """Factor tilde_c in O(n^2 (p1+p2)): with thin QRs X_i' = Q_i R_i it is
        Q core Q' for Q = diag(Q1, Q2) and the core [[eps1 R1R1', R1R2'],
        [R2R1', eps2 R2R2']]/n of size at most 2n, so root = H Q' for the
        core's square root H. The core's eigenvalues are tilde_c's non-zero
        ones, so IndefiniteMatrixError is raised exactly as for tilde_c."""
        _check_pair(x1, x2)
        q1, r1 = np.linalg.qr(x1.data.T)
        q2, r2 = np.linalg.qr(x2.data.T)
        r12 = r1 @ r2.T
        core = np.block([[eps1 * (r1 @ r1.T), r12], [r12.T, eps2 * (r2 @ r2.T)]])
        h = _symmetric_sqrt(core / x1.n)
        k1 = r1.shape[0]
        root = np.hstack([h[:, :k1] @ q1.T, h[:, k1:] @ q2.T])
        return cls(root, np.hstack([eps1 * x1.data, eps2 * x2.data]), x1.p)


def _symmetric_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues negative within tolerance count as 0."""
    vals, vecs = np.linalg.eigh(m)
    if vals.min(initial=0.0) < -1e-8 * max(float(vals.max(initial=0.0)), 1.0):
        raise IndefiniteMatrixError(
            f"stacked matrix has negative eigenvalue {vals.min():.3e} beyond tolerance")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def directed_stacked(sp: StackedProblem, y: AccessoryVector, gamma1: float,
                     gamma2: float, conv: ConvergenceSpec | None = None,
                     status: dict | None = None,
                     ) -> tuple[SparsityPattern, Direction, Direction]:
    """Single-sphere ascent on the stacked squared-error-directed program.

    The hinge offsets are the literal 2*x_tilde_i'y terms and the columns of
    the factor ``sp.root`` play the role of the covariance columns; per-side
    thresholds apply below/above ``split``. The sphere lives in the factor's
    k-dimensional row space: the maximizer v* and its one start (the
    factor's largest-norm column) are k-vectors, and v* enters the program
    as root'v*. Returns the stacked pattern, v*, and the closed-form stacked
    direction z*. Pass a dict as ``status`` to receive ``iterations`` and
    ``converged`` (False when the ascent used all ``conv.max_iter``
    updates).
    """
    if not (gamma1 >= 0 and gamma2 >= 0):
        raise ValueError("thresholds must be non-negative")
    y = y.center()
    if y.values.size != sp.tilde_x.shape[0]:
        raise DimensionError("accessory length does not match the stacked views")
    gamma_vec = np.where(np.arange(sp.root.shape[1]) < sp.split, gamma1, gamma2)
    res = _one(_solve(sp.root, [gamma_vec], "l1", z0=None, conv=conv, side="stacked",
                      empty="both sides of the stacked pattern are empty",
                      offset=2.0 * (sp.tilde_x.T @ y.values)))
    if status is not None:
        status.update(iterations=res.iterations, converged=res.converged)
    return res.pattern, res.z_lead, res.z_partner


def directed_stacked_fit(x1: ViewMatrix, x2: ViewMatrix, y: AccessoryVector,
                         params: DirectedParams,
                         conv: ConvergenceSpec | None = None) -> CcaSolution:
    """Stacked pipeline as a solution: build the stacked problem, solve it,
    and split the closed-form direction z* per view. The stacked form has no
    stage two; its normalization is ``"stacked"``. Its stage one is the
    absolute-value (l1) threshold rule."""
    sp = StackedProblem.build(x1, x2, params.eps1, params.eps2)
    status: dict = {}
    pattern, _v, z = directed_stacked(sp, y, params.gamma1, params.gamma2, conv=conv,
                                      status=status)
    zs = np.split(z.values, [x1.p])
    cov = covariates([x1.data, x2.data], zs)
    warnings: tuple[str, ...] = ()
    if not status["converged"]:
        warnings += (f"stage one reached max_iter ({status['iterations']} iterations)",)
    if cov.degenerate:
        warnings += ("degenerate covariate, correlation set to 0",)
    return CcaSolution(
        directions=[z[:, None] for z in zs],
        correlations=np.array([cov.rho[0, 1]]), factor_count=1, normalization="stacked",
        covariates=[cv[:, None] for cv in cov.values],
        patterns=[[SparsityPattern(bits)] for bits in np.split(pattern.bits, [x1.p])],
        warnings=warnings)


@dataclass(frozen=True)
class UnivariateSelector:
    """Marginal-association ranking: keep the top fraction per view, and at
    least one column."""

    keep_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in [0, 1]")

    def select(self, x: ViewMatrix, y: AccessoryVector) -> np.ndarray:
        yc = y.center().values
        xc = x.data - x.data.mean(axis=0)
        ys = np.linalg.norm(yc)
        norms = np.linalg.norm(xc, axis=0)
        safe = np.where(norms > 0, norms, 1.0)
        scores = np.where(norms > 0, np.abs(xc.T @ yc) / (safe * max(ys, 1e-300)), 0.0)
        keep = min(max(int(np.ceil(self.keep_fraction * x.p)), 1), x.p)
        order = np.argsort(-scores, kind="stable")
        return np.sort(order[:keep])


def directed_fit(x1: ViewMatrix, x2: ViewMatrix, y: AccessoryVector,
                 params: DirectedParams, mode: str = "dot",
                 conv: ConvergenceSpec | None = None,
                 stage2: str = "svd") -> CcaSolution:
    """Full directed pipeline for the dot-product and regression variants.

    Stage one solves the aligned l1 program for view 2's pattern (alignment
    vectors are the view-accessory cross-covariances for ``mode="dot"`` and
    least-squares coefficients, ``compute_beta`` at ridge 0, for
    ``mode="reg"``) from its one deterministic start, shrinks, solves the
    transposed problem for view 1, then stage two fills in active entries.
    Stage two is ``stage_two`` on the CrossOperator, so only the doubly
    shrunken block and, for GEP, the within-view blocks on the supports are
    formed.
    """
    if mode not in ("dot", "reg"):
        raise ValueError("mode must be 'dot' or 'reg'")
    if y.values.size != x1.n:
        raise DimensionError("accessory length does not match the views")
    check_stage2(stage2, 2)
    conv = conv or ConvergenceSpec()
    y = y.center()

    c12 = CrossOperator.from_views(x1, x2)
    if mode == "dot":
        a1 = x1.data.T @ y.values / c12.div
        a2 = x2.data.T @ y.values / c12.div
    else:
        a1 = compute_beta(x1, y)
        a2 = compute_beta(x2, y)

    res2 = directed_pattern_dot(c12, a1, a2, params, conv=conv)
    tau2 = res2.pattern
    sub = c12.cols(tau2.indices())
    res1 = directed_pattern_dot(sub.T, a2[tau2.indices()], a1, params.swapped(), conv=conv)
    tau1 = res1.pattern

    est = stage_two({(0, 1): c12}, [tau1.indices(), tau2.indices()], stage2, conv)
    cov = covariates([x1.data, x2.data], est.directions)
    warn = max_iter_warnings(((2, res2), (1, res1))) + est.warnings
    if cov.degenerate:
        warn += ("degenerate covariate, correlation set to 0",)
    info = {"side2": res2.iterations, "side1": res1.iterations}
    if conv.objective_track:
        info["traces"] = {"side2": res2.objective_trace, "side1": res1.objective_trace}
    return CcaSolution(directions=[z[:, None] for z in est.directions],
                       correlations=np.array([cov.rho[0, 1]]), factor_count=1,
                       normalization=est.normalization,
                       covariates=[cv[:, None] for cv in cov.values],
                       patterns=[[tau1], [tau2]], iterations=[info], warnings=warn)


def directed_two_stage(x1: ViewMatrix, x2: ViewMatrix, y: AccessoryVector,
                       selector: UnivariateSelector, gamma1: float, gamma2: float,
                       penalty: str = "l1", conv: ConvergenceSpec | None = None,
                       stage2: str = "svd") -> CcaSolution:
    """Select-then-solve baseline: univariate screening against y, then the
    undirected pipeline on the selected columns, re-expanded to full length."""
    if y.values.size != x1.n:
        raise DimensionError("accessory length does not match the views")
    q1 = selector.select(x1, y)
    q2 = selector.select(x2, y)

    def subset(view: ViewMatrix, q: np.ndarray) -> ViewMatrix:
        return ViewMatrix(view.data[:, q], [view.names[j] for j in q],
                          centered=view.centered, scaled=view.scaled)

    sol = fit_pair(subset(x1, q1), subset(x2, q2), gamma1, gamma2, factors=1,
                   penalty=penalty, conv=conv, stage2=stage2)

    z1, z2 = np.zeros(x1.p), np.zeros(x2.p)
    z1[q1], z2[q2] = sol.directions[0][:, 0], sol.directions[1][:, 0]
    patterns = [[SparsityPattern(z1 != 0)], [SparsityPattern(z2 != 0)]]
    return CcaSolution(directions=[z1[:, None], z2[:, None]],
                       correlations=sol.correlations, factor_count=1,
                       normalization=sol.normalization,
                       covariates=[(x1.data @ z1)[:, None], (x2.data @ z2)[:, None]],
                       patterns=patterns, iterations=sol.iterations,
                       warnings=sol.warnings)
