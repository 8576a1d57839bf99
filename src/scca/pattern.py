"""Stage-one solvers: support recovery by gradient ascent on the unit sphere.

The sparsity pattern of one canonical direction is found by maximizing a
convex functional of the partner direction over the sphere; the maximizer's
thresholded projections give the pattern, and the partner direction itself
has a closed form. Both an absolute-value (L1) and a squared (L0) threshold
rule are provided, together with data-only screening bounds and the
two-sided pattern pass used by the full pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CrossOperator, SparsityPattern, ViewMatrix
from .errors import DegenerateInputError, DimensionError, EmptySupportError

_UNIT_TOL = 1e-8
_STALL_LIMIT = 16

PENALTIES = ("l1", "l0")


@dataclass(frozen=True)
class ConvergenceSpec:
    """Stopping rule for the sphere ascent.

    The iteration stops once the relative change of the tracked functional
    falls below ``tol`` and the iterate has stopped moving (step below
    ``tol``), or after ``max_iter`` updates. A short stall guard terminates
    sign-pattern cycles whose objective has flatlined.
    """

    tol: float = 1e-8
    max_iter: int = 10000
    objective_track: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(eq=False)
class Direction:
    """A direction vector (1-d float array)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise DimensionError("direction must be a 1-d vector")


@dataclass(eq=False)
class PatternResult:
    """Output of one stage-one solve.

    ``z_lead`` is the sphere maximizer, ``pattern`` the inferred support of
    the partner direction, and ``z_partner`` the partner's closed form
    (all-zero when fully thresholded). ``objective_trace`` holds the tracked
    functional at every visited iterate when requested.
    """

    z_lead: Direction
    pattern: SparsityPattern
    z_partner: Direction
    iterations: int
    objective_trace: np.ndarray | None = None


def _as_block(c) -> np.ndarray | CrossOperator:
    """``c`` as a 2-d float array; a CrossOperator passes through as is."""
    if isinstance(c, CrossOperator):
        return c
    block = np.asarray(c, dtype=float)
    if block.ndim != 2:
        raise DimensionError("covariance block must be 2-d")
    return block


def _col_norms(c) -> np.ndarray:
    return c.col_norms() if isinstance(c, CrossOperator) else np.linalg.norm(c, axis=0)


def _column(c, j: int) -> np.ndarray:
    return c.column(j) if isinstance(c, CrossOperator) else c[:, j]


def _rows(c, idx):
    return c.rows(idx) if isinstance(c, CrossOperator) else c[idx, :]


def _cols(c, idx):
    return c.cols(idx) if isinstance(c, CrossOperator) else c[:, idx]


def _require_unit(z: np.ndarray, what: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if abs(np.linalg.norm(z) - 1.0) > _UNIT_TOL:
        raise DimensionError(f"{what} must have unit Euclidean norm")
    return z


def init_direction(c) -> Direction:
    """Initial iterate parallel to the block column with the largest norm.

    Guarantees the first update is non-zero whenever the threshold is below
    the largest column norm. Ties break toward the lowest column index.
    """
    block = _as_block(c)
    norms = _col_norms(block)
    if not norms.max() > 0:
        raise DegenerateInputError("all columns of the block are zero")
    i_star = int(np.argmax(norms))
    return Direction(_column(block, i_star) / norms[i_star])


def _ascend(value, update, z0: np.ndarray, conv: ConvergenceSpec, side: str):
    """Iterate z <- u/||u|| until the tracked functional stalls.

    ``value(z)`` returns ``(functional value at z, update weights)`` and
    ``update(weights)`` the update u, which maximizes the linearization of a
    convex functional over the sphere, so the tracked values are non-decreasing.
    """
    z = np.array(z0, dtype=float)
    trace = [] if conv.objective_track else None
    prev_obj = None
    stall_run = 0
    iterations = 0
    for _ in range(conv.max_iter):
        obj, weights = value(z)
        if trace is not None:
            trace.append(obj)
        u = update(weights)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            raise EmptySupportError(
                f"update vanished while solving for {side}: the threshold exceeds "
                "every projection", side=side, last_iterate=z.copy())
        z_new = u / nrm
        iterations += 1
        move = float(np.linalg.norm(z_new - z))
        stalled = prev_obj is not None and abs(obj - prev_obj) <= conv.tol * max(1.0, abs(prev_obj))
        z = z_new
        prev_obj = obj
        if stalled:
            stall_run += 1
            if move <= conv.tol or stall_run >= _STALL_LIMIT:
                break
        else:
            stall_run = 0
    if trace is not None:
        trace.append(value(z)[0])
    return z, iterations, (np.asarray(trace) if trace is not None else None)


def _random_units(rng: np.random.Generator, p: int, count: int) -> list[np.ndarray]:
    inits = []
    for _ in range(count):
        v = rng.standard_normal(p)
        n = np.linalg.norm(v)
        while n == 0.0:
            v = rng.standard_normal(p)
            n = np.linalg.norm(v)
        inits.append(v / n)
    return inits


def _solve(block, value, update, z0, conv, restarts, seed, side):
    """Run the ascent from the deterministic init plus optional random restarts,
    keeping the candidate whose tracked functional is largest."""
    if z0 is None:
        start = init_direction(block).values
    else:
        start = _require_unit(z0.values if isinstance(z0, Direction) else z0, "z0")
        if start.size != block.shape[0]:
            raise DimensionError(f"z0 has length {start.size}, block has {block.shape[0]} rows")
    inits = [start]
    if restarts > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        inits.extend(_random_units(rng, block.shape[0], restarts))

    best = None
    first_err: EmptySupportError | None = None
    for z_init in inits:
        try:
            z, its, trace = _ascend(value, update, z_init, conv, side)
        except EmptySupportError as err:
            if first_err is None:
                first_err = err
            continue
        score = value(z)[0]
        if best is None or score > best[0]:
            best = (score, z, its, trace)
    if best is None:
        raise first_err
    return best[1], best[2], best[3]


def _hinge(proj: np.ndarray, gamma, rule: str) -> tuple[float, np.ndarray]:
    """The threshold rule at projections ``proj``: (program objective, update weights).

    ``gamma`` is a scalar or one threshold per coordinate. "l1" soft-thresholds
    |proj| (objective: the sum of squared hinges; weights: the signed hinges),
    "l0" clips proj^2 (objective: the sum of clipped squares; weights: the
    active projections). A coordinate is active exactly when its weight is
    non-zero.
    """
    if rule == "l1":
        w = np.maximum(np.abs(proj) - gamma, 0.0)
        return float(w @ w), w * np.sign(proj)
    clipped = np.maximum(proj * proj - gamma, 0.0)
    return float(clipped.sum()), np.where(clipped > 0, proj, 0.0)


def _partner(proj: np.ndarray, gamma, rule: str) -> np.ndarray:
    """Closed-form partner direction: the normalised update weights, all-zero
    when every coordinate is thresholded."""
    weights = _hinge(proj, gamma, rule)[1]
    denom = np.sqrt(float(weights @ weights))
    return weights / denom if denom > 0 else np.zeros_like(proj)


def _hinge_ascent(c, gamma, rule: str, *, z0, conv: ConvergenceSpec | None, restarts: int,
                  seed: int, side: str, empty: str, offset=None, pull=None) -> PatternResult:
    """The generalized power method that every stage-one solver runs.

    A step projects z onto the columns of ``c``, shifted by ``offset``, takes
    the update weights of the threshold rule and moves to the update
    ``c @ weights``. A ``pull`` (eps, a) adds the constant eps*a to the update
    and 2 eps a'z to the tracked functional, which is otherwise the program
    objective; the update maximizes its linearization, so it is
    non-decreasing. ``side`` names the solve in errors and ``empty`` is the
    message raised when the maximizer thresholds every coordinate.
    """
    def project(z):
        proj = c.T @ z
        return proj if offset is None else proj + offset

    def value(z):
        obj, weights = _hinge(project(z), gamma, rule)
        if pull is not None:
            obj += 2.0 * pull[0] * float(pull[1] @ z)
        return obj, weights

    def update(weights):
        u = c @ weights
        return u if pull is None else u + pull[0] * pull[1]

    z, its, trace = _solve(c, value, update, z0, conv or ConvergenceSpec(), restarts, seed,
                           side)
    proj = project(z)
    bits = _hinge(proj, gamma, rule)[1] != 0
    if not bits.any():
        raise EmptySupportError(empty, side=side, last_iterate=z)
    return PatternResult(Direction(z), SparsityPattern(bits),
                         Direction(_partner(proj, gamma, rule)), its, trace)


def objective_l1(c, z: np.ndarray, gamma2: float) -> float:
    """Sum of squared soft-thresholded projections (the L1 program objective)."""
    return _hinge(_as_block(c).T @ np.asarray(z, dtype=float), gamma2, "l1")[0]


def objective_l0(c, z: np.ndarray, gamma2: float) -> float:
    """Sum of clipped squared projections (the L0 program objective)."""
    return _hinge(_as_block(c).T @ np.asarray(z, dtype=float), gamma2, "l0")[0]


def pattern_l1(c, gamma2: float, z0=None, conv: ConvergenceSpec | None = None,
               restarts: int = 0, seed: int = 0) -> PatternResult:
    """Infer the partner support under the absolute-value threshold rule.

    Parameters
    ----------
    c : CrossOperator or array
        p_lead x p_partner cross-covariance block.
    gamma2 : float
        Non-negative sparsity threshold applied to |c_i' z|.
    z0 : Direction or array, optional
        Unit-norm start; defaults to the largest-norm column of the block.
    restarts : int
        Extra random unit restarts (seeded); the candidate with the best
        program objective is kept.

    Coordinates with |c_i' z*| <= gamma2 are inactive (the boundary counts
    as inactive). Raises EmptySupportError when everything is thresholded.
    """
    if gamma2 < 0:
        raise ValueError("gamma2 must be non-negative")
    return _hinge_ascent(_as_block(c), gamma2, "l1", z0=z0, conv=conv,
                         restarts=restarts, seed=seed, side="partner",
                         empty="every coordinate is at or below the threshold")


def pattern_l0(c, gamma2: float, z0=None, conv: ConvergenceSpec | None = None,
               restarts: int = 0, seed: int = 0) -> PatternResult:
    """Infer the partner support under the squared threshold rule.

    Same contract as :func:`pattern_l1` with (c_i' z)^2 <= gamma2 marking a
    coordinate inactive. The update weights active projections by an
    indicator, the exact subgradient of the program objective, so the
    tracked objective is non-decreasing.
    """
    if gamma2 < 0:
        raise ValueError("gamma2 must be non-negative")
    return _hinge_ascent(_as_block(c), gamma2, "l0", z0=z0, conv=conv,
                         restarts=restarts, seed=seed, side="partner",
                         empty="every squared projection is at or below the threshold")


def reconstruct_l1(c, z1, gamma2: float) -> Direction:
    """Closed-form partner direction for the absolute-value rule.

    Returns the all-zero vector when every projection is thresholded; the
    caller decides whether that is an error.
    """
    z = np.asarray(z1.values if isinstance(z1, Direction) else z1, dtype=float)
    return Direction(_partner(_as_block(c).T @ z, gamma2, "l1"))


def reconstruct_l0(c, z1, gamma2: float) -> Direction:
    """Closed-form partner direction for the squared rule (zero when clipped out)."""
    z = np.asarray(z1.values if isinstance(z1, Direction) else z1, dtype=float)
    return Direction(_partner(_as_block(c).T @ z, gamma2, "l0"))


def screen_l1(c, gamma2: float) -> SparsityPattern:
    """Data-only bound: columns with ||c_i|| <= gamma2 can never be active."""
    block = _as_block(c)
    return SparsityPattern(np.linalg.norm(block, axis=0) > gamma2)


def screen_l0(c, gamma2: float) -> SparsityPattern:
    """Data-only bound for the squared rule: ||c_i||^2 <= gamma2 is inactive."""
    block = _as_block(c)
    return SparsityPattern((block * block).sum(axis=0) > gamma2)


_PATTERN_FN = {"l1": pattern_l1, "l0": pattern_l0}


@dataclass(eq=False)
class PairPatterns:
    """Both patterns from the two-sided stage-one pass, plus diagnostics."""

    tau1: SparsityPattern
    tau2: SparsityPattern
    first_side: int
    iterations: dict
    traces: dict


def pattern_pair(c12, gamma1: float, gamma2: float, penalty: str = "l1",
                 conv: ConvergenceSpec | None = None, order: str = "auto",
                 restarts: int = 0, seed: int = 0) -> PairPatterns:
    """Run the stage-one solver on both sides with successive shrinkage.

    One side's pattern is computed on the full block; the block is then
    restricted to that support and the other side is solved on the
    transposed, shrunken block. ``c12`` may be a CrossOperator, which is
    shrunk without forming the block. ``order`` picks which side goes first:
    "auto" patterns the larger side first, "2-first"/"1-first" force it.
    """
    if penalty not in _PATTERN_FN:
        raise ValueError(f"penalty must be one of {PENALTIES}")
    solver = _PATTERN_FN[penalty]
    block = _as_block(c12)
    p1, p2 = block.shape
    if order == "auto":
        first = 1 if p1 > p2 else 2
    elif order in ("1-first", "2-first"):
        first = int(order[0])
    else:
        raise ValueError("order must be 'auto', '1-first' or '2-first'")
    conv = conv or ConvergenceSpec()

    def run(b, gamma, side):
        try:
            return solver(b, gamma, conv=conv, restarts=restarts, seed=seed)
        except EmptySupportError as err:
            raise EmptySupportError(f"view {side} support collapsed: {err}",
                                    side=f"view {side}",
                                    last_iterate=err.last_iterate) from None

    if first == 2:
        res2 = run(block, gamma2, side=2)
        sub = _cols(block, res2.pattern.indices())
        res1 = run(sub.T, gamma1, side=1)
        tau1, tau2 = res1.pattern, res2.pattern
        iterations = {"side2": res2.iterations, "side1": res1.iterations}
        traces = {"side2": res2.objective_trace, "side1": res1.objective_trace}
    else:
        res1 = run(block.T, gamma1, side=1)
        sub = _rows(block, res1.pattern.indices())
        res2 = run(sub, gamma2, side=2)
        tau1, tau2 = res1.pattern, res2.pattern
        iterations = {"side1": res1.iterations, "side2": res2.iterations}
        traces = {"side1": res1.objective_trace, "side2": res2.objective_trace}
    return PairPatterns(tau1, tau2, first, iterations, traces)


def scca_pair(x1: ViewMatrix, x2: ViewMatrix, gamma1: float, gamma2: float,
              penalty: str = "l1", conv: ConvergenceSpec | None = None,
              order: str = "auto", restarts: int = 0, seed: int = 0,
              ) -> tuple[SparsityPattern, SparsityPattern]:
    """Stage-one patterns for a pair of centered views (full-length both sides)."""
    c12 = CrossOperator.from_views(x1, x2)
    pair = pattern_pair(c12, gamma1, gamma2, penalty=penalty, conv=conv,
                        order=order, restarts=restarts, seed=seed)
    return pair.tau1, pair.tau2
