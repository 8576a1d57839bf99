"""Stage-one solvers: support recovery by gradient ascent on the unit sphere.

The sparsity pattern of one canonical direction is found by maximizing a
convex functional of the partner direction over the sphere; the maximizer's
thresholded projections give the pattern, and the partner direction itself
has a closed form. Both an absolute-value (L1) and a squared (L0) threshold
rule are provided, together with the two-sided pattern pass used by the
full pipeline and ``screen_l1``, a data-only bound on the l1 pattern that
the pipeline does not apply. The ascent runs on a block of iterates, so
one fit is a single column and ``pattern_pair_batch`` solves a whole
batch of permuted problems at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import CrossOperator, PermutedCross, SparsityPattern, ViewMatrix
from .errors import DegenerateInputError, DimensionError, EmptySupportError

_UNIT_TOL = 1e-8
_STALL_LIMIT = 16
# a later start replaces the kept one only when its functional is larger by
# more than this relative margin, so rounding (which varies with how many
# columns an ascent holds) never decides between starts that met at one point
_TIE_RTOL = 1e-12
# a batch member whose largest column norm is below its threshold by more than
# this relative margin cannot move, and skips the ascent (see _batch_ascent)
_SCREEN_RTOL = 1e-9

PENALTIES = ("l1", "l0")


@dataclass(frozen=True)
class ConvergenceSpec:
    """Stopping rule for the sphere ascent.

    The iteration stops once the relative change of the tracked functional
    falls below ``tol`` and the iterate has stopped moving (step below
    ``tol``), or after ``max_iter`` updates. In stage one a short stall guard
    terminates sign-pattern cycles whose objective has flatlined. The
    multi-view stage one (``multiview_pattern``) reads the spec differently:
    it stops once the largest per-view step of a sweep is at most ``tol``,
    or after ``max_iter`` sweeps, with no functional check and no stall guard.
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
    functional at every visited iterate when requested; ``converged`` is
    False when the ascent used all ``max_iter`` updates without stopping.
    """

    z_lead: Direction
    pattern: SparsityPattern
    z_partner: Direction
    iterations: int
    objective_trace: np.ndarray | None = None
    converged: bool = True


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


def _sq_norms(x: np.ndarray):
    """x'x of a vector, or of each column of a p x B block. A single column
    goes through the dot product as well, so B=1 keeps a vector's bits."""
    if x.ndim == 1:
        return x @ x
    if x.shape[1] == 1:
        return (x.T @ x)[0]
    return np.einsum("ij,ij->j", x, x)


class Ascent(NamedTuple):
    """Where a p x B hinge ascent stopped, column by column."""

    z: np.ndarray           # final iterates
    objective: np.ndarray   # tracked functional at z
    weights: np.ndarray     # update weights at z, non-zero exactly on the support
    iterations: np.ndarray
    vanished: np.ndarray    # the update vanished; z is the iterate before it
    traces: list | None     # per column: the functional at every visited iterate
    capped: np.ndarray      # the column was still moving after ``max_iter`` updates


def _workspace(rows: int, width: int, dtype=float):
    """Scratch space for a rows x width block whose live width L is the
    contiguous prefix of rows*L entries: ``space(L)`` is that rows x L block."""
    flat = np.empty(rows * width, dtype=dtype)
    return lambda live: flat[:rows * live].reshape(rows, live)


def _hinge_ascent(c, gammas, rule: str, z0: np.ndarray, conv: ConvergenceSpec, *,
                  offset=None, pull=None, stall_guard: bool = True) -> Ascent:
    """The generalized power method that every stage-one solver runs, on a
    p x B block of iterates; the power stage twos run it at threshold 0,
    without the stall guard.

    A step projects each column z onto the columns of its operator, shifted
    by ``offset``, takes the update weights of the threshold rule and moves
    to the update u = ``c @ weights``, normalised: z <- u/||u||. ``c`` is one
    operator (a dense block or a CrossOperator) for every column, or a
    PermutedCross whose member k goes with column k. ``gammas[k]`` is column
    k's threshold: a scalar, or one per coordinate. A ``pull`` (eps, a) adds
    the constant eps*a to the update and 2 eps a'z to the tracked functional,
    which is otherwise the program objective; the update maximizes its
    linearization, so each column's tracked values are non-decreasing.

    Each column stops on its own: once the relative change of its functional
    and its step are both at most ``tol``, after _STALL_LIMIT stalled steps in
    a row (only with ``stall_guard``), after ``max_iter`` updates, or when its
    update vanishes. The guard ends the sign-pattern cycles of a threshold
    rule; updates linear in z cannot cycle, and there it would cut off a slow
    power iteration, whose functional converges faster than its step. A column
    that ``max_iter`` cuts off is ``capped`` unless its last update already
    met the stop rule: a start that is the fixed point has converged even
    when one update is all the budget allows.

    The stop rule is array arithmetic over the live columns; once one of
    them stalls, the steps come from one pass over their differences.
    Projections, weights and updates are written to workspaces at the
    ascent's full width, and so is a PermutedCross's masked input; they are
    local to the call, which allocates them once. The live iterates and the
    next ones take turns in two more. When columns stop, their iterates are
    written to the returned block, the live ones are packed to the front, and
    the live columns' operator, thresholds and workspace prefixes are picked
    again. On a dense block or a PermutedCross a step allocates no p x B array.
    """
    z = np.array(z0, dtype=float)
    p, width = z.shape
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape[:1] != (width,):
        raise DimensionError(f"need one threshold per column: {width} columns, "
                             f"thresholds of shape {gammas.shape}")
    gammas = gammas.reshape(width, -1).T  # 1 x B, or p x B when they vary by coordinate
    if (gammas == gammas[:, :1]).all():
        # one threshold for every column broadcasts as a single column,
        # which numpy applies faster than a row of equal values
        gammas = gammas[:, :1]
    shift = None if offset is None else offset[:, None]
    push = None if pull is None else (pull[0] * pull[1])[:, None]
    batch, dense, p_proj = isinstance(c, PermutedCross), isinstance(c, np.ndarray), c.shape[1]
    # projections, update weights, updates, a masked batch's inputs (zeroed
    # outside the members' masks) to each product, and l0's active marks
    spaces = (_workspace(p_proj, width), _workspace(p_proj, width), _workspace(p, width),
              _workspace(p, width) if batch and c.rmask is not None else None,
              _workspace(p_proj, width) if batch and c.cmask is not None else None,
              _workspace(p_proj, width, bool) if rule == "l0" else None)

    def pick(cols):
        # the operator of the batch columns ``cols`` with its update's
        # workspaces, and what ``project`` needs of them, at their width
        op = c.take(cols) if batch and cols.size < width else c
        proj, weights, update, masked_z, masked_w, active = (
            None if space is None else space(cols.size) for space in spaces)
        return (op, update, masked_w), (op.T, gammas if gammas.shape[1] == 1 else
                                        gammas[:, cols], proj, weights, masked_z, active)

    def product(op, x, out, masked):
        # op @ x, written to ``out`` where the operator can: a PermutedCross
        # masks x in ``masked`` first; a CrossOperator returns a new array
        if batch:
            return op.product(x, out, masked)
        return np.matmul(op, x, out=out) if dense else op @ x

    def project(z, op_t, gamma, proj, weights, masked, active):
        # the tracked functional of each column of z, and its update weights
        proj = product(op_t, z, proj, masked)
        if shift is not None:
            proj += shift
        obj, weights = _hinge(proj, gamma, rule, weights, active)
        if pull is not None:
            obj = obj + 2.0 * pull[0] * (pull[1] @ z)
        return obj, weights

    iterations = np.zeros(width, dtype=int)
    vanished = np.zeros(width, dtype=bool)
    capped = np.zeros(width, dtype=bool)
    traces = [[] for _ in range(width)] if conv.objective_track else None
    here, there = _workspace(p, width), _workspace(p, width)
    live, zl, zn = np.arange(width), here(width), there(width)
    zl[...] = z
    # every column's picks, which the evaluation at the end reuses
    (op, update, masked_w), full = pick(live)
    at = full
    # per live column: its functional at the last step, the largest change
    # from it that counts as stalled, and its stalled steps in a row
    prev = bound = tail = None
    run = np.zeros(width, dtype=int)
    for step in range(1, conv.max_iter + 1):
        obj, weights = project(zl, *at)
        if traces is not None:
            for col, val in zip(live.tolist(), obj.tolist()):
                traces[col].append(val)
        u = product(op, weights, update, masked_w)
        if push is not None:
            u += push
        nrm = np.sqrt(_sq_norms(u))
        gone = None if np.count_nonzero(nrm) == nrm.size else np.flatnonzero(nrm == 0.0)
        if gone is not None:
            # a vanished update stops its column at the iterate before it
            for i in gone:
                u[:, i], nrm[i] = zl[:, i], 1.0
        z_new = np.divide(u, nrm, out=zn)
        last = step == conv.max_iter
        flat = np.zeros(live.size, dtype=bool) if prev is None else np.abs(obj - prev) <= bound
        stop, stalling = flat, np.count_nonzero(flat)
        if stall_guard:
            run = (run + 1) * flat if stalling else np.zeros_like(run)
        if last or stalling:
            # every live column's step, from its difference written over zl
            moved = np.sqrt(_sq_norms(np.subtract(z_new, zl, out=zl)))
            stop = flat & (moved <= conv.tol)
            if stall_guard:
                # a stalled run is at least one step long, so it is flat now
                stop |= run >= _STALL_LIMIT
        if gone is not None:
            stop[gone] = True
            vanished[live[gone]] = True
        if last:
            z[:, live] = z_new
            iterations[live] = step
            if gone is not None:
                iterations[live[gone]] -= 1
            # the columns that ``max_iter`` cut off
            rest = ~stop
            tail = live[rest], obj[rest], moved[rest]
            break
        if (stalling or gone is not None) and np.count_nonzero(stop):
            for i in np.flatnonzero(stop):
                z[:, live[i]] = z_new[:, i]
            iterations[live[stop]] = step
            if gone is not None:
                iterations[live[gone]] -= 1
            keep = np.flatnonzero(~stop)
            if not keep.size:
                break
            live, run, obj = live[keep], run[keep], obj[keep]
            zl = np.take(z_new, keep, axis=1, out=here(keep.size), mode="clip")
            zn = there(keep.size)
            (op, update, masked_w), at = pick(live)
        else:
            here, there, zl, zn = there, here, z_new, zl
        prev, bound = obj, conv.tol * np.maximum(1.0, np.abs(obj))
    obj, weights = project(z, *full)
    if tail is not None:
        cols, last_obj, moved = tail
        capped[cols] = ((np.abs(obj[cols] - last_obj)
                         > conv.tol * np.maximum(1.0, np.abs(last_obj)))
                        | (moved > conv.tol))
    if traces is not None:
        for trace, val in zip(traces, obj):
            trace.append(float(val))
    return Ascent(z, obj, weights.copy(), iterations, vanished, traces, capped)


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


def _hinge(proj: np.ndarray, gamma, rule: str, out: np.ndarray | None = None,
           active: np.ndarray | None = None):
    """The threshold rule at projections ``proj``: (program objective, update weights).

    ``proj`` is one vector, or a p x B block with one objective per column.
    ``gamma`` is a scalar or one threshold per coordinate (p x 1 for a block).
    "l1" soft-thresholds |proj| (objective: the sum of squared hinges;
    weights: the signed hinges), "l0" clips proj^2 (objective: the sum of
    clipped squares; weights: the active projections). A coordinate is active
    exactly when its weight is non-zero. The weights are written to ``out``
    (proj's shape) when given, and "l0" marks the active coordinates in
    ``active`` (a boolean block of that shape) when given.
    """
    if rule == "l1":
        w = np.abs(proj, out=out)
        w -= gamma
        np.maximum(w, 0.0, out=w)
        # copysign is w * sign(proj) to the bit but at a projection of -0,
        # where its zero weight keeps the sign
        return _sq_norms(w), np.copysign(w, proj, out=w)
    w = np.multiply(proj, proj, out=out)
    w -= gamma
    np.maximum(w, 0.0, out=w)
    obj = w.sum(axis=0)
    # an inactive coordinate's clipped square is already +0
    np.copyto(w, proj, where=np.greater(w, 0.0, out=active))
    return obj, w


def _partner(proj: np.ndarray, gamma, rule: str) -> np.ndarray:
    """Closed-form partner direction: the normalised update weights, all-zero
    when every coordinate is thresholded."""
    weights = _hinge(proj, gamma, rule)[1]
    denom = np.sqrt(float(weights @ weights))
    return weights / denom if denom > 0 else np.zeros_like(proj)


def _solve(c, gammas, rule: str, *, z0, conv: ConvergenceSpec | None, side: str,
           empty: str, restarts: int = 0, seed: int = 0, offset=None, pull=None) -> list:
    """Stage-one solves at every threshold of ``gammas`` (each a scalar or one
    per coordinate) as one hinge ascent. Its columns are thresholds x starts:
    each threshold from the deterministic init and from optional random
    restarts, which are drawn once and shared by the thresholds. Each
    threshold keeps its candidate whose tracked functional is largest; a
    near-tie (within _TIE_RTOL) goes to the earlier start.

    Returns, per threshold, its PatternResult or the EmptySupportError it
    fails with: ``side`` names the solve in errors and ``empty`` is the
    message when the maximizer thresholds every coordinate. One threshold is
    the one-column case (with restarts, one column per start); :func:`_one`
    unwraps it.
    """
    if z0 is None:
        start = init_direction(c).values
    else:
        start = _require_unit(z0.values if isinstance(z0, Direction) else z0, "z0")
        if start.size != c.shape[0]:
            raise DimensionError(f"z0 has length {start.size}, block has {c.shape[0]} rows")
    inits = [start]
    if restarts > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        inits.extend(_random_units(rng, c.shape[0], restarts))
    conv = conv or ConvergenceSpec()
    starts, count = len(inits), len(gammas)
    run = _hinge_ascent(c, np.repeat(np.asarray(gammas, dtype=float), starts, axis=0), rule,
                        np.tile(np.column_stack(inits), count), conv, offset=offset, pull=pull)

    out = []
    for first in range(0, starts * count, starts):
        best = failed = None
        for col in range(first, first + starts):
            if run.vanished[col]:
                failed = col if failed is None else failed
            elif best is None or (run.objective[col] - run.objective[best]
                                  > _TIE_RTOL * abs(run.objective[best])):
                best = col
        if best is None:
            out.append(EmptySupportError(
                f"update vanished while solving for {side}: the threshold exceeds "
                "every projection", side=side, last_iterate=run.z[:, failed].copy()))
            continue
        z, weights = run.z[:, best].copy(), run.weights[:, best]
        bits = weights != 0
        if not bits.any():
            out.append(EmptySupportError(empty, side=side, last_iterate=z))
            continue
        trace = np.asarray(run.traces[best]) if run.traces is not None else None
        out.append(PatternResult(Direction(z), SparsityPattern(bits),
                                 Direction(weights / np.sqrt(float(weights @ weights))),
                                 int(run.iterations[best]), trace, not run.capped[best]))
    return out


def _one(results: list):
    """The result of a one-threshold solve; raises the error it failed with."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def objective_l1(c, z: np.ndarray, gamma2: float) -> float:
    """Sum of squared soft-thresholded projections (the L1 program objective)."""
    return _hinge(_as_block(c).T @ np.asarray(z, dtype=float), gamma2, "l1")[0]


def objective_l0(c, z: np.ndarray, gamma2: float) -> float:
    """Sum of clipped squared projections (the L0 program objective)."""
    return _hinge(_as_block(c).T @ np.asarray(z, dtype=float), gamma2, "l0")[0]


_EMPTY = {"l1": "every coordinate is at or below the threshold",
          "l0": "every squared projection is at or below the threshold"}


def _patterns(c, gammas, rule: str, z0, conv: ConvergenceSpec | None, restarts: int = 0,
              seed: int = 0) -> list:
    """The partner pattern under ``rule`` at every threshold of ``gammas``, as
    one :func:`_solve`: per threshold its PatternResult or EmptySupportError."""
    if any(not g >= 0 for g in gammas):
        raise ValueError("gamma2 must be non-negative")
    return _solve(_as_block(c), gammas, rule, z0=z0, conv=conv, restarts=restarts,
                  seed=seed, side="partner", empty=_EMPTY[rule])


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
    return _one(_patterns(c, [gamma2], "l1", z0, conv, restarts, seed))


def pattern_l0(c, gamma2: float, z0=None, conv: ConvergenceSpec | None = None,
               restarts: int = 0, seed: int = 0) -> PatternResult:
    """Infer the partner support under the squared threshold rule.

    Same contract as :func:`pattern_l1` with (c_i' z)^2 <= gamma2 marking a
    coordinate inactive. The update weights active projections by an
    indicator, the exact subgradient of the program objective, so the
    tracked objective is non-decreasing.
    """
    return _one(_patterns(c, [gamma2], "l0", z0, conv, restarts, seed))


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
    """Data-only bound: columns with ||c_i|| <= gamma2 can never be active.
    A CrossOperator's bound comes from its column norms, without the block."""
    return SparsityPattern(_col_norms(_as_block(c)) > gamma2)


@dataclass(eq=False)
class PairPatterns:
    """Both patterns from the two-sided stage-one pass, plus diagnostics."""

    tau1: SparsityPattern
    tau2: SparsityPattern
    first_side: int
    iterations: dict
    traces: dict
    warnings: tuple[str, ...] = ()


def first_side(order: str, p1: int, p2: int) -> int:
    """The view whose pattern the two-sided pass finds first: "auto" takes the
    larger one, "1-first"/"2-first" force it."""
    if order == "auto":
        return 1 if p1 > p2 else 2
    if order in ("1-first", "2-first"):
        return int(order[0])
    raise ValueError("order must be 'auto', '1-first' or '2-first'")


def _check_penalty(penalty: str) -> None:
    if penalty not in PENALTIES:
        raise ValueError(f"penalty must be one of {PENALTIES}")


def _side_solves(block, gammas, side: int, penalty: str, conv: ConvergenceSpec | None,
                 z0=None) -> list:
    """View ``side``'s pattern at every threshold of ``gammas`` from the block
    whose columns are its coordinates, started from ``z0`` (by default the
    block's largest-norm column): per threshold its PatternResult, or the
    EmptySupportError naming the view that it fails with."""
    _check_penalty(penalty)
    return [EmptySupportError(f"view {side} support collapsed: {res}", side=f"view {side}",
                              last_iterate=res.last_iterate)
            if isinstance(res, EmptySupportError) else res
            for res in _patterns(block, gammas, penalty, z0, conv)]


def first_block(c12, side: int):
    """The block the first side solves on: its columns are view ``side``'s
    coordinates. ``init_direction`` of it is the first side's start."""
    block = _as_block(c12)
    return block.T if side == 1 else block


def shrunk_block(c12, support: SparsityPattern, side: int):
    """The block the second side solves on: its columns are the other view's
    coordinates and its rows view ``side``'s ``support``. ``init_direction``
    of it is the second side's start."""
    block = _as_block(c12)
    idx = support.indices()
    return _rows(block, idx) if side == 1 else _cols(block, idx).T


def pattern_first_many(c12, gammas, side: int, penalty: str = "l1",
                       conv: ConvergenceSpec | None = None, z0=None) -> list:
    """The first side of :func:`pattern_pair` at every threshold of
    ``gammas``, as one ascent: view ``side``'s pattern on the full block. Per
    threshold, its PatternResult or the EmptySupportError that
    :func:`pattern_pair` raises there. ``z0`` overrides the start,
    ``init_direction(first_block(c12, side))``, which does not depend on the
    threshold."""
    return _side_solves(first_block(c12, side), gammas, side, penalty, conv, z0)


def pattern_second_many(c12, lead: PatternResult, side: int, gammas, penalty: str = "l1",
                        conv: ConvergenceSpec | None = None, z0=None) -> list:
    """The rest of :func:`pattern_pair` after its first side ``lead`` (view
    ``side``'s) at every threshold of ``gammas``, as one ascent: the other
    view's pattern on the block shrunk to ``lead``'s support. Per threshold,
    its PairPatterns or the EmptySupportError that :func:`pattern_pair`
    raises there. The solve depends on ``lead`` only through its support;
    ``z0`` overrides the start,
    ``init_direction(shrunk_block(c12, lead.pattern, side))``."""
    other = 3 - side
    out = []
    for res in _side_solves(shrunk_block(c12, lead.pattern, side), gammas, other, penalty,
                            conv, z0):
        if isinstance(res, EmptySupportError):
            out.append(res)
            continue
        res1, res2 = (lead, res) if side == 1 else (res, lead)
        solved = ((side, lead), (other, res))
        out.append(PairPatterns(
            res1.pattern, res2.pattern, side,
            {f"side{v}": r.iterations for v, r in solved},
            {f"side{v}": r.objective_trace for v, r in solved},
            max_iter_warnings(solved)))
    return out


def max_iter_warnings(solved) -> tuple[str, ...]:
    """A warning for each (view, PatternResult) of ``solved`` whose ascent
    used all ``max_iter`` updates, in the order given."""
    return tuple(f"view {v}: stage one reached max_iter ({r.iterations} iterations)"
                 for v, r in solved if not r.converged)


def pattern_pair(c12, gamma1: float, gamma2: float, penalty: str = "l1",
                 conv: ConvergenceSpec | None = None, order: str = "auto") -> PairPatterns:
    """Run the stage-one solver on both sides with successive shrinkage.

    Each side runs from its one deterministic start, the largest-norm column
    of its block. One side's pattern is computed on the full block
    (:func:`pattern_first_many`); the block is then restricted to that support
    and the other side is solved on the shrunken block
    (:func:`pattern_second_many`). ``c12`` may be a
    CrossOperator, which is shrunk without forming the block. ``order`` picks
    which side goes first: "auto" patterns the larger side first,
    "2-first"/"1-first" force it. A side that used all ``conv.max_iter``
    updates is reported in the warnings.
    """
    _check_penalty(penalty)
    block = _as_block(c12)
    side = first_side(order, *block.shape)
    gammas = (gamma1, gamma2) if side == 1 else (gamma2, gamma1)
    kw = dict(penalty=penalty, conv=conv)
    lead = _one(pattern_first_many(block, [gammas[0]], side, **kw))
    return _one(pattern_second_many(block, lead, side, [gammas[1]], **kw))


class BatchPatterns(NamedTuple):
    """Stage-one supports of every member of a batch (p1 x K and p2 x K),
    all-False for the members that failed."""

    tau1: np.ndarray
    tau2: np.ndarray
    ok: np.ndarray


def _batch_ascent(c: PermutedCross, gamma: float, rule: str, conv: ConvergenceSpec, *,
                  stall_guard: bool = True) -> tuple[Ascent, np.ndarray]:
    """One hinge ascent at ``gamma`` for every member, each started from its
    largest-norm column as ``init_direction`` starts it, and the members that
    have a non-zero column (a zero member's update vanishes at once).

    A member whose largest column norm (its square under "l0") is at most
    gamma by a relative margin of _SCREEN_RTOL, which covers the norms'
    rounding, cannot move: no projection of a unit vector exceeds a column
    norm, so every weight is zero and its first update vanishes. The ascent
    leaves it out, and it is recorded as that ascent would end: at its
    start, with zero weights and objective, vanished after 0 iterations.
    """
    norms = c.col_norms()
    width = norms.shape[1]
    js = np.argmax(norms, axis=0)
    top = norms[js, np.arange(width)]
    z0 = c.columns(js) / np.where(top > 0, top, 1.0)
    moves = np.flatnonzero((top if rule == "l1" else top * top)
                           > gamma * (1.0 - _SCREEN_RTOL))
    if moves.size == width:
        return _hinge_ascent(c, np.full(width, gamma), rule, z0, conv,
                             stall_guard=stall_guard), top > 0
    run = Ascent(z0, np.zeros(width), np.zeros((c.shape[1], width)), np.zeros(width, dtype=int),
                 np.ones(width, dtype=bool),
                 [[0.0, 0.0] for _ in range(width)] if conv.objective_track else None,
                 np.zeros(width, dtype=bool))
    if moves.size:
        part = _hinge_ascent(c.take(moves), np.full(moves.size, gamma), rule, z0[:, moves],
                             conv, stall_guard=stall_guard)
        run.z[:, moves], run.objective[moves], run.weights[:, moves] = part[:3]
        run.iterations[moves], run.vanished[moves] = part.iterations, part.vanished
        run.capped[moves] = part.capped
        if run.traces is not None:
            for k, trace in zip(moves.tolist(), part.traces):
                run.traces[k] = trace
    return run, top > 0


def _batch_side(c: PermutedCross, gamma: float, rule: str,
                conv: ConvergenceSpec) -> tuple[np.ndarray, np.ndarray]:
    """One side for every member: the support masks and the members that have
    one (a zero member, a vanished update or an empty support has none)."""
    run, nonzero = _batch_ascent(c, gamma, rule, conv)
    bits = run.weights != 0
    return bits, nonzero & ~run.vanished & bits.any(axis=0)


def pattern_pair_batch(batch: PermutedCross, gamma1: float, gamma2: float,
                       penalty: str = "l1", conv: ConvergenceSpec | None = None,
                       order: str = "auto") -> BatchPatterns:
    """:func:`pattern_pair` for every member of a batch at once.

    Each side is one p x K hinge ascent with pattern_pair's start and stop
    rule per member. The first side runs on the thin factor of the view its
    iterates live in (the view found second); the second side runs on the
    members whose first side found a support, each masked to that support
    instead of shrunk to it. A member fails (``ok`` False) exactly where
    pattern_pair would raise.
    """
    _check_penalty(penalty)
    conv = conv or ConvergenceSpec()
    first = first_side(order, *batch.shape)
    # the lead operator's columns are the coordinates of the side found first
    lead_op, gammas = (batch.T, (gamma1, gamma2)) if first == 1 else (batch, (gamma2, gamma1))
    lead, ok = _batch_side(lead_op.thin(), gammas[0], penalty, conv)
    keep = np.flatnonzero(ok)
    other = np.zeros((lead_op.shape[0], ok.size), dtype=bool)
    if keep.size:
        masked = lead_op.take(keep).cols(lead[:, keep]).T
        other[:, keep], ok[keep] = _batch_side(masked, gammas[1], penalty, conv)
    tau1, tau2 = (lead, other) if first == 1 else (other, lead)
    return BatchPatterns(tau1 & ok, tau2 & ok, ok)


def scca_pair(x1: ViewMatrix, x2: ViewMatrix, gamma1: float, gamma2: float,
              penalty: str = "l1", conv: ConvergenceSpec | None = None,
              order: str = "auto") -> tuple[SparsityPattern, SparsityPattern]:
    """Stage-one patterns for a pair of centered views (full-length both sides)."""
    c12 = CrossOperator.from_views(x1, x2)
    pair = pattern_pair(c12, gamma1, gamma2, penalty=penalty, conv=conv, order=order)
    return pair.tau1, pair.tau2
