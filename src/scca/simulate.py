"""Synthetic rank-one generators, evaluation metrics and experiment sweeps.

The pair model draws one shared factor u (length n) and per-view direction
noise, then forms each view as the outer product (z_i + eps_i) u' —
transposed so rows are samples. Planted directions are +1/-1/0 block
patterns. Metrics report the cosine between estimated and planted
directions, the fraction of the planted support recovered, false-active
counts, and the estimated correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariance import ViewMatrix, center_scale
from .errors import DegenerateInputError, DimensionError, EmptySupportError
from .pattern import ConvergenceSpec
from .solve import CcaSolution, fit_pair, pearson, power_svd


def planted_direction(p: int, positives: int = 25, negatives: int = 25,
                      negatives_at_end: bool = False) -> np.ndarray:
    """A +1/-1/0 block pattern: +1 run, then -1 run, zeros elsewhere.

    ``negatives_at_end=True`` puts the -1 run at the tail (third-view layout).
    """
    if positives + negatives > p:
        raise DimensionError("support larger than the dimension")
    z = np.zeros(p)
    z[:positives] = 1.0
    if negatives_at_end:
        z[p - negatives:] = -1.0
    else:
        z[positives:positives + negatives] = -1.0
    return z


@dataclass(frozen=True)
class RankOneSpec:
    """Rank-one model specification (defaults follow the pair experiment:
    p = (500, 400), n = 50, direction noise sd 0.2, 25 +1s and 25 -1s
    planted per view; the third view's -1 block sits at the tail)."""

    p: tuple[int, ...] = (500, 400)
    n: int = 50
    sigma: tuple[float, ...] = (0.2, 0.2)
    seed: int = 0
    supports: tuple[tuple[int, int], ...] | None = None  # (positives, negatives) per view

    def __post_init__(self):
        if len(self.p) != len(self.sigma):
            raise DimensionError("need one noise sd per view")
        if self.supports is not None and len(self.supports) != len(self.p):
            raise DimensionError("need one planted support per view")
        if not all(s >= 0 for s in self.sigma):
            raise ValueError("noise sd must be non-negative")
        if self.n < 1:
            raise ValueError("need n >= 1")


def _planted_for(spec: RankOneSpec) -> list[np.ndarray]:
    out = []
    for i, p in enumerate(spec.p):
        pos, neg = (25, 25) if spec.supports is None else spec.supports[i]
        out.append(planted_direction(p, pos, neg, negatives_at_end=(i == 2)))
    return out


def _generate(spec: RankOneSpec) -> tuple[list[ViewMatrix], list[np.ndarray]]:
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    truths = _planted_for(spec)
    u = rng.standard_normal(spec.n)
    views = []
    for i, (p, sd) in enumerate(zip(spec.p, spec.sigma)):
        eps = sd * rng.standard_normal(p) if sd > 0 else np.zeros(p)
        data = np.outer(u, truths[i] + eps)  # (z + eps) u' transposed to n x p
        views.append(ViewMatrix(data, [f"V{j + 1}" for j in range(p)]))
    return views, truths


def gen_rank_one(spec: RankOneSpec | None = None) -> tuple[ViewMatrix, ViewMatrix, list[np.ndarray]]:
    """Two-view rank-one model; returns (view1, view2, planted directions)."""
    spec = spec or RankOneSpec()
    if len(spec.p) != 2:
        raise DimensionError("pair generator needs exactly two views")
    views, truths = _generate(spec)
    return views[0], views[1], truths


def gen_rank_one_threeview(spec: RankOneSpec | None = None,
                           ) -> tuple[list[ViewMatrix], list[np.ndarray]]:
    """Three-view rank-one model; the third view defaults to p=600, sd 0.1,
    with its -1 block at the tail."""
    spec = spec or RankOneSpec(p=(500, 400, 600), sigma=(0.2, 0.2, 0.1))
    if len(spec.p) != 3:
        raise DimensionError("three-view generator needs exactly three views")
    return _generate(spec)


def gen_null(n: int, p1: int, p2: int, seed: int = 0) -> tuple[ViewMatrix, ViewMatrix]:
    """Independent standard normal views (no planted association)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x1 = ViewMatrix(rng.standard_normal((n, p1)), [f"V{j + 1}" for j in range(p1)])
    x2 = ViewMatrix(rng.standard_normal((n, p2)), [f"V{j + 1}" for j in range(p2)])
    return x1, x2


@dataclass(eq=False)
class MetricReport:
    """Per-view recovery metrics for the leading factor."""

    cos_theta: tuple[float, ...]
    support_recovery: tuple[float, ...]
    false_actives: tuple[int, ...]
    rho: float
    cardinalities: tuple[int, ...]
    flags: tuple[str, ...] = ()


def evaluate(estimated: CcaSolution, truths) -> MetricReport:
    """Compare the leading factor of a solution against planted directions."""
    truths = [np.asarray(t, dtype=float) for t in truths]
    if len(truths) != len(estimated.directions):
        raise DimensionError("one planted direction per view is required")
    cos, eta, fp, card = [], [], [], []
    flags: list[str] = []
    for i, truth in enumerate(truths):
        z = estimated.directions[i][:, 0]
        if z.shape != truth.shape:
            raise DimensionError(f"view {i + 1} direction length mismatch")
        nz = np.linalg.norm(z)
        nt = np.linalg.norm(truth)
        if nz == 0.0:
            cos.append(0.0)
            flags.append(f"view {i + 1}: zero estimated direction")
        else:
            cos.append(float(abs(z @ truth) / (nz * nt)))
        if estimated.patterns is not None:
            active = estimated.patterns[i][0].bits
        else:
            active = z != 0
        true_support = truth != 0
        eta.append(float((active & true_support).sum() / max(true_support.sum(), 1)))
        fp.append(int((active & ~true_support).sum()))
        card.append(int(active.sum()))
    return MetricReport(tuple(cos), tuple(eta), tuple(fp),
                        float(estimated.correlations[0]), tuple(card), tuple(flags))


@dataclass(frozen=True)
class NoiseSweepSpec:
    """Noise-amplitude sweep over seeded replicates of the pair model."""

    sigmas: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5)
    replicates: int = 20
    p: tuple[int, int] = (500, 400)
    n: int = 50
    gamma_fraction: tuple[float, float] = (0.44, 0.38)
    seed: int = 0
    supports: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class StabilitySweepSpec:
    """Cardinality sweep on null data: sparse vs dense solution paths."""

    gamma2_fractions: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)
    replicates: int = 5
    n: int = 50
    p: tuple[int, int] = (60, 60)
    seed: int = 0


@dataclass(eq=False)
class SweepTable:
    """Rows of per-replicate metrics plus aggregate rows (kind='mean')."""

    columns: list[str]
    rows: list[list]

    def write_csv(self, path) -> Path:
        path = Path(path)
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
        return path


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _scaled_gammas(x1: ViewMatrix, x2: ViewMatrix, fractions: tuple[float, float],
                   ) -> tuple[float, float]:
    """Thresholds as fractions of the cross-covariance row/column norm scale."""
    c = (x1.data.T @ x2.data) / x1.n
    col_scale = float(np.linalg.norm(c, axis=0).max())
    row_scale = float(np.linalg.norm(c, axis=1).max())
    return fractions[0] * row_scale, fractions[1] * col_scale


def sweep(spec, penalty: str = "l1", conv: ConvergenceSpec | None = None) -> SweepTable:
    """Run a seeded experiment grid of SVD stage-two fits; per-point failures
    are recorded and the sweep continues. The experiment kind is chosen by
    the argument type."""
    if isinstance(spec, NoiseSweepSpec):
        return _sweep_noise(spec, penalty, conv)
    if isinstance(spec, StabilitySweepSpec):
        return _sweep_stability(spec, penalty, conv)
    raise TypeError("spec must be a NoiseSweepSpec or StabilitySweepSpec")


def _sweep_noise(spec: NoiseSweepSpec, penalty, conv) -> SweepTable:
    conv = conv or ConvergenceSpec()
    columns = ["kind", "sigma", "seed", "cos1", "cos2", "eta1", "eta2",
               "fp1", "fp2", "rho", "error"]
    rows: list[list] = []
    for sigma in spec.sigmas:
        collected = []
        for rep in range(spec.replicates):
            seed = spec.seed + 1000 * rep
            model = RankOneSpec(p=spec.p, n=spec.n, sigma=(sigma, sigma),
                                seed=seed, supports=spec.supports)
            x1, x2, truths = gen_rank_one(model)
            x1c, x2c = center_scale(x1), center_scale(x2)
            g1, g2 = _scaled_gammas(x1c, x2c, spec.gamma_fraction)
            try:
                sol = fit_pair(x1c, x2c, g1, g2, penalty=penalty, conv=conv)
            except (EmptySupportError, DegenerateInputError) as err:
                rows.append(["replicate", sigma, seed] + [np.nan] * 7 + [str(err)])
                continue
            rep_metrics = evaluate(sol, truths)
            collected.append(rep_metrics)
            rows.append(["replicate", sigma, seed,
                         rep_metrics.cos_theta[0], rep_metrics.cos_theta[1],
                         rep_metrics.support_recovery[0], rep_metrics.support_recovery[1],
                         rep_metrics.false_actives[0], rep_metrics.false_actives[1],
                         rep_metrics.rho, ""])
        if collected:
            rows.append(["mean", sigma, "",
                         float(np.mean([m.cos_theta[0] for m in collected])),
                         float(np.mean([m.cos_theta[1] for m in collected])),
                         float(np.mean([m.support_recovery[0] for m in collected])),
                         float(np.mean([m.support_recovery[1] for m in collected])),
                         float(np.mean([m.false_actives[0] for m in collected])),
                         float(np.mean([m.false_actives[1] for m in collected])),
                         float(np.mean([m.rho for m in collected])), ""])
    return SweepTable(columns, rows)


def _sweep_stability(spec: StabilitySweepSpec, penalty, conv) -> SweepTable:
    """Correlation of the sparse direction with the dense solution, and the
    estimated correlation, as functions of the active cardinality."""
    conv = conv or ConvergenceSpec()
    columns = ["kind", "gamma2_fraction", "seed", "cardinality2",
               "corr_with_dense", "rho", "error"]
    rows: list[list] = []
    for frac in spec.gamma2_fractions:
        collected = []
        for rep in range(spec.replicates):
            seed = spec.seed + 1000 * rep
            x1, x2 = gen_null(spec.n, spec.p[0], spec.p[1], seed=seed)
            x1c, x2c = center_scale(x1), center_scale(x2)
            c = (x1c.data.T @ x2c.data) / x1c.n
            _u, v_dense, _s = power_svd(c, conv)
            gamma2 = frac * float(np.linalg.norm(c, axis=0).max())
            try:
                sol = fit_pair(x1c, x2c, 0.0, gamma2, penalty=penalty, conv=conv)
            except (EmptySupportError, DegenerateInputError) as err:
                rows.append(["replicate", frac, seed, np.nan, np.nan, np.nan, str(err)])
                continue
            z2 = sol.directions[1][:, 0]
            corr, _ = pearson(z2, v_dense.values)
            card = int(sol.patterns[1][0].active_count)
            rows.append(["replicate", frac, seed, card, abs(corr),
                         float(sol.correlations[0]), ""])
            collected.append((card, abs(corr), float(sol.correlations[0])))
        if collected:
            rows.append(["mean", frac, "",
                         float(np.mean([c[0] for c in collected])),
                         float(np.mean([c[1] for c in collected])),
                         float(np.mean([c[2] for c in collected])), ""])
    return SweepTable(columns, rows)
