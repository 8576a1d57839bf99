"""Plot-data emission: biplot and interpolative-line coordinates.

Coordinates for the first two canonical factors are written as plain files
(CSV, JSON or a minimal SVG) so any plotting tool can consume them. Output
bytes are a deterministic function of the solution and options.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import jsontext
from .covariance import ViewMatrix
from .errors import DimensionError, InsufficientFactorsError, IoError
from .solve import CcaSolution, pearson


@dataclass(eq=False)
class BiplotData:
    """Variable-covariate correlations and sample projections, two factors.

    Variables inactive in both leading factors keep exact zero rows.
    """

    variable_coords: list[np.ndarray]   # per view: p_i x 2
    sample_coords: list[np.ndarray]     # per view: n x 2
    rho_pairs: dict[tuple[int, int], tuple[float, float]]
    variable_labels: list[list[str]]
    flags: tuple[str, ...] = ()


@dataclass(eq=False)
class InterpolationData:
    """Marker points per variable projected through the leading directions.

    Each entry is (view, label, marker values, k x 2 line points); inactive
    variables project to the origin.
    """

    entries: list[tuple[int, str, np.ndarray, np.ndarray]]
    flags: tuple[str, ...] = ()


def _check_views(solution: CcaSolution, views) -> list[ViewMatrix]:
    """``views`` as a list: one per solution block, all with the same samples."""
    views = list(views)
    if len(views) != len(solution.directions):
        raise DimensionError("one view per solution block is required")
    for view in views[1:]:
        if view.n != views[0].n:
            raise DimensionError(f"sample counts differ: {views[0].n} vs {view.n}")
    return views


def _covariates(solution: CcaSolution, views: list[ViewMatrix]) -> list[np.ndarray]:
    if solution.covariates is not None:
        return [cv[:, :2] for cv in solution.covariates]
    return [v.data @ d[:, :2] for v, d in zip(views, solution.directions)]


def _active_two(solution: CcaSolution, view: int, p: int) -> np.ndarray:
    if solution.patterns is not None:
        bits = solution.patterns[view][0].bits.copy()
        if len(solution.patterns[view]) > 1:
            bits |= solution.patterns[view][1].bits
        return bits
    d = solution.directions[view][:, :2]
    return np.any(d != 0, axis=1)


def biplot_coords(solution: CcaSolution, views) -> BiplotData:
    """Correlations of each active variable with its view's two leading
    covariates, plus the sample projections and per-pair correlations."""
    if solution.factor_count < 2:
        raise InsufficientFactorsError("biplot needs at least two fitted factors")
    views = _check_views(solution, views)
    covs = _covariates(solution, views)
    variable_coords = []
    flags: list[str] = []
    for i, view in enumerate(views):
        coords = np.zeros((view.p, 2))
        active = np.flatnonzero(_active_two(solution, i, view.p))
        # the active variables as rows, each centred by its own mean as
        # ``pearson`` centres it, and the centred covariates
        rows = view.data.T[active]
        rows -= rows.mean(axis=1, keepdims=True)
        cov = covs[i] - covs[i].mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None] * np.linalg.norm(cov, axis=0)
        # a constant variable or covariate has correlation 0, as ``pearson`` records it
        degenerate = norms == 0.0
        coords[active] = np.where(degenerate, 0.0, rows @ cov / np.where(degenerate, 1.0, norms))
        flags.extend(f"view {i + 1} variable {view.names[j]!r} is constant"
                     for j in active[degenerate.any(axis=1)])
        variable_coords.append(coords)
    rho_pairs = {}
    for r in range(len(views)):
        for s in range(r + 1, len(views)):
            rho_pairs[(r, s)] = (
                pearson(covs[r][:, 0], covs[s][:, 0])[0],
                pearson(covs[r][:, 1], covs[s][:, 1])[0])
    return BiplotData(variable_coords, covs, rho_pairs,
                      [list(v.names) for v in views], tuple(flags))


def interp_coords(solution: CcaSolution, views, markers_per_variable: int = 5,
                  ) -> InterpolationData:
    """Equally spaced marker values over each variable's observed range,
    projected through the view's two leading directions (collinear lines)."""
    if solution.factor_count < 2:
        raise InsufficientFactorsError("interpolative plot needs at least two factors")
    if markers_per_variable < 2:
        raise ValueError("need at least two markers per variable")
    views = _check_views(solution, views)
    entries = []
    for i, view in enumerate(views):
        weights = solution.directions[i][:, :2]
        for j in range(view.p):
            col = view.data[:, j]
            mu = np.linspace(float(col.min()), float(col.max()), markers_per_variable)
            points = np.outer(mu, weights[j])
            entries.append((i, view.names[j], mu, points))
    return InterpolationData(entries)


def _fmt(x: float) -> str:
    return repr(float(x))


def _biplot_rows(data: BiplotData):
    rows = []
    for i, coords in enumerate(data.variable_coords):
        for j, label in enumerate(data.variable_labels[i]):
            rows.append((label, i + 1, coords[j, 0], coords[j, 1], "variable"))
    for i, cc in enumerate(data.sample_coords):
        for k in range(cc.shape[0]):
            rows.append((f"sample{k + 1}", i + 1, cc[k, 0], cc[k, 1], "sample"))
    return rows


def _interp_rows(data: InterpolationData):
    rows = []
    for view, label, mu, points in data.entries:
        for k in range(mu.size):
            rows.append((f"{label}@{_fmt(mu[k])}", view + 1,
                         points[k, 0], points[k, 1], "marker"))
    return rows


def _svg(rows) -> str:
    # fixed 640x640 canvas; coordinates scaled by the largest magnitude
    span = max((max(abs(r[2]), abs(r[3])) for r in rows), default=1.0) or 1.0
    scale = 300.0 / span
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
             'viewBox="0 0 640 640">',
             '<line x1="320" y1="0" x2="320" y2="640" stroke="#ccc"/>',
             '<line x1="0" y1="320" x2="640" y2="320" stroke="#ccc"/>']
    for entity, view, x, y, kind in rows:
        cx = _fmt(320.0 + scale * x)
        cy = _fmt(320.0 - scale * y)
        if kind == "variable":
            parts.append(f'<line x1="320" y1="320" x2="{cx}" y2="{cy}" stroke="#333"/>')
            parts.append(f'<text x="{cx}" y="{cy}" font-size="8">{entity}</text>')
        else:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="#06c">'
                         f'<title>{entity}</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(data, path, format: str = "csv") -> Path:
    """Serialize biplot or interpolation coordinates (csv, json or svg)."""
    if isinstance(data, BiplotData):
        rows = _biplot_rows(data)
        extras = {"rho_pairs": {f"{r + 1}-{s + 1}": list(v)
                                for (r, s), v in sorted(data.rho_pairs.items())},
                  "flags": list(data.flags)}
    elif isinstance(data, InterpolationData):
        rows = _interp_rows(data)
        extras = {"flags": list(data.flags)}
    else:
        raise TypeError("data must be BiplotData or InterpolationData")

    path = Path(path)
    if format == "csv":
        lines = ["entity_id,view,axis1,axis2,kind"]
        lines += [f"{r[0]},{r[1]},{_fmt(r[2])},{_fmt(r[3])},{r[4]}" for r in rows]
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        doc = {"rows": [{"entity_id": r[0], "view": r[1], "axis1": r[2],
                         "axis2": r[3], "kind": r[4]} for r in rows]}
        doc.update(extras)
        payload = jsontext.dumps(doc) + "\n"
    elif format == "svg":
        payload = _svg(rows)
    else:
        raise ValueError("format must be 'csv', 'json' or 'svg'")
    try:
        path.write_text(payload)
    except OSError as err:
        raise IoError(f"cannot write report to {path}: {err}") from err
    return path
