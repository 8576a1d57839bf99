import json

import numpy as np
import pytest
from conftest import make_views

from scca import (InsufficientFactorsError, IoError, ViewMatrix, biplot_coords,
                  center_scale, fit_pair, interp_coords, pearson, write_report)


def _two_factor_solution(seed=0, n=40, p1=12, p2=10):
    """Two well-separated planted factors so both patterns are meaningful."""
    rng = np.random.default_rng(seed)
    u1 = rng.standard_normal(n)
    u2 = rng.standard_normal(n)
    u2 -= u1 * (u1 @ u2) / (u1 @ u1)
    z1a = np.zeros(p1); z1a[:3] = 1.0
    z2a = np.zeros(p2); z2a[:3] = 1.0
    z1b = np.zeros(p1); z1b[5:8] = 1.0
    z2b = np.zeros(p2); z2b[5:8] = 1.0
    d1 = np.outer(u1, z1a) + 0.5 * np.outer(u2, z1b) + 0.01 * rng.standard_normal((n, p1))
    d2 = np.outer(u1, z2a) + 0.5 * np.outer(u2, z2b) + 0.01 * rng.standard_normal((n, p2))
    x1 = center_scale(ViewMatrix(d1, [f"A{j}" for j in range(p1)]))
    x2 = center_scale(ViewMatrix(d2, [f"B{j}" for j in range(p2)]))
    block = x1.data.T @ x2.data / n
    g = 0.075 * np.linalg.norm(block, axis=0).max()
    sol = fit_pair(x1, x2, g, g, factors=2)
    return sol, [x1, x2]


def test_biplot_requires_two_factors():
    x1, x2 = make_views(20, 5, 4, seed=1)
    sol = fit_pair(x1, x2, 0.0, 0.0, factors=1)
    with pytest.raises(InsufficientFactorsError):
        biplot_coords(sol, [x1, x2])
    with pytest.raises(InsufficientFactorsError):
        interp_coords(sol, [x1, x2])


def test_biplot_variable_equal_to_covariate():
    sol, views = _two_factor_solution()
    x1 = views[0]
    cov1 = sol.covariates[0][:, 0]
    data = np.column_stack([x1.data, cov1])
    extended = ViewMatrix(data, x1.names + ["COV"], centered=True)
    ext_dirs = np.vstack([sol.directions[0], np.zeros((1, sol.factor_count))])
    from scca import CcaSolution, SparsityPattern
    patterns = [[SparsityPattern(np.append(p.bits, True)) for p in sol.patterns[0]],
                sol.patterns[1]]
    sol2 = CcaSolution(directions=[ext_dirs, sol.directions[1]],
                       correlations=sol.correlations, factor_count=sol.factor_count,
                       normalization=sol.normalization,
                       covariates=sol.covariates, patterns=patterns)
    data_out = biplot_coords(sol2, [extended, views[1]])
    row = data_out.variable_coords[0][-1]
    assert row[0] == pytest.approx(1.0, abs=1e-10)


def test_biplot_constant_variable_flagged():
    sol, views = _two_factor_solution(seed=3)
    x1 = views[0]
    data = x1.data.copy()
    data[:, 4] = 0.0  # centered constant column, active in neither factor
    from scca import CcaSolution, SparsityPattern
    bits0 = sol.patterns[0][0].bits.copy()
    bits0[4] = True  # force it active so the correlation is attempted
    patterns = [[SparsityPattern(bits0), sol.patterns[0][1]], sol.patterns[1]]
    sol2 = CcaSolution(directions=sol.directions, correlations=sol.correlations,
                       factor_count=sol.factor_count, normalization=sol.normalization,
                       covariates=sol.covariates, patterns=patterns)
    view = ViewMatrix(data, x1.names, centered=True)
    out = biplot_coords(sol2, [view, views[1]])
    np.testing.assert_array_equal(out.variable_coords[0][4], [0.0, 0.0])
    assert out.flags


def _pearson_loop(sol, views):
    """The variable coordinates and flags of a per-variable ``pearson`` loop."""
    coords, flags = [], []
    for i, view in enumerate(views):
        out = np.zeros((view.p, 2))
        active = sol.patterns[i][0].bits | sol.patterns[i][1].bits
        for j in np.flatnonzero(active):
            r1, d1 = pearson(view.data[:, j], sol.covariates[i][:, 0])
            r2, d2 = pearson(view.data[:, j], sol.covariates[i][:, 1])
            if d1 or d2:
                flags.append(f"view {i + 1} variable {view.names[j]!r} is constant")
            out[j] = (r1, r2)
        coords.append(out)
    return coords, flags


@pytest.mark.parametrize("constant_covariate", [False, True])
def test_biplot_matches_the_per_variable_pearson_loop(constant_covariate):
    from scca import CcaSolution, SparsityPattern
    sol, views = _two_factor_solution(seed=2)
    data = views[0].data + 3.0       # uncentred, so the block centres each variable
    data[:, 2] = 0.1                 # constant, and its mean rounds back to 0.1
    data[:, 6] = 0.0
    views = [ViewMatrix(data, views[0].names), views[1]]
    covariates = [cv.copy() for cv in sol.covariates]
    if constant_covariate:
        covariates[1][:, 1] = 2.5
    every = [[SparsityPattern(np.ones(v.p, dtype=bool))] * 2 for v in views]
    sol = CcaSolution(directions=sol.directions, correlations=sol.correlations,
                      factor_count=sol.factor_count, normalization=sol.normalization,
                      covariates=covariates, patterns=every)
    want_coords, want_flags = _pearson_loop(sol, views)
    got = biplot_coords(sol, views)
    for got_view, want_view in zip(got.variable_coords, want_coords):
        np.testing.assert_allclose(got_view, want_view, rtol=0, atol=1e-12)
    assert list(got.flags) == want_flags
    # A2 and A6, and every variable of view 2 when its covariate is constant
    assert want_flags[:2] == ["view 1 variable 'A2' is constant",
                              "view 1 variable 'A6' is constant"]
    assert len(want_flags) == 2 + (10 if constant_covariate else 0)


def test_biplot_active_rows_dominate_and_inactive_zero():
    sol, views = _two_factor_solution(seed=5)
    out = biplot_coords(sol, views)
    active = sol.patterns[0][0].bits | sol.patterns[0][1].bits
    norms = np.linalg.norm(out.variable_coords[0], axis=1)
    assert norms[~active].max(initial=0.0) == 0.0
    assert norms[active].min() > 0.1
    # correlations recomputed from raw data match
    j = int(np.flatnonzero(active)[0])
    col = views[0].data[:, j]
    cov = sol.covariates[0][:, 0]
    oracle = np.corrcoef(col, cov)[0, 1]
    assert out.variable_coords[0][j, 0] == pytest.approx(oracle, abs=1e-10)
    # per-pair correlations attached
    assert (0, 1) in out.rho_pairs


def test_interp_inactive_variable_at_origin_and_lines_collinear():
    sol, views = _two_factor_solution(seed=7)
    data = interp_coords(sol, views, markers_per_variable=5)
    active0 = sol.patterns[0][0].bits | sol.patterns[0][1].bits
    by_label = {(view, label): (mu, pts) for view, label, mu, pts in data.entries}
    inactive_label = views[0].names[int(np.flatnonzero(~active0)[0])]
    mu, pts = by_label[(0, inactive_label)]
    np.testing.assert_array_equal(pts, np.zeros_like(pts))
    for view, label, mu, pts in data.entries:
        assert np.all(np.diff(mu) >= 0)
        # collinearity: every point is mu * direction, so cross products vanish
        for k in range(pts.shape[0]):
            cross = pts[k, 0] * pts[-1, 1] - pts[k, 1] * pts[-1, 0]
            assert abs(cross) < 1e-10


def test_interp_single_axis_weight():
    from scca import CcaSolution, SparsityPattern
    d = np.array([[0.0, 0.7], [1.0, 0.0], [2.0, 0.3]])
    view = ViewMatrix(d, ["a", "b"])
    directions = np.array([[0.5, 0.0], [0.0, 1.0]])
    sol = CcaSolution(directions=[directions], correlations=np.array([1.0, 0.5]),
                      factor_count=2, normalization="unit",
                      patterns=[[SparsityPattern([True, False]),
                                 SparsityPattern([False, True])]])
    data = interp_coords(sol, [view], markers_per_variable=3)
    mu, pts = data.entries[0][2], data.entries[0][3]
    np.testing.assert_allclose(mu, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(pts, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])


def test_write_report_formats(tmp_path):
    sol, views = _two_factor_solution(seed=9)
    data = biplot_coords(sol, views)
    csv_path = write_report(data, tmp_path / "biplot.csv", format="csv")
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "entity_id,view,axis1,axis2,kind"
    parsed = [line.split(",") for line in lines[1:]]
    assert {row[4] for row in parsed} == {"variable", "sample"}
    # round-trip: float cells parse back exactly
    row = parsed[0]
    assert float(row[2]) == data.variable_coords[0][0, 0]

    json_path = write_report(data, tmp_path / "biplot.json", format="json")
    doc = json.loads(json_path.read_text())
    assert {"rows", "rho_pairs", "flags"} <= set(doc)
    svg_path = write_report(data, tmp_path / "biplot.svg", format="svg")
    assert svg_path.read_text().startswith("<svg")

    interp = interp_coords(sol, views)
    marker_path = write_report(interp, tmp_path / "interp.csv", format="csv")
    assert "marker" in marker_path.read_text()


def test_write_report_deterministic_bytes(tmp_path):
    sol, views = _two_factor_solution(seed=11)
    data = biplot_coords(sol, views)
    p1 = write_report(data, tmp_path / "a.json", format="json")
    p2 = write_report(data, tmp_path / "b.json", format="json")
    assert p1.read_bytes() == p2.read_bytes()
    s1 = write_report(data, tmp_path / "a.svg", format="svg")
    s2 = write_report(data, tmp_path / "b.svg", format="svg")
    assert s1.read_bytes() == s2.read_bytes()


def test_write_report_unwritable_path(tmp_path):
    sol, views = _two_factor_solution(seed=13)
    data = biplot_coords(sol, views)
    with pytest.raises(IoError):
        write_report(data, tmp_path / "missing_dir" / "x.csv", format="csv")
