import numpy as np
import pytest
from conftest import assert_monotone, make_views

from scca import (ConvergenceSpec, DimensionError, EmptySupportError, GammaMatrix,
                  MultiViewProblem, ViewMatrix, center_scale, gen_rank_one,
                  gen_rank_one_threeview,
                  multiview_pattern, multiview_scca, multiview_screen, pattern_l1,
                  scca_pair)
from scca.simulate import RankOneSpec
from scca.solve import fit_pair


def test_gamma_matrix_validation():
    with pytest.raises(ValueError):
        GammaMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="non-negative"):
        GammaMatrix(np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        GammaMatrix(np.array([[0.0, np.inf], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        GammaMatrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(DimensionError):
        GammaMatrix(np.zeros((2, 3)))
    gam = GammaMatrix(np.array([[0.0, 0.3, 0.2], [0.1, 0.0, 0.4], [0.0, 0.5, 0.0]]))
    assert gam.threshold(0) == pytest.approx(0.5)
    assert gam.threshold(1) == pytest.approx(0.5)
    pair = GammaMatrix.for_pair(0.7, 0.9)
    assert pair.threshold(0) == pytest.approx(0.7)
    assert pair.threshold(1) == pytest.approx(0.9)


def _three_view_problem(sigma=(0.1, 0.1, 0.1), seed=0, p=(30, 24, 36), n=40,
                        supports=((4, 4), (4, 4), (4, 4))):
    spec = RankOneSpec(p=p, n=n, sigma=sigma, seed=seed, supports=supports)
    views, truths = gen_rank_one_threeview(spec)
    centered = [center_scale(v) for v in views]
    return MultiViewProblem.from_views(centered), centered, truths


def test_two_view_specialization_matches_pattern_l1():
    x1, x2 = make_views(15, 6, 8, seed=4)
    problem = MultiViewProblem.from_views([x1, x2])
    block = problem.blocks[(0, 1)]
    gamma2 = 0.3 * np.linalg.norm(block, axis=0).max()
    gam = GammaMatrix(np.array([[0.0, 0.0], [gamma2, 0.0]]))
    conv = ConvergenceSpec(tol=1e-12)
    pat, iterates, _sweeps, _, _converged = multiview_pattern(problem, gam, s=1, conv=conv)
    ref = pattern_l1(block, gamma2, conv=conv)
    assert pat.bits.tolist() == ref.pattern.bits.tolist()
    assert np.abs(iterates[0] - ref.z_lead.values).max() < 1e-10


def test_multiview_screen_examples(rng):
    x1, x2, x3 = [center_scale(v) for v in make_views(12, 4, 5, seed=1)[:1]
                  ] + [center_scale(v) for v in make_views(12, 5, 6, seed=2)]
    # simpler: three fresh views sharing n
    r = np.random.default_rng(5)
    views = []
    for p in (4, 5, 6):
        d = r.standard_normal((12, p))
        d -= d.mean(axis=0)
        from scca import ViewMatrix
        views.append(ViewMatrix(d, [f"v{j}" for j in range(p)], centered=True))
    views[2].data[:, 3] = 0.0  # dead coordinate in view 3
    problem = MultiViewProblem.from_views(views)
    gam0 = GammaMatrix(np.zeros((3, 3)))
    pat0 = multiview_screen(problem, gam0, s=2)
    assert pat0.bits.tolist() == [True, True, True, False, True, True]
    # random threshold against a norm-loop oracle
    gam = GammaMatrix(np.array([[0, 0.1, 0.1], [0.1, 0, 0.1], [0.2, 0.3, 0.0]]))
    pat = multiview_screen(problem, gam, s=2)
    norms = np.zeros(6)
    for r_i in (0, 1):
        t = np.asarray(problem.tilde(r_i, 2))
        for i in range(6):
            norms[i] += np.sqrt(sum(t[a, i] ** 2 for a in range(t.shape[0])))
    assert pat.bits.tolist() == (norms > 0.5).tolist()


def test_multiview_pattern_screen_bound_collapses():
    problem, _views, _truths = _three_view_problem()
    norms = np.zeros(problem.dim(2))
    for r in (0, 1):
        norms += np.linalg.norm(problem.tilde(r, 2), axis=0)
    big = norms.max() / 2 * 1.01
    gam = GammaMatrix(np.array([[0, 0, 0], [0, 0, 0], [big, big, 0.0]]))
    with pytest.raises(EmptySupportError):
        multiview_pattern(problem, gam, s=2)


def test_three_view_planted_pattern_recovery():
    problem, _views, truths = _three_view_problem()
    # per-view thresholds from the screening scale
    gam_rows = []
    for s in range(3):
        norms = np.zeros(problem.dim(s))
        for r in range(3):
            if r != s:
                norms += np.linalg.norm(problem.tilde(r, s), axis=0)
        gam_rows.append(0.42 * norms.max())
    gam = GammaMatrix(np.array([
        [0.0, gam_rows[0] / 2, gam_rows[0] / 2],
        [gam_rows[1] / 2, 0.0, gam_rows[1] / 2],
        [gam_rows[2] / 2, gam_rows[2] / 2, 0.0]]))
    pat, _zs, _sweeps, _tr, _converged = multiview_pattern(problem, gam, s=2)
    true_support = truths[2] != 0
    assert (pat.bits & true_support).sum() >= 7
    assert (pat.bits & ~true_support).sum() <= 2


def test_pattern_equals_projection_zero_set():
    problem, _views, _truths = _three_view_problem(seed=3)
    gam = GammaMatrix(np.full((3, 3), 0.3) - 0.3 * np.eye(3))
    pat, zs, _sweeps, _tr, _converged = multiview_pattern(problem, gam, s=1)
    proj = np.zeros(problem.dim(1))
    for q in (0, 2):
        proj += problem.tilde(q, 1).T @ zs[q]
    assert pat.bits.tolist() == (np.abs(proj) > gam.threshold(1)).tolist()


def test_multiview_objective_monotone_per_sweep():
    problem, _views, _truths = _three_view_problem(seed=9)
    gam = GammaMatrix(np.full((3, 3), 0.2) - 0.2 * np.eye(3))
    conv = ConvergenceSpec(objective_track=True)
    _pat, _zs, _sweeps, trace, _converged = multiview_pattern(problem, gam, s=2, conv=conv)
    assert_monotone(trace)


def test_multiview_flow_two_views_reproduces_pair_path():
    x1, x2 = make_views(20, 5, 7, seed=11)
    block = x1.data.T @ x2.data / 20
    g1 = 0.25 * np.linalg.norm(block, axis=1).max()
    g2 = 0.25 * np.linalg.norm(block, axis=0).max()
    tau1, tau2 = scca_pair(x1, x2, g1, g2, order="2-first",
                           conv=ConvergenceSpec(tol=1e-12))
    sol = multiview_scca([x1, x2], GammaMatrix.for_pair(g1, g2),
                         conv=ConvergenceSpec(tol=1e-12))
    assert sol.patterns[0][0].bits.tolist() == tau1.bits.tolist()
    assert sol.patterns[1][0].bits.tolist() == tau2.bits.tolist()
    # view 2, the wider, goes first, as in the multi-view stage one
    pair_sol = fit_pair(x1, x2, g1, g2, conv=ConvergenceSpec(tol=1e-12))
    for i in range(2):
        a = sol.directions[i][:, 0]
        b = pair_sol.directions[i][:, 0]
        assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-6


def test_multiview_flow_zero_gamma_dense():
    problem, views, _truths = _three_view_problem(seed=2)
    sol = multiview_scca(views, GammaMatrix(np.zeros((3, 3))))
    for i, view in enumerate(views):
        assert sol.patterns[i][0].active_count == view.p
    assert sol.correlations[0] > 0.9  # planted shared factor


def test_multiview_flow_three_view_supports():
    problem, views, truths = _three_view_problem(seed=6)
    rows = []
    for s in range(3):
        norms = np.zeros(problem.dim(s))
        for r in range(3):
            if r != s:
                norms += np.linalg.norm(problem.tilde(r, s), axis=0)
        rows.append(0.42 * norms.max())
    gam = GammaMatrix(np.array([
        [0.0, rows[0] / 2, rows[0] / 2],
        [rows[1] / 2, 0.0, rows[1] / 2],
        [rows[2] / 2, rows[2] / 2, 0.0]]))
    sol = multiview_scca(views, gam, stage2="power")
    for i in range(3):
        true_support = truths[i] != 0
        bits = sol.patterns[i][0].bits
        assert (bits & true_support).sum() / true_support.sum() >= 0.85
    assert sol.pairwise_correlations[0][0, 1] > 0.8


def test_shrinkage_order_invariance_on_well_separated_model():
    problem, _views, truths = _three_view_problem(seed=8, sigma=(0.05, 0.05, 0.05))
    rows = []
    for s in range(3):
        norms = np.zeros(problem.dim(s))
        for r in range(3):
            if r != s:
                norms += np.linalg.norm(problem.tilde(r, s), axis=0)
        rows.append(0.42 * norms.max())

    def run(order):
        prob = problem
        patterns = {}
        for s in order:
            gam = GammaMatrix(np.array([
                [0.0, rows[0] / 2, rows[0] / 2],
                [rows[1] / 2, 0.0, rows[1] / 2],
                [rows[2] / 2, rows[2] / 2, 0.0]]))
            pat, _zs, _sw, _tr, _converged = multiview_pattern(prob, gam, s)
            patterns[s] = pat.bits
            prob = prob.restrict(s, pat.bits)
        return patterns

    down = run([2, 1, 0])
    up = run([0, 1, 2])
    for s in range(3):
        support = truths[s] != 0
        assert (down[s] & support).tolist() == (up[s] & support).tolist()


def _fixture_gamma(problem, frac=0.42):
    rows = []
    for s in range(problem.m):
        norms = sum(np.linalg.norm(problem.tilde(r, s), axis=0)
                    for r in range(problem.m) if r != s)
        rows.append(frac * norms.max())
    m = problem.m
    return GammaMatrix(np.array([[0.0 if r == s else rows[s] / (m - 1) for r in range(m)]
                                 for s in range(m)]))


def test_stage_one_reaching_max_iter_is_a_warning():
    problem, views, _truths = _three_view_problem()
    assert not any("max_iter" in w for w in multiview_scca(views, _fixture_gamma(problem)).warnings)
    # the fixture's views are exactly rank one and every sweep stops after one
    # pass; full-rank noise makes stage one need several, so max_iter=1 cuts it
    rng = np.random.default_rng(0)
    noisy = [center_scale(ViewMatrix(v.data + 0.3 * rng.standard_normal(v.data.shape), v.names))
             for v in views]
    gam = _fixture_gamma(MultiViewProblem.from_views(noisy))
    full = multiview_scca(noisy, gam)
    assert min(full.iterations[0].values()) > 1
    assert not any("max_iter" in w for w in full.warnings)
    cut = multiview_scca(noisy, gam, conv=ConvergenceSpec(max_iter=1))
    # the power stage two runs on the same budget, so each view's sweep is cut too
    assert list(cut.warnings) == [f"view {s}: stage one reached max_iter (1 sweeps)"
                                  for s in (3, 2, 1)] + [
        f"view {s}: stage two reached max_iter (1 iterations)" for s in (3, 2, 1)]


def test_stage_one_converged_in_its_only_sweep_is_not_a_warning():
    # every view of the exactly rank-one fixture converges in its first sweep,
    # so a one-sweep budget is enough and nothing reached max_iter
    problem, views, _truths = _three_view_problem()
    gam = _fixture_gamma(problem)
    for s in range(problem.m):
        _pat, _zs, sweeps, _tr, converged = multiview_pattern(
            problem, gam, s, conv=ConvergenceSpec(max_iter=1))
        assert (sweeps, converged) == (1, True)
    cut = multiview_scca(views, gam, conv=ConvergenceSpec(max_iter=1))
    assert not any("max_iter" in w for w in cut.warnings)
    assert cut.iterations[0] == multiview_scca(views, gam).iterations[0]


def test_two_view_gep_retries_with_the_pair_pipelines_ridge():
    # criterion 7's m=2 fixture: supports of n or more coordinates leave the
    # within-view blocks singular, and both pipelines apply the same ridge
    x1, x2, _truths = gen_rank_one(RankOneSpec(p=(80, 100), n=30, sigma=(0.15, 0.15),
                                               seed=77, supports=((8, 8), (8, 8))))
    x1c, x2c = center_scale(x1), center_scale(x2)
    block = x1c.data.T @ x2c.data / 30
    g1 = 0.35 * np.linalg.norm(block, axis=1).max()
    g2 = 0.35 * np.linalg.norm(block, axis=0).max()
    pair = fit_pair(x1c, x2c, g1, g2, stage2="gep")
    multi = multiview_scca([x1c, x2c], GammaMatrix.for_pair(g1, g2), stage2="gep")
    assert pair.warnings == ("singular within-view covariance: applied ridge 1.306e-08",)
    assert multi.warnings == pair.warnings
    assert multi.normalization == pair.normalization == "cov"
    assert multi.correlations[0] == pair.correlations[0]
    for i in range(2):
        assert multi.directions[i].tobytes() == pair.directions[i].tobytes()
