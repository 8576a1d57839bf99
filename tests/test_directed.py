import numpy as np
import pytest
from conftest import assert_monotone, dense_stage_two, make_views, orthonormal_columns

from scca import (AccessoryVector, ConvergenceSpec, DirectedParams,
                  EmptySupportError, GammaMatrix, IndefiniteMatrixError,
                  SingularityError, StackedProblem, ViewMatrix, center_scale, compute_beta,
                  directed_fit, directed_pattern_dot, directed_pattern_reg,
                  directed_stacked, directed_stacked_fit, directed_two_stage, gen_rank_one,
                  multiview_scca, pattern_l1)
from scca.covariance import CrossOperator
from scca.directed import UnivariateSelector
from scca.simulate import RankOneSpec
from scca.solve import pearson


def _directed_inputs(n=20, p1=6, p2=8, seed=0):
    rng = np.random.default_rng(seed)
    x1, x2 = make_views(n, p1, p2, seed=seed)
    y = AccessoryVector(rng.standard_normal(n)).center()
    block = x1.data.T @ x2.data / n
    a1 = x1.data.T @ y.values / n
    a2 = x2.data.T @ y.values / n
    return x1, x2, y, block, a1, a2


def test_eps_zero_reduces_to_pattern_l1_bitwise():
    x1, x2, _y, block, a1, a2 = _directed_inputs(seed=1)
    gamma2 = 0.3 * np.linalg.norm(block, axis=0).max()
    params = DirectedParams(0.0, gamma2, eps1=0.0, eps2=0.0)
    directed = directed_pattern_dot(block, a1, a2, params)
    plain = pattern_l1(block, gamma2)
    assert directed.pattern.bits.tolist() == plain.pattern.bits.tolist()
    np.testing.assert_array_equal(directed.z_lead.values, plain.z_lead.values)


def test_zero_block_follows_alignment():
    x1, _x2, _y, _block, a1, a2 = _directed_inputs(seed=2)
    block = np.zeros((a1.size, a2.size))
    params = DirectedParams(0.0, 0.0, eps1=1.0, eps2=1.0)
    res = directed_pattern_dot(block, a1, a2, params)
    expected = a1 / np.linalg.norm(a1)
    np.testing.assert_allclose(res.z_lead.values, expected, atol=1e-12)


def test_directed_screening_bound(rng):
    # coordinates with ||c_i|| + eps2 ||x2ty_i|| <= gamma2 are always inactive,
    # from the deterministic start and from random ones alike
    for seed in range(10):
        x1, x2, _y, block, a1, a2 = _directed_inputs(seed=seed)
        bound = np.linalg.norm(block, axis=0) + 1.3 * np.abs(a2)
        gamma2 = float(np.quantile(bound, 0.5))
        params = DirectedParams(0.0, gamma2, eps1=0.7, eps2=1.3)
        randoms = np.random.default_rng(seed).standard_normal((4, a1.size))
        for z0 in [None, *(z / np.linalg.norm(z) for z in randoms)]:
            try:
                res = directed_pattern_dot(block, a1, a2, params, z0=z0)
            except EmptySupportError:
                continue
            screened_out = bound <= gamma2
            assert not np.any(res.pattern.bits & screened_out)


def test_directed_objective_trace_monotone():
    x1, x2, _y, block, a1, a2 = _directed_inputs(seed=3)
    gamma2 = 0.25 * np.linalg.norm(block, axis=0).max()
    params = DirectedParams(0.0, gamma2, eps1=0.8, eps2=0.6)
    res = directed_pattern_dot(block, a1, a2, params,
                               conv=ConvergenceSpec(objective_track=True))
    assert_monotone(res.objective_trace)


def test_directed_recovers_support_better_under_noise():
    # paired runs on the planted generator at a threshold where the
    # undirected solver misses part of the support
    improvements = []
    for seed in range(6):
        spec = RankOneSpec(p=(120, 100), n=40, sigma=(0.45, 0.45), seed=seed,
                           supports=((10, 10), (10, 10)))
        x1, x2, truths = gen_rank_one(spec)
        x1c, x2c = center_scale(x1), center_scale(x2)
        y = AccessoryVector(x1c.data @ truths[0]).center()
        block = x1c.data.T @ x2c.data / x1c.n
        a2 = x2c.data.T @ y.values / x1c.n
        a1 = x1c.data.T @ y.values / x1c.n
        gamma2 = 0.62 * np.linalg.norm(block, axis=0).max()
        plain = pattern_l1(block, gamma2)
        directed = directed_pattern_dot(
            block, a1, a2, DirectedParams(0.0, gamma2, eps1=0.3, eps2=0.3))
        support = truths[1] != 0
        eta_plain = (plain.pattern.bits & support).sum() / support.sum()
        eta_dir = (directed.pattern.bits & support).sum() / support.sum()
        improvements.append(eta_dir - eta_plain)
    assert np.mean(improvements) > 0
    assert min(improvements) >= 0


# ---------------------------------------------------------------- regression variant

def test_reg_equals_dot_on_orthonormal_design(rng):
    n, p1, p2 = 24, 5, 6
    x1 = ViewMatrix(orthonormal_columns(n, p1, rng), [f"A{j}" for j in range(p1)],
                    centered=True)
    x2 = ViewMatrix(orthonormal_columns(n, p2, rng), [f"B{j}" for j in range(p2)],
                    centered=True)
    y = AccessoryVector(rng.standard_normal(n)).center()
    block = x1.data.T @ x2.data / n
    raw1 = x1.data.T @ y.values
    raw2 = x2.data.T @ y.values
    beta1 = compute_beta(x1, y)
    beta2 = compute_beta(x2, y)
    gamma2 = 0.25 * (np.linalg.norm(block, axis=0) + np.abs(raw2)).max()
    params = DirectedParams(0.0, gamma2, eps1=1.0, eps2=1.0)
    dot = directed_pattern_dot(block, raw1, raw2, params)
    reg = directed_pattern_reg(block, beta1, beta2, params)
    assert dot.pattern.bits.tolist() == reg.pattern.bits.tolist()
    assert np.abs(dot.z_lead.values - reg.z_lead.values).max() < 1e-10
    assert np.abs(dot.z_partner.values - reg.z_partner.values).max() < 1e-10


def test_reg_with_zero_beta_reduces_to_plain():
    _x1, _x2, _y, block, a1, a2 = _directed_inputs(seed=4)
    gamma2 = 0.3 * np.linalg.norm(block, axis=0).max()
    params = DirectedParams(0.0, gamma2, eps1=1.0, eps2=1.0)
    reg = directed_pattern_reg(block, np.zeros_like(a1), np.zeros_like(a2), params)
    plain = pattern_l1(block, gamma2)
    assert reg.pattern.bits.tolist() == plain.pattern.bits.tolist()


def test_compute_beta_contracts(rng):
    n, p = 24, 3
    q = orthonormal_columns(n, p, rng)
    x = ViewMatrix(q, ["a", "b", "c"], centered=True)
    y = AccessoryVector(q[:, 0].copy()).center()
    np.testing.assert_allclose(compute_beta(x, y), [1.0, 0.0, 0.0], atol=1e-10)
    # orthogonal accessory -> zero coefficients
    resid = rng.standard_normal(n)
    resid -= q @ (q.T @ resid)
    resid -= resid.mean()
    resid -= q @ (q.T @ resid)
    np.testing.assert_allclose(compute_beta(x, AccessoryVector(resid, centered=False).center()),
                               np.zeros(3), atol=1e-10)


def test_compute_beta_matches_normal_equations(rng):
    x1, _ = make_views(10, 3, 2, seed=7)
    y = AccessoryVector(rng.standard_normal(10)).center()
    ridge = 0.3
    beta = compute_beta(x1, y, ridge=ridge)
    oracle = np.linalg.solve(x1.data.T @ x1.data + ridge * np.eye(3),
                             x1.data.T @ y.values)
    assert np.abs(beta - oracle).max() < 1e-10


def test_compute_beta_collinear_columns_are_singular(rng):
    data = rng.standard_normal((10, 3))
    data[:, 2] = data[:, 0]  # collinear
    data -= data.mean(axis=0)
    x = ViewMatrix(data, ["a", "b", "c"], centered=True)
    y = AccessoryVector(rng.standard_normal(10)).center()
    with pytest.raises(SingularityError):
        compute_beta(x, y)


def test_compute_beta_wide_view_fails_before_the_gram(rng, monkeypatch):
    x, _ = make_views(10, 14, 2, seed=3)
    y = AccessoryVector(rng.standard_normal(10)).center()

    def no_eigvalsh(_m):
        raise AssertionError("the p x p Gram matrix was decomposed")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    with pytest.raises(SingularityError) as err:
        compute_beta(x, y)
    assert str(err.value) == "normal equations are singular; re-run with ridge > 0"
    monkeypatch.undo()
    beta = compute_beta(x, y, ridge=0.5)
    oracle = np.linalg.solve(x.data.T @ x.data + 0.5 * np.eye(14), x.data.T @ y.values)
    assert np.abs(beta - oracle).max() < 1e-10


@pytest.mark.parametrize("p", [11, 40])
@pytest.mark.parametrize("ridge", [1e-3, 1.0])
def test_compute_beta_wide_view_dual_matches_the_primal_formula(rng, p, ridge):
    x, _ = make_views(10, p, 2, seed=p)
    y = AccessoryVector(rng.standard_normal(10)).center()
    primal = np.linalg.solve(x.data.T @ x.data + ridge * np.eye(p), x.data.T @ y.values)
    np.testing.assert_allclose(compute_beta(x, y, ridge=ridge), primal, rtol=0, atol=1e-10)


def test_compute_beta_wide_view_never_decomposes_a_p_by_p_matrix(rng, monkeypatch):
    x, _ = make_views(10, 60, 2, seed=8)
    y = AccessoryVector(rng.standard_normal(10)).center()
    shapes = []

    def recording(real):
        def call(m, *rest):
            shapes.append(np.shape(m))
            return real(m, *rest)
        return call

    for name in ("eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    compute_beta(x, y, ridge=0.5)
    assert shapes == [(10, 10), (10, 10)]
    # the n x n matrix is checked for singularity as the p x p one is: a
    # centred view has rank n - 1, so a negligible ridge leaves it singular
    with pytest.raises(SingularityError) as err:
        compute_beta(x, y, ridge=1e-30)
    assert str(err.value) == "normal equations are singular; re-run with ridge > 0"


def test_compute_beta_narrow_view_unchanged(rng):
    x, _ = make_views(10, 4, 2, seed=6)
    y = AccessoryVector(rng.standard_normal(10)).center()
    gram = x.data.T @ x.data + 0.0 * np.eye(4)
    assert compute_beta(x, y).tobytes() == np.linalg.solve(gram, x.data.T @ y.values).tobytes()
    # p = n: the centred view has rank n - 1, which the spectrum check still finds
    square, _ = make_views(10, 10, 2, seed=6)
    with pytest.raises(SingularityError) as err:
        compute_beta(square, y)
    assert str(err.value) == "normal equations are singular; re-run with ridge > 0"


def _dense_directed(x1, x2, y, params, stage2):
    """Reference dot-mode fit on the explicit blocks (full within-view blocks
    subset for GEP): (patterns, directions, rho, stage-two warnings)."""
    n = x1.n
    block = x1.data.T @ x2.data / n
    a1, a2 = x1.data.T @ y.values / n, x2.data.T @ y.values / n
    res2 = directed_pattern_dot(block, a1, a2, params)
    ix2 = res2.pattern.indices()
    res1 = directed_pattern_dot(block[:, ix2].T, a2[ix2], a1, params.swapped())
    ix1 = res1.pattern.indices()
    c11, c22 = x1.data.T @ x1.data / n, x2.data.T @ x2.data / n
    z1, z2, warn = dense_stage_two(block[np.ix_(ix1, ix2)], c11[np.ix_(ix1, ix1)],
                                   c22[np.ix_(ix2, ix2)], stage2, ix1, ix2, x1.p, x2.p)
    rho, _ = pearson(x1.data @ z1, x2.data @ z2)
    return (res1.pattern.bits, res2.pattern.bits), (z1, z2), rho, warn


@pytest.mark.parametrize("n,p1,p2", [(40, 12, 10), (15, 40, 30)])
# the "n-" in each id names the covariance divisor, which is always n
@pytest.mark.parametrize("stage2", ["svd", "gep"], ids=lambda s: f"n-{s}")
def test_directed_fit_on_operator_matches_dense(n, p1, p2, stage2):
    # full-rank noise plus a latent signal on four columns of each view
    rng = np.random.default_rng(p1)
    latent = 2.0 * rng.standard_normal(n)
    d1, d2 = rng.standard_normal((n, p1)), rng.standard_normal((n, p2))
    d1[:, :4] += latent[:, None]
    d2[:, :4] += latent[:, None]
    x1 = center_scale(ViewMatrix(d1, [f"A{j}" for j in range(p1)]))
    x2 = center_scale(ViewMatrix(d2, [f"B{j}" for j in range(p2)]))
    y = AccessoryVector(latent + rng.standard_normal(n)).center()
    op = CrossOperator.from_views(x1, x2)
    params = DirectedParams(0.35 * op.T.col_norms().max(), 0.35 * op.col_norms().max())
    bits, dirs, rho, warn = _dense_directed(x1, x2, y, params, stage2)
    sol = directed_fit(x1, x2, y, params, mode="dot", stage2=stage2)
    assert list(sol.warnings) == list(warn)
    for i in range(2):
        assert sol.patterns[i][0].bits.tolist() == bits[i].tolist()
        np.testing.assert_allclose(sol.directions[i][:, 0], dirs[i], rtol=0, atol=1e-10)
    assert abs(sol.correlations[0] - rho) <= 1e-10


def test_directed_stage_one_never_densifies_the_operator(monkeypatch):
    x1, x2, _y, block, a1, a2 = _directed_inputs(seed=5)
    params = DirectedParams(0.2, 0.3 * np.linalg.norm(block, axis=0).max())
    want = directed_pattern_dot(block, a1, a2, params)

    def no_dense(_self):
        raise AssertionError("stage one formed the block")

    monkeypatch.setattr(CrossOperator, "dense", no_dense)
    got = directed_pattern_dot(CrossOperator.from_views(x1, x2), a1, a2, params)
    assert got.pattern.bits.tolist() == want.pattern.bits.tolist()
    np.testing.assert_allclose(got.z_lead.values, want.z_lead.values, rtol=0, atol=1e-12)
    # a zero block still starts from the alignment pull
    zero = ViewMatrix(np.zeros_like(x1.data), x1.names, centered=True)
    from_zero = directed_pattern_dot(CrossOperator.from_views(zero, x2), a1, a2, params)
    np.testing.assert_allclose(from_zero.z_lead.values, a1 / np.linalg.norm(a1), atol=1e-12)


# ---------------------------------------------------------------- stacked form

def _dense_stacked(x1, x2, eps1, eps2):
    """tilde_c = [[eps1*C11, C12], [C12', eps2*C22]] formed densely, its
    eigenvalues and its symmetric eigh square root (null space clipped)."""
    n = x1.n
    c11, c22, c12 = (a.data.T @ b.data / n for a, b in ((x1, x1), (x2, x2), (x1, x2)))
    tilde_c = np.block([[eps1 * c11, c12], [c12.T, eps2 * c22]])
    vals, vecs = np.linalg.eigh(tilde_c)
    return tilde_c, vals, (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _stacked_offsets(x1, x2, y, eps1, eps2):
    return 2.0 * np.concatenate([eps1 * x1.data.T @ y.values, eps2 * x2.data.T @ y.values])


def test_nan_parameters_are_refused(rng):
    x1, x2 = make_views(25, 2, 2, seed=9)
    y = AccessoryVector(rng.standard_normal(25))
    sp = StackedProblem.build(x1, x2, eps1=0.8, eps2=1.2)
    for args in ((np.nan, 0.1), (0.1, np.nan)):
        with pytest.raises(ValueError, match="non-negative"):
            directed_stacked(sp, y, *args)
    for k in range(4):
        values = [0.1] * 4
        values[k] = np.nan
        with pytest.raises(ValueError, match="non-negative"):
            DirectedParams(*values)


def test_stacked_matches_grid_oracle(rng):
    x1, x2 = make_views(25, 2, 2, seed=9)
    y = AccessoryVector(rng.standard_normal(25)).center()
    sp = StackedProblem.build(x1, x2, eps1=0.8, eps2=1.2)
    tilde_c, root_vals, root = _dense_stacked(x1, x2, 0.8, 1.2)
    assert root_vals.min() > -1e-10
    gamma1 = gamma2 = 0.05
    pattern, v_star, z_star = directed_stacked(sp, y, gamma1, gamma2)
    # dense grid oracle on the stacked objective
    grid = np.random.default_rng(1).normal(size=(40000, 4))
    grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    np.linalg.cholesky(tilde_c + 1e-12 * np.eye(4))  # PSD check only
    offsets = _stacked_offsets(x1, x2, y, 0.8, 1.2)
    gvec = np.array([gamma1, gamma1, gamma2, gamma2])
    scores = (np.maximum(np.abs(grid @ root + offsets) - gvec, 0.0) ** 2).sum(axis=1)
    # v* lives in the factor's row space and enters the program as root'v*
    proj = sp.root.T @ v_star.values + offsets
    solver_score = float((np.maximum(np.abs(proj) - gvec, 0.0) ** 2).sum())
    assert solver_score >= scores.max() * (1 - 1e-6)
    # the grid maximizer induces the same stacked pattern
    v_best = grid[np.argmax(scores)]
    oracle_bits = np.abs(root @ v_best + offsets) > gvec
    assert pattern.bits.tolist() == oracle_bits.tolist()
    # closed-form z  matches the partner formula at v*
    w = np.maximum(np.abs(proj) - gvec, 0.0)
    np.testing.assert_allclose(z_star.values,
                               np.sign(proj) * w / np.linalg.norm(w), atol=1e-12)


def test_stacked_side_threshold_silences_view_one(rng):
    x1, x2 = make_views(25, 3, 3, seed=10)
    y = AccessoryVector(rng.standard_normal(25)).center()
    sp = StackedProblem.build(x1, x2, eps1=1.0, eps2=1.0)
    _tilde_c, _vals, root = _dense_stacked(x1, x2, 1.0, 1.0)
    offsets = _stacked_offsets(x1, x2, y, 1.0, 1.0)
    bound1 = (np.linalg.norm(root, axis=0) + np.abs(offsets))[:3].max() * 1.01
    pattern, _v, _z = directed_stacked(sp, y, bound1, 1e-6)
    assert not pattern.bits[:3].any()
    assert pattern.bits[3:].any()


@pytest.mark.parametrize("n, p1, p2", [(12, 20, 15), (12, 20, 6), (40, 5, 4)])
@pytest.mark.parametrize("eps1, eps2", [(1.5, 2.0), (1.0, 1.0), (2.0, 0.5), (0.9, 0.9),
                                        (0.5, 0.5), (0.0, 0.0)])
def test_thin_stacked_factor_matches_the_dense_root(n, p1, p2, eps1, eps2):
    x1, x2 = make_views(n, p1, p2, seed=n + p2)
    y = AccessoryVector(np.random.default_rng(n + 1).standard_normal(n)).center()
    tilde_c, vals, root = _dense_stacked(x1, x2, eps1, eps2)
    # the dense eigenvalue test: ε1·ε2 < 1 is indefinite once the canonical
    # correlation exceeds sqrt(ε1·ε2), so always at p > n, not always at p < n
    if vals.min() < -1e-8 * max(vals.max(), 1.0):
        assert eps1 * eps2 < 1
        with pytest.raises(IndefiniteMatrixError):
            StackedProblem.build(x1, x2, eps1, eps2)
        return
    assert eps1 * eps2 >= 1 or p1 + p2 < n
    sp = StackedProblem.build(x1, x2, eps1, eps2)
    assert sp.root.shape == (min(n, p1) + min(n, p2), p1 + p2)
    assert sp.root.shape[0] <= 2 * n
    np.testing.assert_allclose(sp.root.T @ sp.root, tilde_c, rtol=0,
                               atol=1e-12 * np.abs(tilde_c).max())
    offsets = _stacked_offsets(x1, x2, y, eps1, eps2)
    np.testing.assert_allclose(2.0 * sp.tilde_x.T @ y.values, offsets, rtol=0, atol=1e-12)
    gamma1, gamma2 = 0.5 * np.abs(offsets[:p1]).max(), 0.5 * np.abs(offsets[p1:]).max()
    got = directed_stacked(sp, y, gamma1, gamma2)
    want = directed_stacked(StackedProblem(root, sp.tilde_x, p1), y, gamma1, gamma2)
    assert got[0].bits.tolist() == want[0].bits.tolist()
    assert 0 < got[0].active_count < p1 + p2
    np.testing.assert_allclose(got[2].values, want[2].values, rtol=0, atol=1e-8)
    np.testing.assert_allclose(sp.root.T @ got[1].values, root.T @ want[1].values,
                               rtol=0, atol=1e-8)


def test_stacked_rejects_indefinite():
    from scca.directed import _symmetric_sqrt
    from scca import IndefiniteMatrixError
    with pytest.raises(IndefiniteMatrixError):
        _symmetric_sqrt(np.diag([1.0, -0.5]))


# ---------------------------------------------------------------- two-stage

def test_two_stage_keep_all_matches_undirected(rng):
    x1, x2 = make_views(20, 6, 5, seed=12)
    y = AccessoryVector(rng.standard_normal(20)).center()
    block = x1.data.T @ x2.data / 20
    g1 = 0.2 * np.linalg.norm(block, axis=1).max()
    g2 = 0.2 * np.linalg.norm(block, axis=0).max()
    from scca.solve import fit_pair
    undirected = fit_pair(x1, x2, g1, g2)
    two = directed_two_stage(x1, x2, y, UnivariateSelector(keep_fraction=1.0),
                             g1, g2)
    np.testing.assert_allclose(two.directions[0], undirected.directions[0], atol=1e-12)
    np.testing.assert_allclose(two.correlations, undirected.correlations, atol=1e-12)


def test_two_stage_keeps_matching_column(rng):
    x1, x2 = make_views(20, 6, 5, seed=13)
    y = AccessoryVector(x1.data[:, 2].copy()).center()
    selector = UnivariateSelector(keep_fraction=0.34)
    q1 = selector.select(x1, y)
    assert 2 in q1.tolist()


def test_two_stage_support_contained_in_selection():
    spec = RankOneSpec(p=(60, 50), n=30, sigma=(0.15, 0.15), seed=5,
                       supports=((6, 6), (6, 6)))
    x1, x2, truths = gen_rank_one(spec)
    x1c, x2c = center_scale(x1), center_scale(x2)
    y = AccessoryVector(x1c.data @ truths[0]).center()
    selector = UnivariateSelector(keep_fraction=0.5)
    q1, q2 = selector.select(x1c, y), selector.select(x2c, y)
    block = x1c.data.T @ x2c.data / 30
    g1 = 0.3 * np.linalg.norm(block, axis=1).max()
    g2 = 0.3 * np.linalg.norm(block, axis=0).max()
    sol = directed_two_stage(x1c, x2c, y, selector, g1, g2)
    assert set(np.flatnonzero(sol.patterns[0][0].bits)) <= set(q1.tolist())
    assert set(np.flatnonzero(sol.patterns[1][0].bits)) <= set(q2.tolist())


def test_selector_keeps_at_least_one_column():
    x1, _x2 = make_views(12, 4, 4, seed=14)
    y = AccessoryVector(x1.data[:, 3].copy()).center()
    assert UnivariateSelector(keep_fraction=0.0).select(x1, y).tolist() == [3]


# ---------------------------------------------------------------- equivalences

def test_multiview_with_accessory_view_matches_dot():
    spec = RankOneSpec(p=(40, 30), n=25, sigma=(0.2, 0.2), seed=17,
                       supports=((5, 5), (5, 5)))
    x1, x2, truths = gen_rank_one(spec)
    x1c, x2c = center_scale(x1), center_scale(x2)
    rng = np.random.default_rng(17)
    y_raw = x1c.data @ truths[0] + 0.1 * rng.standard_normal(25)
    y = AccessoryVector(y_raw).center()
    block = x1c.data.T @ x2c.data / 25
    g1 = 0.35 * np.linalg.norm(block, axis=1).max()
    g2 = 0.35 * np.linalg.norm(block, axis=0).max()
    params = DirectedParams(g1, g2, eps1=1.0, eps2=1.0)
    dot = directed_fit(x1c, x2c, y, params, mode="dot",
                       conv=ConvergenceSpec(tol=1e-12))
    yview = ViewMatrix(y.values[:, None], ["y"], centered=True)
    gam = GammaMatrix(np.array([[0.0, g1, 0.0], [g2, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    mv = multiview_scca([x1c, x2c, yview], gam, conv=ConvergenceSpec(tol=1e-12))
    assert mv.patterns[0][0].bits.tolist() == dot.patterns[0][0].bits.tolist()
    assert mv.patterns[1][0].bits.tolist() == dot.patterns[1][0].bits.tolist()


def test_directed_fits_report_max_iter():
    x1, x2, y, block, _a1, _a2 = _directed_inputs(n=20, p1=12, p2=15, seed=3)
    params = DirectedParams(0.1 * np.linalg.norm(block, axis=1).max(),
                            0.1 * np.linalg.norm(block, axis=0).max())
    full = directed_fit(x1, x2, y, params)
    assert min(full.iterations[0].values()) > 1
    assert not any("max_iter" in w for w in full.warnings)
    cut = directed_fit(x1, x2, y, params, conv=ConvergenceSpec(max_iter=1))
    # view 2 is solved first, then view 1 on the shrunken block
    assert [w for w in cut.warnings if "stage one" in w] == [
        f"view {v}: stage one reached max_iter (1 iterations)" for v in (2, 1)]

    assert not any("max_iter" in w for w in directed_stacked_fit(x1, x2, y, params).warnings)
    cut = directed_stacked_fit(x1, x2, y, params, conv=ConvergenceSpec(max_iter=1))
    assert list(cut.warnings) == ["stage one reached max_iter (1 iterations)"]


def test_directed_stacked_status_keeps_the_pattern_first():
    x1, x2, y, _block, _a1, _a2 = _directed_inputs(seed=4)
    sp = StackedProblem.build(x1, x2, 1.0, 1.0)
    status: dict = {}
    out = directed_stacked(sp, y, 0.0, 0.0, conv=ConvergenceSpec(max_iter=1), status=status)
    assert out[0].bits.any()
    assert status == {"iterations": 1, "converged": False}
    directed_stacked(sp, y, 0.0, 0.0, status=status)
    assert status["converged"] and status["iterations"] > 1
