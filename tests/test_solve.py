import numpy as np
import pytest
from conftest import classical_correlations, make_views, whitened_views

from scca import (AccessoryVector, CcaSolution, ConvergenceSpec, DegenerateInputError,
                  DimensionError, DirectedParams, GammaMatrix, SingularityError,
                  ViewMatrix, cca_gep, deflate, directed_fit, fit_pair, multiview_gep,
                  multiview_power, multiview_scca, power_svd, stage_two)
from scca.covariance import CrossOperator
from scca.pattern import pattern_pair


# ---------------------------------------------------------------- power_svd

def test_power_svd_diagonal():
    u, v, sigma = power_svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(u.values, [1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(v.values, [1.0, 0.0], atol=1e-10)
    assert sigma == pytest.approx(3.0)


def test_power_svd_rank_one(rng):
    a = rng.normal(size=5)
    b = rng.normal(size=3)
    u, v, sigma = power_svd(np.outer(a, b))
    assert sigma == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(abs(u.values @ (a / np.linalg.norm(a))) - 1.0) < 1e-10
    assert abs(abs(v.values @ (b / np.linalg.norm(b))) - 1.0) < 1e-10


def test_power_svd_matches_eigensolver_oracle(rng):
    block = rng.normal(size=(6, 4))
    _u, _v, sigma = power_svd(block, ConvergenceSpec(tol=1e-13))
    # brute-force oracle: largest eigenvalue of C'C
    vals = np.linalg.eigvalsh(block.T @ block)
    assert abs(sigma - np.sqrt(vals[-1])) < 1e-8


def test_power_svd_zero_block():
    with pytest.raises(DegenerateInputError):
        power_svd(np.zeros((3, 3)))


def test_power_svd_trace_monotone(rng):
    block = rng.normal(size=(8, 6))
    trace = []
    power_svd(block, trace=trace)
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs >= -1e-12)


def _deflated_operator(seed=21):
    """A CrossOperator of two centred views that carries one deflation term."""
    from scca import CrossOperator
    x1, x2 = make_views(15, 9, 7, seed=seed)
    op = CrossOperator.from_views(x1, x2)
    rng = np.random.default_rng(seed)
    z1, z2 = rng.normal(size=9), rng.normal(size=7)
    return op.deflated(z1 / np.linalg.norm(z1), z2 / np.linalg.norm(z2))


def test_power_svd_matches_numpy_svd_without_forming_an_operator(rng, monkeypatch):
    from scca import CrossOperator
    op = _deflated_operator()
    cases = [(block, block) for block in (rng.normal(size=(6, 4)), rng.normal(size=(3, 8)))]
    cases.append((op, op.dense()))

    def formed(*_args, **_kwargs):
        raise AssertionError("power_svd formed the operator's block")
    monkeypatch.setattr(CrossOperator, "dense", formed)
    monkeypatch.setattr(CrossOperator, "__array__", formed)
    for c, block in cases:
        left, values, right = np.linalg.svd(block)
        status: dict = {}
        u, v, sigma = power_svd(c, ConvergenceSpec(tol=1e-12), status=status)
        assert status["converged"] and status["iterations"] > 1
        assert abs(sigma - values[0]) <= 1e-10
        # the pair is the leading one up to a joint sign, with u'Cv = sigma
        sign = np.sign(u.values @ left[:, 0])
        np.testing.assert_allclose(u.values, sign * left[:, 0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(v.values, sign * right[0], rtol=0, atol=1e-9)
        assert float(u.values @ block @ v.values) == pytest.approx(sigma, abs=1e-12)


def test_power_svd_trace_on_an_operator_never_decreases():
    trace: list = []
    _u, _v, sigma = power_svd(_deflated_operator(seed=5), trace=trace)
    trace = np.asarray(trace)
    assert trace.size > 2 and trace[-1] == pytest.approx(sigma, rel=1e-15)
    assert (np.diff(trace) >= -1e-12 * trace[:-1]).all()


def test_two_view_multiview_power_is_the_power_svd_pair(rng):
    conv = ConvergenceSpec(tol=1e-12)
    for block in (rng.normal(size=(6, 4)), rng.normal(size=(3, 7)), np.diag([2.0, 0.5])):
        u, v, _sigma = power_svd(block, conv)
        zs = multiview_power({(0, 1): block}, conv=conv)
        for z, want in zip(zs, (u.values, v.values)):
            assert min(np.linalg.norm(z - want), np.linalg.norm(z + want)) <= 1e-8


def _small_gap_block(seed=3):
    """A 5 x 4 block with singular values (0.5, 0.4975, 0.1, 0.05): the power
    step contracts the angle to the leading pair by only 0.99."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.normal(size=(5, 4)))[0]
    right = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    return left @ np.diag([0.5, 0.4975, 0.1, 0.05]) @ right.T


def _up_to_sign(z, want):
    return min(np.linalg.norm(z - want), np.linalg.norm(z + want))


def test_power_svd_small_spectral_gap_runs_to_the_step_rule():
    # sigma^2 settles long before the iterate does; a stall guard on the
    # functional would stop about 1e-2 away from the leading pair
    block = _small_gap_block()
    left, _values, right = np.linalg.svd(block)
    status: dict = {}
    u, v, _sigma = power_svd(block, status=status)
    assert status["converged"]
    assert _up_to_sign(u.values, left[:, 0]) <= 1e-5
    assert _up_to_sign(v.values, right[0]) <= 1e-5


def test_multiview_power_small_spectral_gap_runs_to_the_step_rule():
    block = _small_gap_block()
    left, _values, right = np.linalg.svd(block)
    status: dict = {}
    zs = multiview_power({(0, 1): block}, status=status)
    assert all(status["converged"])
    assert _up_to_sign(zs[0], left[:, 0]) <= 1e-5
    assert _up_to_sign(zs[1], right[0]) <= 1e-5


# ---------------------------------------------------------------- cca_gep

def test_cca_gep_whitened_diagonal():
    sol = cca_gep(np.eye(2), np.diag([0.9, 0.1]), np.eye(2))
    np.testing.assert_allclose(sol.correlations, [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(np.abs(sol.directions[0]), np.eye(2), atol=1e-8)


def test_cca_gep_scalar_blocks():
    sol = cca_gep(np.array([[4.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert sol.correlations[0] == pytest.approx(0.5)
    assert sol.directions[0][0, 0] == pytest.approx(0.5)
    assert sol.directions[1][0, 0] == pytest.approx(1.0)


def test_cca_gep_matches_whitened_svd_oracle(rng):
    x1, x2 = make_views(40, 5, 5, seed=8)
    c11 = x1.data.T @ x1.data / 40
    c22 = x2.data.T @ x2.data / 40
    c12 = x1.data.T @ x2.data / 40
    sol = cca_gep(c11, c12, c22)
    oracle = classical_correlations(c11, c12, c22)
    np.testing.assert_allclose(sol.correlations, oracle, atol=1e-8)
    # normalization convention: z' C z = 1
    for z, c in ((sol.directions[0][:, 0], c11), (sol.directions[1][:, 0], c22)):
        assert z @ c @ z == pytest.approx(1.0, abs=1e-8)


def test_cca_gep_singular_requires_ridge(rng):
    x1, x2 = make_views(4, 6, 3, seed=1)  # n < p1 makes C11 singular
    c11 = x1.data.T @ x1.data / 4
    c22 = x2.data.T @ x2.data / 4
    c12 = x1.data.T @ x2.data / 4
    with pytest.raises(SingularityError):
        cca_gep(c11, c12, c22)
    sol = cca_gep(c11, c12, c22, ridge=1e-6)
    assert sol.factor_count >= 1


def test_cca_gep_rejects_asymmetric():
    with pytest.raises(DimensionError):
        cca_gep(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.eye(2))


def test_cca_gep_identity_reduces_to_svd(rng):
    block = rng.normal(size=(4, 4))
    sol = cca_gep(np.eye(4), block, np.eye(4), factors=1)
    u, v, sigma = power_svd(block, ConvergenceSpec(tol=1e-13))
    assert abs(sol.correlations[0] - sigma) < 1e-8
    for got, want in ((sol.directions[0][:, 0], u.values),
                      (sol.directions[1][:, 0], v.values)):
        assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-8


def test_power_svd_sign_flip_invariance(rng):
    block = rng.normal(size=(5, 4))
    u, v, sigma = power_svd(block)
    assert float((-u.values) @ block @ (-v.values)) == pytest.approx(sigma)


# ---------------------------------------------------------------- deflation

def test_deflate_annihilates_rank_one(rng):
    z1 = rng.normal(size=4)
    z1 /= np.linalg.norm(z1)
    z2 = rng.normal(size=3)
    z2 /= np.linalg.norm(z2)
    block = np.outer(z1, z2)
    out = deflate(block, z1, z2)
    assert np.abs(out).max() < 1e-12
    np.testing.assert_array_equal(block, np.outer(z1, z2))  # input left as it was


def test_deflate_orthogonal_directions_noop():
    base = np.outer([1.0, 0.0], [1.0, 0.0])
    out = deflate(base, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out, base)


def test_deflate_two_orthogonal_factors(rng):
    q1 = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    q2 = np.linalg.qr(rng.normal(size=(4, 2)))[0]
    block = 2.0 * np.outer(q1[:, 0], q2[:, 0]) + 0.7 * np.outer(q1[:, 1], q2[:, 1])
    once = deflate(block, q1[:, 0], q2[:, 0])
    np.testing.assert_allclose(once, 0.7 * np.outer(q1[:, 1], q2[:, 1]), atol=1e-12)
    assert np.linalg.norm(deflate(once, q1[:, 1], q2[:, 1])) < 1e-8


def test_deflate_requires_unit_norm():
    with pytest.raises(DimensionError):
        deflate(np.eye(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        deflate(np.eye(2), np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]))


# ---------------------------------------------------------------- multi-factor fits

def test_multi_factor_single_equals_pair_pipeline():
    # one factor is the pair pipeline: stage one, then stage two on its supports
    x1, x2 = make_views(12, 5, 4, seed=3)
    one = fit_pair(x1, x2, 0.02, 0.02, factors=1)
    op = CrossOperator.from_views(x1, x2)
    pair = pattern_pair(op, 0.02, 0.02)
    est = stage_two({(0, 1): op}, [pair.tau1.indices(), pair.tau2.indices()], "svd")
    for got, want in zip(one.directions, est.directions):
        np.testing.assert_array_equal(got[:, 0], want)
    assert one.patterns[0][0].bits.tolist() == pair.tau1.bits.tolist()
    assert one.patterns[1][0].bits.tolist() == pair.tau2.bits.tolist()


def _two_factor_views(rng, n=60, p1=30, p2=24):
    """Two planted rank-one terms with disjoint supports and separated scales."""
    u1 = rng.standard_normal(n)
    u2 = rng.standard_normal(n)
    u2 -= u1 * (u1 @ u2) / (u1 @ u1)
    z1a = np.zeros(p1)
    z1a[:5] = 1.0
    z2a = np.zeros(p2)
    z2a[:5] = 1.0
    z1b = np.zeros(p1)
    z1b[10:14] = 1.0
    z2b = np.zeros(p2)
    z2b[10:14] = -1.0
    d1 = np.outer(u1, z1a) + 0.45 * np.outer(u2, z1b)
    d2 = np.outer(u1, z2a) + 0.45 * np.outer(u2, z2b)
    d1 -= d1.mean(axis=0)
    d2 -= d2.mean(axis=0)
    x1 = ViewMatrix(d1, [f"A{j}" for j in range(p1)], centered=True)
    x2 = ViewMatrix(d2, [f"B{j}" for j in range(p2)], centered=True)
    return x1, x2, (z1a, z1b), (z2a, z2b)


def test_multi_factor_two_planted_factors(rng):
    x1, x2, (z1a, z1b), (z2a, z2b) = _two_factor_views(rng)
    block = x1.data.T @ x2.data / x1.n
    g1 = 0.25 * np.linalg.norm(block, axis=1).max()
    g2 = 0.25 * np.linalg.norm(block, axis=0).max()
    # the deflated residual lives on the weak factor's scale (0.45^2 of the
    # base), so the thresholds sit below it; the supports are disjoint and
    # noise-free, so the strong factor keeps its support exactly
    sol = fit_pair(x1, x2, 0.15 * g1, 0.15 * g2, factors=2)
    assert sol.factor_count == 2
    # factor 1 carries the strong support, factor 2 the weak one
    strong1 = sol.patterns[0][0].bits
    weak1 = sol.patterns[0][1].bits
    assert np.all(strong1[z1a != 0])
    assert np.all(weak1[z1b != 0])
    assert np.all(sol.patterns[1][0].bits[z2a != 0])
    assert np.all(sol.patterns[1][1].bits[z2b != 0])
    assert sol.correlations[0] >= sol.correlations[1]


def test_multi_factor_beyond_rank_truncates(rng):
    z1 = rng.normal(size=6)
    z1 /= np.linalg.norm(z1)
    z2 = rng.normal(size=5)
    z2 /= np.linalg.norm(z2)
    u = rng.standard_normal(30)
    d1 = np.outer(u, z1)
    d2 = np.outer(u, z2)
    d1 -= d1.mean(axis=0)
    d2 -= d2.mean(axis=0)
    x1 = ViewMatrix(d1, list("abcdef"), centered=True)
    x2 = ViewMatrix(d2, list("vwxyz"), centered=True)
    sol = fit_pair(x1, x2, 0.0, 0.0, factors=3)
    assert sol.factor_count < 3
    assert sol.warnings


def test_multi_factor_zero_gamma_reproduces_classical_cca():
    # whitened views: the deflation sequence is the classical solution exactly
    x1, x2 = whitened_views(10, 3, 3, seed=21)
    c11 = x1.data.T @ x1.data / 10
    c22 = x2.data.T @ x2.data / 10
    c12 = x1.data.T @ x2.data / 10
    oracle = classical_correlations(c11, c12, c22)
    for stage2 in ("svd", "gep"):
        sol = fit_pair(x1, x2, 0.0, 0.0, factors=3, stage2=stage2)
        assert sol.factor_count == 3
        np.testing.assert_allclose(sol.correlations, oracle, atol=1e-6)
    # every other caller of the shared stage two: full supports at gamma 0
    # and the classical leading correlation
    y = AccessoryVector(np.random.default_rng(5).standard_normal(10)).center()
    undirected = DirectedParams(0.0, 0.0, eps1=0.0, eps2=0.0)
    fits = {f"directed_fit {st}": lambda st=st: directed_fit(x1, x2, y, undirected, stage2=st)
            for st in ("svd", "gep")}
    fits.update({f"multiview_scca {st}": lambda st=st: multiview_scca(
        [x1, x2], GammaMatrix.for_pair(0.0, 0.0), stage2=st) for st in ("power", "gep")})
    for label, fit in fits.items():
        sol = fit()
        assert [p[0].active_count for p in sol.patterns] == [3, 3], label
        assert abs(sol.correlations[0] - oracle[0]) <= 1e-6, label


# ---------------------------------------------------------------- multi-view back-ends

def test_multiview_gep_two_views_matches_cca_gep(rng):
    x1, x2 = make_views(30, 4, 3, seed=6)
    c11 = x1.data.T @ x1.data / 30
    c22 = x2.data.T @ x2.data / 30
    c12 = x1.data.T @ x2.data / 30
    pair = cca_gep(c11, c12, c22, factors=1)
    result = multiview_gep({(0, 1): c12}, [c11, c22])
    assert abs(result.value - pair.correlations[0]) < 1e-10
    for i in range(2):
        a = result.directions[i]
        b = pair.directions[i][:, 0]
        assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-8


def test_multiview_gep_concentrates_on_shared_coordinate():
    m, p = 3, 4
    rho = 0.6
    cross = {(r, s): rho * np.outer(np.eye(p)[:, 0], np.eye(p)[:, 0])
             for r in range(m) for s in range(r + 1, m)}
    diag = [np.eye(p)] * m
    result = multiview_gep(cross, diag)
    # oracle: with identity diagonals this is a symmetric eigenproblem
    a = np.zeros((m * p, m * p))
    for (r, s), b in cross.items():
        a[r * p:(r + 1) * p, s * p:(s + 1) * p] = b
        a[s * p:(s + 1) * p, r * p:(r + 1) * p] = b.T
    vals, vecs = np.linalg.eigh(a)
    assert abs(result.value - vals[-1]) < 1e-10
    for z in result.directions:
        assert abs(abs(z[0]) / np.linalg.norm(z) - 1.0) < 1e-10


def test_multiview_gep_zero_cross_flags_uninformative():
    cross = {(0, 1): np.zeros((3, 2))}
    result = multiview_gep(cross, [np.eye(3), np.eye(2)])
    assert result.uninformative
    assert abs(result.value) < 1e-12


def test_multiview_power_two_views_leading_pair(rng):
    block = np.diag([2.0, 0.5, 0.1])
    zs = multiview_power({(0, 1): block})
    np.testing.assert_allclose(np.abs(zs[0]), [1, 0, 0], atol=1e-8)
    np.testing.assert_allclose(np.abs(zs[1]), [1, 0, 0], atol=1e-8)


def test_multiview_power_three_view_planted(rng):
    # noiseless consistent rank-one construction
    dirs = []
    for p in (8, 6, 7):
        v = rng.normal(size=p)
        dirs.append(v / np.linalg.norm(v))
    cross = {(r, s): np.outer(dirs[r], dirs[s])
             for r in range(3) for s in range(r + 1, 3)}
    zs = multiview_power(cross, conv=ConvergenceSpec(tol=1e-12))
    for z, d in zip(zs, dirs):
        assert abs(z @ d) > 0.999


def test_solution_requires_sorted_correlations():
    with pytest.raises(ValueError):
        CcaSolution(directions=[np.zeros((2, 2)), np.zeros((2, 2))],
                    correlations=np.array([0.1, 0.9]),
                    factor_count=2, normalization="unit")


def test_bad_stage2_is_rejected_before_any_stage_one(monkeypatch):
    import scca.directed
    import scca.multiview
    import scca.solve
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(scca.solve, "pattern_pair")
    counting(scca.directed, "directed_pattern_dot")
    counting(scca.multiview, "multiview_pattern")
    x1, x2 = make_views(12, 5, 4, seed=3)
    y = AccessoryVector(x1.data[:, 0])
    fits = [lambda: fit_pair(x1, x2, 0.0, 0.0, stage2="bogus"),
            lambda: fit_pair(x1, x2, 0.0, 0.0, factors=2, stage2="power2"),
            lambda: directed_fit(x1, x2, y, DirectedParams(0.0, 0.0, 1.0, 1.0), stage2="bogus"),
            lambda: multiview_scca([x1, x2], GammaMatrix.for_pair(0.0, 0.0), stage2="bogus"),
            lambda: multiview_scca([x1, x2, x1], GammaMatrix(np.zeros((3, 3))), stage2="svd")]
    for fit in fits:
        with pytest.raises(ValueError, match="stage2 must be"):
            fit()
    assert calls == []
    fit_pair(x1, x2, 0.0, 0.0)
    assert calls == ["pattern_pair"]


def test_gep_ridge_depends_on_the_support_not_the_sample_order():
    # view 2's support of 5 coordinates exceeds the 4 samples, so its centred
    # within-view block is singular whether or not Cholesky rounds to failure
    x1, x2 = make_views(4, 4, 8, seed=0)
    block = x1.data.T @ x2.data / 4
    g1 = 0.5 * np.linalg.norm(block, axis=1).max()
    g2 = 0.5 * np.linalg.norm(block, axis=0).max()
    perm = np.random.default_rng(0).permutation(4)
    y1, y2 = (ViewMatrix(x.data[perm], x.names, centered=True) for x in (x1, x2))
    fits = [fit_pair(a, b, g1, g2, factors=2, stage2="gep") for a, b in ((x1, x2), (y1, y2))]
    assert fits[0].factor_count == fits[1].factor_count
    ridge = [[w for w in sol.warnings if w.startswith("singular within-view covariance")]
             for sol in fits]
    assert ridge[0] == ridge[1] and len(ridge[0]) == 1
    assert fits[0].patterns[1][0].active_count >= 4



def test_multiview_power_reports_max_iter(rng):
    cross = {(r, s): rng.normal(size=(p, q))
             for (r, p), (s, q) in [((0, 5), (1, 4)), ((0, 5), (2, 6)), ((1, 4), (2, 6))]}
    status: dict = {}
    full = multiview_power(cross, status=status)
    assert all(status["converged"]) and min(status["iterations"]) > 1
    cut = multiview_power(cross, conv=ConvergenceSpec(max_iter=1), status=status)
    assert status == {"iterations": [1, 1, 1], "converged": [False, False, False]}
    assert len(cut) == len(full) == 3


def test_power_stage_two_reports_max_iter(rng):
    from scca import CrossOperator, center_scale, stage_two
    views = [center_scale(ViewMatrix(rng.normal(size=(12, p)), [f"v{j}" for j in range(p)]))
             for p in (5, 4, 6)]
    blocks = {(r, s): CrossOperator.from_views(views[r], views[s])
              for r, s in [(0, 1), (0, 2), (1, 2)]}
    active = [np.arange(v.p) for v in views]
    assert stage_two(blocks, active, "power").warnings == ()
    cut = stage_two(blocks, active, "power", conv=ConvergenceSpec(max_iter=1))
    assert cut.warnings == tuple(f"view {v}: stage two reached max_iter (1 iterations)"
                                 for v in (3, 2, 1))
