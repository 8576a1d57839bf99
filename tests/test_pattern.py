import numpy as np
import pytest
from conftest import assert_monotone, make_views

from scca import (ConvergenceSpec, DegenerateInputError, DimensionError, EmptySupportError,
                  ViewMatrix, center_scale, gen_rank_one,
                  init_direction, pattern_l0, pattern_l1, reconstruct_l0,
                  reconstruct_l1, scca_pair, screen_l1)
from scca.covariance import CrossOperator
from scca.pattern import (first_block, objective_l0, objective_l1, pattern_grid, pattern_pair,
                          shrunk_block)
from scca.simulate import RankOneSpec

TRACK = ConvergenceSpec(objective_track=True)


# ---------------------------------------------------------------- init

def test_init_direction_largest_column():
    d = init_direction(np.array([[3.0, 0.0], [4.0, 0.0]]))
    np.testing.assert_allclose(d.values, [0.6, 0.8])


def test_init_direction_tie_breaks_low_index():
    d = init_direction(np.array([[1.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_allclose(d.values, [1.0, 0.0])


def test_init_direction_matches_norm_loop(rng):
    block = rng.normal(size=(5, 7))
    norms = [np.sqrt(sum(block[i, j] ** 2 for i in range(5))) for j in range(7)]
    j_star = int(np.argmax(norms))
    d = init_direction(block)
    np.testing.assert_allclose(d.values, block[:, j_star] / norms[j_star], atol=1e-14)


def test_init_direction_zero_block():
    with pytest.raises(DegenerateInputError):
        init_direction(np.zeros((3, 2)))


# ---------------------------------------------------------------- l1 solver

def test_pattern_l1_two_variable_fixed_point():
    block = np.array([[1.0, 0.0], [0.0, 0.5]])
    res = pattern_l1(block, 0.6, z0=np.array([1.0, 0.0]), conv=TRACK)
    np.testing.assert_allclose(res.z_lead.values, [1.0, 0.0], atol=1e-12)
    assert res.pattern.bits.tolist() == [True, False]
    np.testing.assert_allclose(res.z_partner.values, [1.0, 0.0], atol=1e-12)
    # grid oracle: no direction beats the fixed point's objective
    grid = np.random.default_rng(0).normal(size=(4000, 2))
    grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    best = (np.maximum(np.abs(grid @ block) - 0.6, 0.0) ** 2).sum(axis=1).max()
    assert objective_l1(block, res.z_lead.values, 0.6) >= best - 1e-12


def test_pattern_l1_zero_gamma_is_power_iteration(rng):
    block = rng.normal(size=(6, 5))
    res = pattern_l1(block, 0.0, conv=ConvergenceSpec(tol=1e-12))
    u = np.linalg.svd(block)[0][:, 0]
    assert min(np.linalg.norm(res.z_lead.values - u),
               np.linalg.norm(res.z_lead.values + u)) < 1e-6
    assert res.pattern.active_count == 5


def test_pattern_l1_threshold_beyond_columns():
    block = np.array([[3.0, 0.0], [4.0, 0.0]])
    with pytest.raises(EmptySupportError) as err:
        pattern_l1(block, 5.5)
    assert err.value.last_iterate is not None


def test_pattern_l1_non_unit_start_rejected():
    with pytest.raises(DimensionError):
        pattern_l1(np.eye(2), 0.1, z0=np.array([2.0, 0.0]))


def test_pattern_l1_recovers_planted_support():
    x1, x2, truths = gen_rank_one(RankOneSpec(seed=11))
    c = center_scale(x1).data.T @ center_scale(x2).data / x1.n
    gamma2 = 0.42 * np.linalg.norm(c, axis=0).max()
    res = pattern_l1(c, gamma2)
    true_support = truths[1] != 0
    recovered = (res.pattern.bits & true_support).sum() / true_support.sum()
    assert recovered >= 0.9
    assert (res.pattern.bits & ~true_support).sum() <= 5


# ---------------------------------------------------------------- reconstruction

def _partner_oracle_l1(block, z, gamma2):
    # literal per-coordinate evaluation of the closed form
    proj = [float(block[:, i] @ z) for i in range(block.shape[1])]
    clipped = [max(abs(p) - gamma2, 0.0) for p in proj]
    denom = np.sqrt(sum(w * w for w in clipped))
    if denom == 0:
        return np.zeros(block.shape[1])
    return np.array([np.sign(p) * w / denom for p, w in zip(proj, clipped)])


def _partner_oracle_l0(block, z, gamma2):
    proj = [float(block[:, i] @ z) for i in range(block.shape[1])]
    ind = [1.0 if p * p - gamma2 > 0 else 0.0 for p in proj]
    denom = np.sqrt(sum(s * p * p for s, p in zip(ind, proj)))
    if denom == 0:
        return np.zeros(block.shape[1])
    return np.array([s * p / denom for s, p in zip(ind, proj)])


def test_reconstruct_l1_examples():
    block = np.array([[1.0, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(
        reconstruct_l1(block, np.array([1.0, 0.0]), 0.6).values, [1.0, 0.0])
    np.testing.assert_allclose(
        reconstruct_l1(np.eye(2), np.array([1.0, 0.0]), 0.0).values, [1.0, 0.0])
    assert reconstruct_l1(block, np.array([0.0, 1.0]), 0.9).values.tolist() == [0, 0]


def test_reconstruct_l0_examples(rng):
    block = np.array([[1.0, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(
        reconstruct_l0(block, np.array([1.0, 0.0]), 0.5).values, [1.0, 0.0])
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    block2 = rng.normal(size=(4, 3))
    expected = block2.T @ z / np.linalg.norm(block2.T @ z)
    np.testing.assert_allclose(reconstruct_l0(block2, z, 0.0).values, expected,
                               atol=1e-12)
    assert reconstruct_l0(block, np.array([0.0, 1.0]), 0.9).values.tolist() == [0, 0]


def test_reconstruction_matches_coordinate_oracle(rng):
    for _ in range(100):
        p1, p2 = rng.integers(2, 6), rng.integers(2, 6)
        block = rng.normal(size=(p1, p2))
        z = rng.normal(size=p1)
        z /= np.linalg.norm(z)
        gamma2 = float(rng.uniform(0, np.abs(block.T @ z).max() * 1.2))
        assert np.abs(reconstruct_l1(block, z, gamma2).values
                      - _partner_oracle_l1(block, z, gamma2)).max() < 1e-12
        g0 = float(rng.uniform(0, (block.T @ z).max() ** 2 * 1.2))
        assert np.abs(reconstruct_l0(block, z, g0).values
                      - _partner_oracle_l0(block, z, g0)).max() < 1e-12


def test_boundary_threshold_is_inactive(rng):
    # gamma exactly equal to a projection magnitude marks it inactive
    block = rng.normal(size=(3, 4))
    z = rng.normal(size=3)
    z /= np.linalg.norm(z)
    proj = block.T @ z
    gamma2 = abs(proj[1])
    partner = reconstruct_l1(block, z, gamma2)
    assert partner.values[1] == 0.0
    partner0 = reconstruct_l0(block, z, proj[2] ** 2)
    assert partner0.values[2] == 0.0


# ---------------------------------------------------------------- l0 solver

def test_pattern_l0_two_variable_example():
    block = np.array([[1.0, 0.0], [0.0, 0.5]])
    res = pattern_l0(block, 0.5, z0=np.array([1.0, 0.0]))
    assert res.pattern.bits.tolist() == [True, False]


def test_pattern_l0_zero_gamma_matches_l1_limit(rng):
    block = rng.normal(size=(5, 4))
    conv = ConvergenceSpec(tol=1e-12)
    r0 = pattern_l0(block, 0.0, conv=conv)
    r1 = pattern_l1(block, 0.0, conv=conv)
    assert r0.pattern.bits.tolist() == r1.pattern.bits.tolist()
    assert min(np.linalg.norm(r0.z_lead.values - r1.z_lead.values),
               np.linalg.norm(r0.z_lead.values + r1.z_lead.values)) < 1e-8


def test_pattern_l0_threshold_beyond_columns():
    block = np.array([[3.0, 0.0], [4.0, 0.0]])
    with pytest.raises(EmptySupportError):
        pattern_l0(block, 26.0)


# ---------------------------------------------------------------- screening

def test_screen_l1_examples(rng):
    assert screen_l1(np.array([[3.0, 0.0], [4.0, 0.0]]), 1.0).bits.tolist() == [True, False]
    block = rng.normal(size=(4, 6))
    block[:, 2] = 0.0
    assert screen_l1(block, 0.0).bits.tolist() == [True, True, False, True, True, True]
    gamma = 0.8
    oracle = [np.sqrt(sum(block[i, j] ** 2 for i in range(4))) > gamma for j in range(6)]
    assert screen_l1(block, gamma).bits.tolist() == oracle


def test_screening_an_operator_never_forms_the_block(monkeypatch):
    x1, x2 = make_views(10, 30, 20, seed=5)
    block = x1.data.T @ x2.data / 10
    cases = []
    for dense, op in ((block, CrossOperator.from_views(x1, x2)),
                      (block.T, CrossOperator.from_views(x2, x1))):
        norms = np.sort(np.linalg.norm(dense, axis=0))
        gamma = 0.5 * (norms[8] + norms[9])  # halfway between two column norms
        want = screen_l1(dense, gamma).bits
        assert 0 < want.sum() < want.size
        cases.append((op, gamma, want))

    def no_dense(_self):
        raise AssertionError("screening formed the block")

    monkeypatch.setattr(CrossOperator, "dense", no_dense)
    for op, gamma, want in cases:
        assert screen_l1(op, gamma).bits.tolist() == want.tolist()


def test_screen_is_sound_for_solver(rng):
    # everything screened out is inactive in the full solve at the same gamma;
    # under l0 a column is out when its squared norm is at most gamma
    for penalty, solver in (("l1", pattern_l1), ("l0", pattern_l0)):
        for seed in range(10):
            r = np.random.default_rng(seed)
            block = r.normal(size=(5, 8))
            norms = np.linalg.norm(block, axis=0)
            gamma = float(np.quantile(norms if penalty == "l1" else norms ** 2, 0.4))
            screened = screen_l1(block, gamma if penalty == "l1" else np.sqrt(gamma))
            try:
                res = solver(block, gamma, restarts=4, seed=seed)
            except EmptySupportError:
                continue
            assert not np.any(res.pattern.bits & ~screened.bits)


# ---------------------------------------------------------------- pair pass

def test_scca_pair_zero_gamma_dense():
    x1, x2 = make_views(10, 4, 3, seed=2)
    tau1, tau2 = scca_pair(x1, x2, 0.0, 0.0)
    assert tau1.active_count == 4 and tau2.active_count == 3


def _grid_pattern_oracle(block, gamma1, gamma2, n_grid=40000, seed=0):
    """Stage-one patterns from dense grid search instead of iteration."""
    r = np.random.default_rng(seed)
    d = r.normal(size=(n_grid, block.shape[0]))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    scores = (np.maximum(np.abs(d @ block) - gamma2, 0.0) ** 2).sum(axis=1)
    z1 = d[np.argmax(scores)]
    tau2 = np.abs(block.T @ z1) > gamma2
    sub = block[:, tau2]
    d2 = r.normal(size=(n_grid, sub.shape[1]))
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    scores2 = (np.maximum(np.abs(d2 @ sub.T) - gamma1, 0.0) ** 2).sum(axis=1)
    z2 = d2[np.argmax(scores2)]
    tau1 = np.abs(sub @ z2) > gamma1
    return tau1, tau2


def test_scca_pair_matches_grid_oracle_on_tiny_instance():
    x1, x2 = make_views(10, 4, 3, seed=5)
    block = x1.data.T @ x2.data / 10
    gamma1 = 0.25 * np.linalg.norm(block, axis=1).max()
    gamma2 = 0.25 * np.linalg.norm(block, axis=0).max()
    # scca_pair's two sides (view 2 first), each from 16 random restarts too
    lead = pattern_l1(first_block(block, 2), gamma2, restarts=16)
    tau1 = pattern_l1(shrunk_block(block, lead.pattern, 2), gamma1, restarts=16).pattern
    o1, o2 = _grid_pattern_oracle(block, gamma1, gamma2)
    assert lead.pattern.bits.tolist() == o2.tolist()
    assert tau1.bits.tolist() == o1.tolist()


def test_scca_pair_planted_model_cardinalities():
    x1, x2, truths = gen_rank_one(RankOneSpec(seed=3))
    x1c, x2c = center_scale(x1), center_scale(x2)
    block = x1c.data.T @ x2c.data / x1c.n
    gamma1 = 0.44 * np.linalg.norm(block, axis=1).max()
    gamma2 = 0.38 * np.linalg.norm(block, axis=0).max()
    tau1, tau2 = scca_pair(x1c, x2c, gamma1, gamma2)
    assert abs(tau1.active_count - 50) <= 5
    assert abs(tau2.active_count - 50) <= 5
    assert tau1.size == 500 and tau2.size == 400


def test_scca_pair_l0_planted_model():
    x1, x2, truths = gen_rank_one(RankOneSpec(p=(60, 50), n=30,
                                              sigma=(0.1, 0.1), seed=4,
                                              supports=((6, 6), (5, 5))))
    x1c, x2c = center_scale(x1), center_scale(x2)
    block = x1c.data.T @ x2c.data / 30
    g1 = (0.4 * np.linalg.norm(block, axis=1).max()) ** 2
    g2 = (0.4 * np.linalg.norm(block, axis=0).max()) ** 2
    tau1, tau2 = scca_pair(x1c, x2c, g1, g2, penalty="l0")
    assert np.all(tau1.bits[truths[0] != 0])
    assert np.all(tau2.bits[truths[1] != 0])


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_convergence_tolerance_must_be_positive_and_finite(tol):
    # an infinite tolerance would stop every ascent after its second step
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        ConvergenceSpec(tol=tol)


def test_nan_thresholds_are_refused():
    block = _planted_block("dense")
    for solver in (pattern_l1, pattern_l0):
        with pytest.raises(ValueError, match="non-negative"):
            solver(block, float("nan"))
    with pytest.raises(ValueError, match="non-negative"):
        pattern_pair(block, 0.1, float("nan"))


def test_pair_empty_side_names_view():
    x1, x2 = make_views(10, 4, 3, seed=5)
    block = x1.data.T @ x2.data / 10
    with pytest.raises(EmptySupportError) as err:
        pattern_pair(block, 0.0, 100.0, order="2-first")
    assert "view 2" in str(err.value)


# ---------------------------------------------------------------- properties

def test_objective_trace_monotone(rng):
    for seed in range(20):
        r = np.random.default_rng(seed)
        block = r.normal(size=(6, 7))
        gamma = float(r.uniform(0, np.linalg.norm(block, axis=0).max() * 0.8))
        res = pattern_l1(block, gamma, conv=TRACK)
        assert_monotone(res.objective_trace)
        res0 = pattern_l0(block, gamma ** 2, conv=TRACK)
        assert_monotone(res0.objective_trace)


def test_fixed_point_stability(rng):
    block = rng.normal(size=(6, 7))
    gamma = 0.3 * np.linalg.norm(block, axis=0).max()
    conv = ConvergenceSpec(tol=1e-10)
    res = pattern_l1(block, gamma, conv=conv)
    z = res.z_lead.values
    proj = block.T @ z
    w = np.maximum(np.abs(proj) - gamma, 0.0)
    update = block @ (w * np.sign(proj))
    z_next = update / np.linalg.norm(update)
    assert np.linalg.norm(z_next - z) < 10 * conv.tol


def test_pattern_matches_partner_zeroes(rng):
    for seed in range(10):
        r = np.random.default_rng(seed)
        block = r.normal(size=(5, 6))
        gamma = float(r.uniform(0, np.linalg.norm(block, axis=0).max() * 0.7))
        for solver in (pattern_l1, pattern_l0):
            g = gamma if solver is pattern_l1 else gamma ** 2
            try:
                res = solver(block, g)
            except EmptySupportError:
                continue
            assert np.array_equal(res.pattern.bits, res.z_partner.values != 0)


def test_scale_covariance(rng):
    block = rng.normal(size=(5, 6))
    gamma = 0.3 * np.linalg.norm(block, axis=0).max()
    res = pattern_l1(block, gamma)
    scaled = pattern_l1(7.5 * block, 7.5 * gamma)
    assert res.pattern.bits.tolist() == scaled.pattern.bits.tolist()
    assert np.abs(res.z_lead.values - scaled.z_lead.values).max() < 1e-9


def test_gamma_monotonicity_of_active_count(rng):
    block = rng.normal(size=(6, 10))
    z0 = init_direction(block).values
    gammas = np.linspace(0.0, np.linalg.norm(block, axis=0).max() * 0.95, 8)
    counts = []
    for g in gammas:
        try:
            counts.append(pattern_l1(block, g, z0=z0).pattern.active_count)
        except EmptySupportError:
            counts.append(0)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_objectives_helpers(rng):
    block = rng.normal(size=(4, 5))
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    proj = block.T @ z
    assert objective_l1(block, z, 0.2) == pytest.approx(
        (np.maximum(np.abs(proj) - 0.2, 0.0) ** 2).sum())
    assert objective_l0(block, z, 0.2) == pytest.approx(
        np.maximum(proj ** 2 - 0.2, 0.0).sum())


# ---------------------------------------------------------------- threshold batches

def _planted_block(kind, seed=3):
    """A p1 x p2 cross block, dense or as an operator, of two views sharing a
    planted factor on their first coordinates."""
    x1, x2 = make_views(30, 40, 25, seed=seed)
    latent = np.random.default_rng(seed).standard_normal(30)
    x1.data[:, :6] += 2.0 * latent[:, None]
    x2.data[:, :4] += 1.5 * latent[:, None]
    op = CrossOperator.from_views(center_scale(x1), center_scale(x2))
    return op if kind == "operator" else op.dense()


def _assert_same_solve(got, want):
    """One threshold's result from a batched solve against its own solve."""
    assert type(got) is type(want)
    if isinstance(want, EmptySupportError):
        assert str(got) == str(want) and got.side == want.side
        np.testing.assert_allclose(got.last_iterate, want.last_iterate, rtol=0, atol=1e-12)
        return
    if hasattr(want, "tau1"):  # a PairPatterns
        assert got.tau1.bits.tolist() == want.tau1.bits.tolist()
        assert got.tau2.bits.tolist() == want.tau2.bits.tolist()
        assert got.iterations == want.iterations and got.warnings == want.warnings
        return
    assert got.pattern.bits.tolist() == want.pattern.bits.tolist()
    assert got.iterations == want.iterations and got.converged == want.converged
    np.testing.assert_allclose(got.z_lead.values, want.z_lead.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.z_partner.values, want.z_partner.values, rtol=0, atol=1e-12)
    if want.objective_trace is not None:
        np.testing.assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-12,
                                   atol=0)


def _each(solve, gammas):
    """``solve(gamma)`` per threshold, a raised EmptySupportError kept as the result."""
    out = []
    for g in gammas:
        try:
            out.append(solve(g))
        except EmptySupportError as err:
            out.append(err)
    return out


@pytest.mark.parametrize("max_iter", [10000, 3])
@pytest.mark.parametrize("restarts", [0, 2])
@pytest.mark.parametrize("kind", ["dense", "operator"])
@pytest.mark.parametrize("rule", ["l1", "l0"])
def test_threshold_batch_matches_one_threshold_solves(rule, kind, restarts, max_iter):
    from scca.pattern import _patterns
    c = _planted_block(kind)
    top = float(np.linalg.norm(np.asarray(first_block(c, 1)), axis=0).max())
    scale = top if rule == "l1" else top ** 2
    # above 1 the first update vanishes: no projection exceeds the threshold
    gammas = [f * scale for f in (0.0, 0.1, 0.3, 0.45, 0.6, 0.8, 1.05, 1.3)]
    conv = ConvergenceSpec(max_iter=max_iter, objective_track=True)

    # the one-side solve that pattern_l1 and pattern_l0 run, each threshold
    # from the same deterministic and random starts
    solver = pattern_l1 if rule == "l1" else pattern_l0
    block = first_block(c, 1)
    batch = _patterns(block, gammas, rule, None, conv, restarts, 7)
    for got, want in zip(batch, _each(lambda g: solver(block, g, conv=conv, restarts=restarts,
                                                       seed=7), gammas)):
        _assert_same_solve(got, want)


def _assert_grid_is_pattern_pair(c, gammas1, gammas2, rule, conv):
    """Every cell of pattern_grid against pattern_pair alone: its patterns,
    iterations and warnings, or its error's type and text."""
    cells = pattern_grid(c, gammas1, gammas2, rule, conv)
    assert list(cells) == [(g1, g2) for g1 in dict.fromkeys(gammas1)
                           for g2 in dict.fromkeys(gammas2)]
    for (g1, g2), got in cells.items():
        try:
            want = pattern_pair(c, g1, g2, penalty=rule, conv=conv)
        except (EmptySupportError, DegenerateInputError) as err:
            assert type(got) is type(err) and str(got) == str(err)
            continue
        assert got.first_side == want.first_side
        assert got.tau1.bits.tolist() == want.tau1.bits.tolist()
        assert got.tau2.bits.tolist() == want.tau2.bits.tolist()
        assert got.iterations == want.iterations and got.warnings == want.warnings
    return cells


@pytest.mark.parametrize("max_iter", [10000, 4])
@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("kind", ["dense", "operator"])
@pytest.mark.parametrize("rule", ["l1", "l0"])
def test_pattern_grid_is_pattern_pair_cell_by_cell(rule, kind, swap, max_iter):
    # p1 = 40 > p2 = 25, so view 1 goes first; swapped, view 2 does
    c = _planted_block(kind)
    c = c.T if swap else c
    first = 2 if swap else 1
    block = np.asarray(first_block(c, first))
    power = 1 if rule == "l1" else 2
    top1 = float(np.linalg.norm(block, axis=0).max()) ** power
    top2 = float(np.linalg.norm(block, axis=1).max()) ** power
    # a repeated value, thresholds above every column norm (1.05 and 3.0), and
    # first-side thresholds that share a support
    g_first = [f * top1 for f in (0.0, 0.3, 0.31, 0.45, 0.3, 1.05, 3.0)]
    g_second = [f * top2 for f in (0.0, 0.2, 0.5, 0.2, 3.0)]
    gammas1, gammas2 = (g_first, g_second) if first == 1 else (g_second, g_first)
    conv = ConvergenceSpec(max_iter=max_iter)
    cells = _assert_grid_is_pattern_pair(c, gammas1, gammas2, rule, conv)
    errors = {str(cell).split(":")[0] for cell in cells.values()
              if isinstance(cell, EmptySupportError)}
    assert errors == {"view 1 support collapsed", "view 2 support collapsed"}
    solved = [cell for cell in cells.values() if not isinstance(cell, EmptySupportError)]
    assert solved and all(cell.first_side == first for cell in solved)
    leads = {cell_gammas[first - 1]: (cell.tau1, cell.tau2)[first - 1].bits.tobytes()
             for cell_gammas, cell in cells.items() if not isinstance(cell, EmptySupportError)}
    assert 1 < len(set(leads.values())) < len(leads)
    if max_iter == 4:
        assert any(cell.warnings for cell in solved)


@pytest.mark.parametrize("kind", ["dense", "operator"])
def test_pattern_grid_records_a_zero_block_as_every_cells_error(kind):
    # the first side's start has no non-zero column to take, which pattern_pair raises
    c = np.zeros((5, 4))
    if kind == "operator":
        zero = ViewMatrix(np.zeros((6, 5)), list("abcde"), centered=True)
        c = CrossOperator.from_views(zero, ViewMatrix(np.zeros((6, 4)), list("vwxy"),
                                                      centered=True))
    cells = _assert_grid_is_pattern_pair(c, [0.0, 0.5], [0.0, 0.1], "l1", None)
    assert len(cells) == 4
    assert all(isinstance(cell, DegenerateInputError)
               and str(cell) == "all columns of the block are zero" for cell in cells.values())


def test_threshold_batch_keeps_pulled_collapses():
    # with a pull the update never vanishes, so a high threshold ends on an
    # empty support instead: the solve's own "empty" text
    from scca.pattern import _solve
    rng = np.random.default_rng(0)
    c = rng.standard_normal((6, 4))
    pull, offset = (2.0, rng.standard_normal(6)), 0.1 * rng.standard_normal(4)
    gammas = list(np.linspace(0.0, 1.2, 13) * np.linalg.norm(c, axis=0).max())
    kw = dict(z0=None, conv=TRACK, restarts=1, seed=4, side="partner", empty="all out",
              offset=offset, pull=pull)
    batch = _solve(c, gammas, "l1", **kw)
    for got, g in zip(batch, gammas):
        _assert_same_solve(got, _solve(c, [g], "l1", **kw)[0])
    texts = {str(r) for r in batch if isinstance(r, EmptySupportError)}
    assert texts == {"all out"}
    assert not isinstance(batch[0], EmptySupportError)


def test_thresholds_by_coordinate_and_column():
    # a threshold per coordinate, per column, equals the solve at it alone
    from scca.pattern import _solve
    c = _planted_block("dense")
    scale = np.linalg.norm(c, axis=0).max() ** 2  # l0 thresholds squared projections
    by_coordinate = [np.where(np.arange(c.shape[1]) < 10, f * scale, 0.6 * f * scale)
                     for f in (0.001, 0.003, 0.01)]
    kw = dict(z0=None, conv=TRACK, restarts=2, seed=1, side="partner", empty="empty")
    batch = _solve(c, by_coordinate, "l0", **kw)
    for got, g in zip(batch, by_coordinate):
        _assert_same_solve(got, _solve(c, [g], "l0", **kw)[0])
    assert len({r.pattern.bits.tobytes() for r in batch}) == len(batch)


def test_hinge_ascent_needs_one_threshold_per_column():
    from scca.pattern import _hinge_ascent
    c = _planted_block("dense")
    z0 = np.linalg.qr(np.random.default_rng(2).standard_normal((c.shape[0], 3)))[0]
    with pytest.raises(DimensionError, match="one threshold per column"):
        _hinge_ascent(c, 0.1, "l1", z0, ConvergenceSpec())
    with pytest.raises(DimensionError, match="one threshold per column"):
        _hinge_ascent(c, [0.1, 0.2], "l1", z0, ConvergenceSpec())
