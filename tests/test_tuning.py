import logging
import os
import re

import numpy as np
import pytest

from scca import (DimensionError, FitConfig, TuneGrid, ViewMatrix, center_scale, cores,
                  cv_tune, fit_pair, gen_null, gen_rank_one, perm_tune, tuning)
from scca.simulate import RankOneSpec

from conftest import no_children, oriented

SMALL_SPEC = RankOneSpec(p=(40, 30), n=24, sigma=(0.15, 0.15), seed=2,
                         supports=((5, 5), (4, 4)))


def _planted_views(spec=SMALL_SPEC):
    x1, x2, truths = gen_rank_one(spec)
    return x1, x2, truths


def _frac_grid(x1, x2, fracs1, fracs2):
    block = center_scale(x1).data.T @ center_scale(x2).data / x1.n
    row = np.linalg.norm(block, axis=1).max()
    col = np.linalg.norm(block, axis=0).max()
    return tuple(f * row for f in fracs1), tuple(f * col for f in fracs2)


def test_single_point_grid_reports_that_point():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.3,), (0.3,))
    grid = TuneGrid(g1s, g2s, folds=3, permutations=5, seed=1)
    report = cv_tune(x1, x2, grid)
    assert report.chosen == (g1s[0], g2s[0])
    assert report.scores.shape == (1, 1)


def test_cv_tune_recovers_planted_scale():
    x1, x2, truths = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.05, 0.45), (0.05, 0.45))
    grid = TuneGrid(g1s, g2s, folds=4, seed=3)
    report = cv_tune(x1, x2, grid)
    assert report.chosen_index[0] in (0, 1) and not np.isnan(report.scores).all()
    # rho_cv equals the exact mean of the per-fold values
    i, j = report.chosen_index
    assert report.scores[i, j] == pytest.approx(report.traces[i, j].mean(), abs=0)


def test_cv_tune_null_data_scores_stay_low():
    x1, x2 = gen_null(50, 20, 20, seed=5)
    g1s = (0.1,)
    g2s = (0.1,)
    report = cv_tune(x1, x2, TuneGrid(g1s, g2s, folds=5, seed=7))
    assert abs(report.scores[0, 0]) < 0.5


def test_perm_tune_strong_signal_yields_zero_p():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.3,), (0.3,))
    grid = TuneGrid(g1s, g2s, permutations=100, seed=11)
    report = perm_tune(x1, x2, grid)
    assert report.scores[0, 0] == 0.0
    assert report.matched_rho[0, 0] > 0.9


def test_perm_tune_null_data_large_p():
    x1, x2 = gen_null(30, 15, 15, seed=13)
    g1s = (0.05, 0.12)
    g2s = (0.05, 0.12)
    report = perm_tune(x1, x2, TuneGrid(g1s, g2s, permutations=100, seed=13))
    assert np.nanmedian(report.scores) >= 0.2


def test_perm_tune_single_permutation_binary():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.3,), (0.3,))
    report = perm_tune(x1, x2, TuneGrid(g1s, g2s, permutations=1, seed=1))
    assert report.scores[0, 0] in (0.0, 1.0)


def test_p_values_live_on_the_permutation_lattice():
    x1, x2 = gen_null(24, 10, 10, seed=3)
    grid = TuneGrid((0.05,), (0.05, 0.1), permutations=20, seed=5)
    report = perm_tune(x1, x2, grid)
    lattice = np.arange(21) / 20
    for value in report.scores.ravel():
        if not np.isnan(value):
            assert value in lattice


def test_reports_reproducible_and_order_independent():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.2, 0.4), (0.2, 0.4))
    grid = TuneGrid(g1s, g2s, permutations=10, seed=21)
    serial = perm_tune(x1, x2, grid, jobs=1)
    again = perm_tune(x1, x2, grid, jobs=1)
    forked = perm_tune(x1, x2, grid, jobs=3)
    np.testing.assert_array_equal(serial.scores, again.scores)
    np.testing.assert_array_equal(serial.traces, again.traces)
    np.testing.assert_array_equal(serial.scores, forked.scores)
    np.testing.assert_array_equal(serial.traces, forked.traces)
    assert serial.chosen == forked.chosen
    grid = TuneGrid(g1s, g2s, folds=4, seed=21)
    serial = cv_tune(x1, x2, grid, jobs=1)
    forked = cv_tune(x1, x2, grid, jobs=3)
    np.testing.assert_array_equal(serial.scores, forked.scores)
    np.testing.assert_array_equal(serial.traces, forked.traces)
    assert serial.flags == forked.flags
    assert serial.chosen == forked.chosen


def test_ties_lean_toward_sparser_models():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.2, 0.3), (0.2, 0.3))
    grid = TuneGrid(g1s, g2s, permutations=40, seed=2)
    report = perm_tune(x1, x2, grid)
    zero_cells = [(g1, g2) for i, g1 in enumerate(g1s) for j, g2 in enumerate(g2s)
                  if report.scores[i, j] == report.scores.min()]
    expected = max(zero_cells, key=lambda c: (c[0] + c[1], c[1], c[0]))
    assert report.chosen == expected


def test_empty_support_cells_are_recorded_not_fatal():
    x1, x2, _ = _planted_views()
    block = center_scale(x1).data.T @ center_scale(x2).data / x1.n
    huge = 3.0 * np.linalg.norm(block, axis=0).max()
    ok1, ok2 = _frac_grid(x1, x2, (0.3,), (0.3,))
    grid = TuneGrid((ok1[0],), (ok2[0], huge), permutations=5, seed=1)
    report = perm_tune(x1, x2, grid)
    assert np.isnan(report.scores[0, 1])
    assert report.failures
    assert report.chosen == (ok1[0], ok2[0])


def test_degenerate_holdout_fold_flagged():
    from scca.tuning import _fold_slices
    rng = np.random.default_rng(0)
    d1 = rng.standard_normal((12, 4))
    d2 = rng.standard_normal((12, 3))
    hold = _fold_slices(12, 2, seed=4)[0]
    d2[hold] = d2[hold[0]]  # the held-out rows of fold 1 are identical
    x1 = ViewMatrix(d1, [f"a{j}" for j in range(4)])
    x2 = ViewMatrix(d2, [f"b{j}" for j in range(3)])
    report = cv_tune(x1, x2, TuneGrid((0.0,), (0.0,), folds=2, seed=4))
    assert any("degenerate" in flag for flag in report.flags)
    assert report.traces[0, 0, 0] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        TuneGrid((), (0.1,))
    with pytest.raises(ValueError):
        TuneGrid((0.1,), (0.1,), folds=1)
    with pytest.raises(ValueError):
        TuneGrid((-0.1,), (0.1,))
    with pytest.raises(ValueError):
        TuneGrid((0.1,), (float("nan"),))
    with pytest.raises(ValueError, match="finite"):
        TuneGrid((0.5, float("inf")), (0.1,))
    with pytest.raises(ValueError):
        TuneGrid((0.1,), (0.1,), permutations=0)


def test_report_serializes():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.3,), (0.3,))
    report = perm_tune(x1, x2, TuneGrid(g1s, g2s, permutations=5, seed=1))
    doc = report.to_dict()
    assert doc["mode"] == "perm"
    assert doc["chosen"]["gamma1"] == pytest.approx(g1s[0])
    assert isinstance(report.to_json(), str)


_BATCH_CASES = [
    ("l1", "1-first", False, "svd"),
    ("l1", "2-first", True, "gep"),
    ("l0", "1-first", True, "svd"),
    ("l0", "2-first", False, "gep"),
    ("l1", "auto", True, "gep"),
    ("l0", "auto", False, "svd"),
]


# the middle of each id names the view that stage one starts from ("auto": the
# views as generated, whose wider view 1 goes first); the "-n" names the
# covariance divisor, which is always n
@pytest.mark.parametrize("penalty,first,scale,stage2", _BATCH_CASES,
                         ids=[f"{p}-{o}-n-{s}-{t}" for p, o, s, t in _BATCH_CASES])
def test_batched_refits_match_the_serial_reference(penalty, first, scale, stage2):
    from conftest import serial_perm_refits

    from scca.pattern import pattern_pair_batch
    from scca.tuning import _permutations, _PermSweep
    x1, x2 = oriented(*_planted_views()[:2], first)
    g1s, g2s = _frac_grid(center_scale(x1, scale=scale), center_scale(x2, scale=scale),
                          (0.15,), (0.15,))
    g1, g2 = (g1s[0] ** 2, g2s[0] ** 2) if penalty == "l0" else (g1s[0], g2s[0])
    cfg = FitConfig(penalty=penalty, stage2=stage2, scale=scale)
    grid = TuneGrid((g1,), (g2,), permutations=40, seed=9)
    report = perm_tune(x1, x2, grid, cfg=cfg)

    perms = _permutations(grid.seed, 0, x1.n, grid.permutations)
    ref = serial_perm_refits(x1, x2, g1, g2, perms, cfg)
    np.testing.assert_allclose(report.traces[0, 0], [r[0] if r else 0.0 for r in ref],
                               rtol=0, atol=1e-10)
    found = pattern_pair_batch(_PermSweep.prepare(x1, x2, cfg).batch(perms), g1, g2,
                               penalty=penalty)
    for k, want in enumerate(ref):
        if want is None:
            assert report.traces[0, 0, k] == 0.0
            continue
        assert found.ok[k]
        assert found.tau1[:, k].tolist() == want[1].tolist()
        assert found.tau2[:, k].tolist() == want[2].tolist()
    failed = sum(r is None for r in ref)
    assert 5 <= failed <= len(ref) - 5
    assert not found.tau1[:, ~found.ok].any() and not found.tau2[:, ~found.ok].any()


def _sweep_and_perms(p1, p2, count=30, first="auto"):
    """Planted views of 24 samples, ``oriented`` to start from ``first``,
    their permutation sweep and ``count`` row permutations."""
    from scca.tuning import _permutations, _PermSweep
    x1, x2, _ = gen_rank_one(RankOneSpec(p=(p1, p2), n=24, sigma=(0.15, 0.15), seed=3,
                                         supports=((3, 2), (3, 2))))
    x1, x2 = oriented(x1, x2, first)
    perms = _permutations(7, 0, x1.n, count)
    return x1, x2, _PermSweep.prepare(x1, x2, FitConfig(scale=True)), perms


# the generated widths; the iterate side, the narrower view once the pair is
# oriented, is wider than n=24, or narrower
SHAPES = [(40, 30), (40, 10), (10, 30)]


@pytest.mark.parametrize("p1,p2", SHAPES)
@pytest.mark.parametrize("transpose", [False, True])
def test_thin_batch_is_an_isometric_image_of_the_full_batch(p1, p2, transpose):
    from dataclasses import replace
    _x1, _x2, sweep, perms = _sweep_and_perms(p1, p2)
    batch = sweep.batch(perms)
    full = replace(batch, root_a=batch.a, root_b=batch.b)  # the data is its own factor
    if transpose:
        batch, full = batch.T, full.T
    thin = batch.thin()
    n, width = perms.shape
    assert thin.a.shape == (n, min(n, full.a.shape[1]))
    np.testing.assert_array_equal(thin.col_norms(), full.col_norms())
    # an iterate in the row space of the iterate-side data, A'y, is F'y in the
    # factor's coordinates (A' = QF'), with the same norm
    y = np.random.default_rng(0).standard_normal((n, width))
    z_full, z_thin = full.a.T @ y, thin.a.T @ y
    scale = np.linalg.norm(z_full, axis=0)
    z_full, z_thin = z_full / scale, z_thin / scale
    np.testing.assert_allclose(np.linalg.norm(z_thin, axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(thin.T @ z_thin, full.T @ z_full, rtol=0, atol=1e-12)
    w = np.random.default_rng(1).standard_normal((full.b.shape[1], width))
    np.testing.assert_allclose(np.linalg.norm(thin @ w, axis=0),
                               np.linalg.norm(full @ w, axis=0), rtol=1e-12, atol=0)
    js = np.arange(width) % full.b.shape[1]
    np.testing.assert_allclose(np.linalg.norm(thin.columns(js), axis=0),
                               np.linalg.norm(full.columns(js), axis=0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("p1,p2", SHAPES)
@pytest.mark.parametrize("first", ["1-first", "2-first"])
@pytest.mark.parametrize("penalty", ["l1", "l0"])
def test_thin_first_side_finds_the_full_batch_supports(p1, p2, first, penalty):
    from dataclasses import replace

    from scca.pattern import pattern_pair_batch
    x1, x2, sweep, perms = _sweep_and_perms(p1, p2, count=60, first=first)
    batch = sweep.batch(perms)
    g1s, g2s = _frac_grid(center_scale(x1, scale=True), center_scale(x2, scale=True),
                          (0.2,), (0.2,))
    g1, g2 = (g1s[0] ** 2, g2s[0] ** 2) if penalty == "l0" else (g1s[0], g2s[0])
    thin = pattern_pair_batch(batch, g1, g2, penalty=penalty)
    # with the data as their own factors, both sides run on the full data
    full = pattern_pair_batch(replace(batch, root_a=batch.a, root_b=batch.b), g1, g2,
                              penalty=penalty)
    assert 0 < thin.ok.sum() < perms.shape[1]
    np.testing.assert_array_equal(thin.ok, full.ok)
    np.testing.assert_array_equal(thin.tau1, full.tau1)
    np.testing.assert_array_equal(thin.tau2, full.tau2)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("penalty", ["l1", "l0"])
def test_batch_ascent_traces_never_decrease(transpose, penalty):
    # every column of a p x B ascent on a PermutedCross tracks its own
    # member's functional, which the update can only increase
    from scca import ConvergenceSpec
    from scca.pattern import _hinge_ascent
    _x1, _x2, sweep, perms = _sweep_and_perms(40, 30)
    batch = sweep.batch(perms)
    batch = batch.T if transpose else batch
    norms = batch.col_norms()
    js = np.argmax(norms, axis=0)
    top = norms[js, np.arange(js.size)]
    gamma = 0.3 * top.min() if penalty == "l1" else (0.3 * top.min()) ** 2
    run = _hinge_ascent(batch, np.full(js.size, gamma), penalty, batch.columns(js) / top,
                        ConvergenceSpec(objective_track=True))
    assert len(run.traces) == perms.shape[1] and (run.iterations > 1).all()
    for trace in run.traces:
        trace = np.asarray(trace)
        assert trace[-1] > 0
        assert (np.diff(trace) >= -1e-12 * np.maximum(1.0, np.abs(trace[:-1]))).all()


def test_batch_column_norms_match_the_dense_members():
    _x1, _x2, sweep, perms = _sweep_and_perms(40, 30)
    batch = sweep.batch(perms).T
    n, width = perms.shape
    members = [batch.a[batch.idx[:, k]].T @ batch.b / batch.div for k in range(width)]
    want = np.column_stack([np.linalg.norm(m, axis=0) for m in members])
    np.testing.assert_allclose(batch.col_norms(), want, rtol=1e-12, atol=0)
    # row masks on fewer and on more kept rows than samples, and a column mask
    rng = np.random.default_rng(2)
    rmask = rng.random((batch.shape[0], width)) < np.where(np.arange(width) % 2, 0.2, 0.9)
    cmask = rng.random((batch.shape[1], width)) < 0.5
    masked = batch.cols(cmask).T.cols(rmask).T
    assert (rmask.sum(axis=0) < n).any() and (rmask.sum(axis=0) >= n).any()
    want = np.column_stack([np.linalg.norm(m * rmask[:, [k]], axis=0) * cmask[:, k]
                            for k, m in enumerate(members)])
    np.testing.assert_allclose(masked.col_norms(), want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("penalty,first,scale,stage2", [
    ("l1", "1-first", False, "svd"),
    ("l0", "2-first", True, "gep"),
    ("l1", "auto", True, "svd"),
])
def test_refit_failures_count_the_failed_refits(penalty, first, scale, stage2):
    from conftest import serial_perm_refits

    from scca.tuning import _permutations
    x1, x2 = oriented(*_planted_views()[:2], first)
    g1s, g2s = _frac_grid(center_scale(x1, scale=scale), center_scale(x2, scale=scale),
                          (0.1, 0.2, 5.0), (0.15,))
    if penalty == "l0":
        g1s, g2s = tuple(g ** 2 for g in g1s), tuple(g ** 2 for g in g2s)
    cfg = FitConfig(penalty=penalty, stage2=stage2, scale=scale)
    grid = TuneGrid(g1s, g2s, permutations=20, seed=5)
    report = perm_tune(x1, x2, grid, cfg=cfg)
    counts = []
    for cell, g1 in enumerate(g1s[:2]):
        perms = _permutations(grid.seed, cell, x1.n, grid.permutations)
        ref = serial_perm_refits(x1, x2, g1, g2s[0], perms, cfg)
        counts.append(sum(r is None for r in ref))
    assert report.refit_failures[:2, 0].tolist() == counts
    assert 0 < sum(counts) < 2 * grid.permutations
    # the matched fit of the last cell fails, so none of its refits ran
    assert len(report.failures) == 1 and np.isnan(report.refit_failures[2, 0])
    assert report.to_dict()["refit_failures"] == [[counts[0]], [counts[1]], [None]]
    assert "refit_failures" not in cv_tune(x1, x2, TuneGrid(g1s[:1], g2s, folds=3),
                                           cfg=cfg).to_dict()


def test_fit_config_takes_no_restarts():
    # tuning fits run stage one from one deterministic start
    with pytest.raises(TypeError):
        FitConfig(restarts=2)


@pytest.mark.parametrize("mode", ["perm", "cv"])
def test_tuners_fit_with_the_penalty_of_their_config(mode):
    # the penalty comes from FitConfig alone: an l0 config gives the l0 sweep
    tune = perm_tune if mode == "perm" else cv_tune
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.15, 0.3), (0.15, 0.3))
    grid = TuneGrid(tuple(g ** 2 for g in g1s), tuple(g ** 2 for g in g2s), folds=3,
                    permutations=10, seed=3)
    l0 = tuning.grid_orchestrate(mode, x1, x2, grid, cfg=FitConfig(penalty="l0"), jobs=1)
    assert tune(x1, x2, grid, cfg=FitConfig(penalty="l0"), jobs=1).to_json() == l0.to_json()
    assert tune(x1, x2, grid, jobs=1).to_json() != l0.to_json()
    with pytest.raises(TypeError):
        tune(x1, x2, grid, penalty="l0")


def _assert_cv_matches_the_reference(x1, x2, grid, cfg, report) -> int:
    """Every cell's scores, traces and flags, and the chosen cell, equal those
    of the per-cell ``fit_pair`` reference; returns the number of flags."""
    from conftest import serial_cv_cell

    from scca.tuning import _fold_slices
    folds = _fold_slices(x1.n, grid.folds, grid.seed)
    flags, best = [], None
    for _idx, i, j, g1, g2 in grid.cells():
        rhos, cell_flags = serial_cv_cell(x1, x2, g1, g2, folds, cfg)
        np.testing.assert_array_equal(report.traces[i, j], rhos)
        assert report.scores[i, j] == float(rhos.mean())
        flags += [f"(gamma1={g1:g}, gamma2={g2:g}): {flag}" for flag in cell_flags]
        key = (-float(rhos.mean()), -(g1 + g2), -g2, -g1)
        if best is None or key < best[0]:
            best = (key, (i, j), (g1, g2))
    assert report.flags == flags
    assert report.failures == []
    assert (report.chosen_index, report.chosen) == best[1:]
    return len(flags)


@pytest.mark.parametrize("stage2", ["svd", "gep"])
@pytest.mark.parametrize("scale", [False, True])
# the view that stage one starts from, as in the batched refits' ids
@pytest.mark.parametrize("first", ["auto", "1-first", "2-first"], ids=lambda o: f"{o}-n")
@pytest.mark.parametrize("penalty", ["l1", "l0"])
def test_cv_tune_matches_the_per_cell_reference(penalty, first, scale, stage2):
    x1, x2 = oriented(*_planted_views()[:2], first)
    g1s, g2s = _frac_grid(center_scale(x1, scale=scale), center_scale(x2, scale=scale),
                          (0.1, 0.8), (0.2, 0.5, 0.8))
    if penalty == "l0":
        g1s, g2s = tuple(g ** 2 for g in g1s), tuple(g ** 2 for g in g2s)
    cfg = FitConfig(penalty=penalty, stage2=stage2, scale=scale)
    grid = TuneGrid(g1s, g2s, folds=3, seed=6)
    report = cv_tune(x1, x2, grid, cfg=cfg)
    _assert_cv_matches_the_reference(x1, x2, grid, cfg, report)


def test_cv_tune_on_null_data_matches_the_per_cell_reference():
    # null data, on two processes: no planted support for the folds to agree on
    x1, x2 = gen_null(24, 40, 30, seed=2)
    g1s, g2s = _frac_grid(x1, x2, (0.15, 0.4), (0.15, 0.4))
    cfg = FitConfig()
    grid = TuneGrid(g1s, g2s, folds=3, seed=2)
    report = cv_tune(x1, x2, grid, cfg=cfg, jobs=2)
    _assert_cv_matches_the_reference(x1, x2, grid, cfg, report)


def test_cv_tune_with_failing_cells_matches_the_per_cell_reference():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.3, 0.9, 3.0), (0.3, 1.0))
    cfg = FitConfig()
    grid = TuneGrid(g1s, g2s, folds=5, seed=8)
    report = cv_tune(x1, x2, grid, cfg=cfg)
    flagged = _assert_cv_matches_the_reference(x1, x2, grid, cfg, report)
    # the gamma1=3 row fails in every fold, at the first side it shares
    assert flagged >= 2 * grid.folds
    assert all("fit failed (no factor could be fitted: factor 1: view" in flag
               for flag in report.flags if "gamma1=" + format(g1s[2], "g") in flag)


def test_degenerate_holdout_fold_matches_the_per_cell_reference():
    from scca.tuning import _fold_slices
    rng = np.random.default_rng(0)
    d1 = rng.standard_normal((12, 4))
    d2 = rng.standard_normal((12, 3))
    hold = _fold_slices(12, 2, seed=4)[0]
    d2[hold] = d2[hold[0]]
    x1 = ViewMatrix(d1, [f"a{j}" for j in range(4)])
    x2 = ViewMatrix(d2, [f"b{j}" for j in range(3)])
    cfg = FitConfig()
    grid = TuneGrid((0.0, 0.1), (0.0,), folds=2, seed=4)
    report = cv_tune(x1, x2, grid, cfg=cfg)
    assert _assert_cv_matches_the_reference(x1, x2, grid, cfg, report) >= 1


def test_cv_fold_solves_each_distinct_subproblem_once(monkeypatch):
    from scca import pattern, pattern_l1, tuning
    from scca.covariance import CrossOperator, standardize
    from scca.errors import EmptySupportError
    from scca.pattern import first_block, pattern_pair
    x1, x2, _ = _planted_views()
    assert x1.p > x2.p  # view 1 goes first
    g1s, g2s = _frac_grid(x1, x2, (0.2, 0.25, 0.3, 0.35, 0.4), (0.2, 0.3, 0.4))
    cfg = FitConfig()
    grid = TuneGrid(g1s, g2s, folds=3, seed=5)
    real_init, real_ascent = pattern.init_direction, pattern._hinge_ascent
    real_stage_two, real_fold = tuning.stage_two, tuning._cv_fold
    calls, per_fold = {}, []

    def init_direction(block):
        # the first side starts on the full p2 x p1 block, the second side on
        # a block shrunk to view 1's support
        calls["first starts" if block.shape == (x2.p, x1.p) else "second starts"] += 1
        return real_init(block)

    def stage_two(*args):
        calls["stage two"] += 1
        return real_stage_two(*args)

    def hinge_ascent(*args, **kwargs):
        calls["ascents"] += 1
        return real_ascent(*args, **kwargs)

    def cv_fold(x1, x2, hold, *args):
        calls.update({"first starts": 0, "second starts": 0, "stage two": 0, "ascents": 0})
        out = real_fold(x1, x2, hold, *args)
        per_fold.append((hold, dict(calls)))
        return out

    monkeypatch.setattr(pattern, "init_direction", init_direction)
    monkeypatch.setattr(tuning, "stage_two", stage_two)
    monkeypatch.setattr(tuning, "_cv_fold", cv_fold)
    monkeypatch.setattr(pattern, "_hinge_ascent", hinge_ascent)
    # in this process, where the counters are
    report = cv_tune(x1, x2, grid, cfg=cfg, jobs=1)
    monkeypatch.undo()
    _assert_cv_matches_the_reference(x1, x2, grid, cfg, report)

    assert len(per_fold) == grid.folds
    shared_first = shared_pair = False
    for hold, seen in per_fold:
        train = np.setdiff1d(np.arange(x1.n), hold)
        op = CrossOperator.from_views(
            *(ViewMatrix(standardize(x.data[train])[0], x.names, centered=True)
              for x in (x1, x2)))
        firsts, pairs = set(), set()
        for _idx, _i, _j, g1, g2 in grid.cells():
            try:
                firsts.add(pattern_l1(first_block(op, 1), g1).pattern.bits.tobytes())
                pair = pattern_pair(op, g1, g2)
            except EmptySupportError:
                continue
            pairs.add((pair.tau1.bits.tobytes(), pair.tau2.bits.tobytes()))
        # one ascent solves the first side at every gamma, and one per distinct
        # first-side support the second side at every gamma
        assert seen == {"first starts": 1, "second starts": len(firsts),
                        "stage two": len(pairs), "ascents": 1 + len(firsts)}
        shared_first |= len(firsts) < len(g1s)
        shared_pair |= len(pairs) < len(grid.cells())
    # the grid is one where first-side gammas share supports and cells share pairs
    assert shared_first and shared_pair


needs_fork = pytest.mark.skipif(len(cores.usable_cpus()) < 2,
                                reason="forked sweeps need os.fork and two usable CPUs")


def _sweep(method, x1, x2, grid, cfg=None, jobs=None):
    tune = perm_tune if method == "perm" else cv_tune
    return tune(x1, x2, grid, cfg=cfg, jobs=jobs)


def _sweep_grid(x1, x2, penalty):
    if penalty == "l0":
        return TuneGrid((1.0, 4.0, 16.0), (1.0, 4.0), folds=4, permutations=20, seed=9)
    g1s, g2s = _frac_grid(x1, x2, (0.1, 0.2, 0.3), (0.1, 0.3))
    return TuneGrid(g1s, g2s, folds=4, permutations=20, seed=9)


def _forks(monkeypatch) -> list:
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return calls


@needs_fork
@pytest.mark.parametrize("method,stage2,penalty", [
    ("perm", "svd", "l1"), ("perm", "svd", "l0"), ("perm", "gep", "l1"), ("perm", "gep", "l0"),
    ("cv", "svd", "l1"), ("cv", "svd", "l0")])
def test_forked_and_in_process_sweeps_write_the_same_report(monkeypatch, method, stage2,
                                                            penalty):
    x1, x2, _ = _planted_views()
    grid, cfg = _sweep_grid(x1, x2, penalty), FitConfig(penalty=penalty, stage2=stage2)
    forks = _forks(monkeypatch)
    forked = _sweep(method, x1, x2, grid, cfg)
    assert forks
    forks.clear()
    here = _sweep(method, x1, x2, grid, cfg, jobs=1)
    assert not forks
    assert forked.to_json() == here.to_json()


@needs_fork
@pytest.mark.parametrize("fails", [False, True])
def test_a_sweep_restores_the_cpu_mask_and_every_blas_thread_count(monkeypatch, fails):
    import scipy.linalg  # noqa: F401  (its OpenBLAS is restored too)
    x1, x2, _ = _planted_views()
    grid = _sweep_grid(x1, x2, "l1")
    controls = cores._openblas_controls()
    before = [get() for get, _put in controls]
    mask = os.sched_getaffinity(0)
    real_cell, inside = tuning._perm_cell, []

    def perm_cell(*args):
        inside.append([get() for get, _put in controls])
        if fails:
            raise RuntimeError("cell failed")
        return real_cell(*args)
    monkeypatch.setattr(tuning, "_perm_cell", perm_cell)
    if fails:
        with pytest.raises(RuntimeError, match="cell failed"):
            perm_tune(x1, x2, grid, cfg=FitConfig(stage2="gep"))
    else:
        perm_tune(x1, x2, grid, cfg=FitConfig(stage2="gep"))
    assert inside and all(counts == [1] * len(controls) for counts in inside)
    assert [get() for get, _put in controls] == before
    assert os.sched_getaffinity(0) == mask
    assert no_children()


@needs_fork
def test_a_share_whose_child_fails_is_run_again_here(monkeypatch):
    x1, x2, _ = _planted_views()
    grid = _sweep_grid(x1, x2, "l1")
    want = perm_tune(x1, x2, grid, jobs=1).to_json()
    here, real_cell = os.getpid(), tuning._perm_cell

    def perm_cell(*args):
        if os.getpid() != here:
            os._exit(3)
        return real_cell(*args)
    monkeypatch.setattr(tuning, "_perm_cell", perm_cell)
    assert perm_tune(x1, x2, grid).to_json() == want
    assert no_children()


@needs_fork
@pytest.mark.parametrize("method", ["perm", "cv"])
def test_an_error_in_a_child_share_is_raised_as_the_serial_sweep_raises_it(monkeypatch,
                                                                           method):
    x1, x2, _ = _planted_views()
    grid = _sweep_grid(x1, x2, "l1")
    name = "_perm_cell" if method == "perm" else "_cv_fold"
    real, second = getattr(tuning, name), tuning._fold_slices(x1.n, grid.folds, grid.seed)[1]
    seen = []

    def failing(*args):
        # the second cell or fold fails wherever it runs
        item = args[-1] if method == "perm" else int(np.array_equal(args[2], second))
        seen.append(item)
        if item == 1:
            raise DimensionError(f"{method} item failed")
        return real(*args)
    monkeypatch.setattr(tuning, name, failing)
    outcomes = []
    for jobs in (1, None):
        seen.clear()
        with pytest.raises(DimensionError) as err:
            _sweep(method, x1, x2, grid, jobs=jobs)
        outcomes.append((str(err.value), seen[-1]))
    # the forked sweep met the error here: in the item this process took, or when it
    # ran again the items of the child that failed
    assert outcomes == [(f"{method} item failed", 1)] * 2
    assert no_children()


@needs_fork
@pytest.mark.parametrize("method", ["perm", "cv"])
def test_without_blas_control_the_sweep_runs_here_with_the_same_report(monkeypatch,
                                                                       caplog, method):
    x1, x2, _ = _planted_views()
    grid = _sweep_grid(x1, x2, "l1")
    want = _sweep(method, x1, x2, grid, jobs=1).to_json()
    monkeypatch.setattr(cores, "_openblas_controls", lambda: [])
    forks = _forks(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="scca"):
        got = _sweep(method, x1, x2, grid).to_json()
    assert not forks
    assert got == want
    assert [r.getMessage().split(": ")[1] for r in caplog.records] == [
        "1 process (no BLAS control)"]


@needs_fork
def test_refits_past_a_pipe_buffer_come_back_intact():
    # a 1 x 1 grid runs here; the second cell's 10,000 traces (80 kB) come
    # back from a child through its pipe
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.2,), (0.2, 0.3))
    grid = TuneGrid(g1s, g2s, permutations=10_000, seed=4)
    forked, here = perm_tune(x1, x2, grid), perm_tune(x1, x2, grid, jobs=1)
    assert forked.traces.shape == (1, 2, 10_000)
    assert forked.to_json() == here.to_json()


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_refused(jobs):
    x1, x2, _ = _planted_views()
    grid = _sweep_grid(x1, x2, "l1")
    for method in ("perm", "cv"):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            _sweep(method, x1, x2, grid, jobs=jobs)


@pytest.mark.parametrize("cpus,jobs,message", [
    ([0, 1], None, "6 perm cells: 2 processes"),
    ([0, 1], 1, "6 perm cells: 1 process (jobs=1)"),
    ([0], None, "6 perm cells: 1 process (one CPU)"),
    ([], 4, "6 perm cells: 1 process (no fork)")])
def test_each_sweep_logs_its_process_count_and_why_it_runs_here(monkeypatch, caplog, cpus,
                                                                jobs, message):
    if len(cpus) > len(cores.usable_cpus()):
        pytest.skip("needs two usable CPUs")
    x1, x2, _ = _planted_views()
    grid = _sweep_grid(x1, x2, "l1")
    monkeypatch.setattr(cores, "usable_cpus", lambda: list(cpus))
    with caplog.at_level(logging.DEBUG, logger="scca"):
        perm_tune(x1, x2, grid, jobs=jobs)
    (record,) = caplog.records
    text = record.getMessage()
    assert text.startswith(f"tuning sweep of {message}"), text
    rest = text[len(f"tuning sweep of {message}"):]
    if message.endswith("processes"):
        # a forked sweep says how many cells each process returned: all of them
        counts = re.fullmatch(r" \(items per process: (\d+), (\d+)\)", rest)
        assert counts and sum(map(int, counts.groups())) == 6, text
    else:
        assert rest == ""


def test_the_scca_logger_is_silent_by_default(capsys):
    x1, x2, _ = _planted_views()
    perm_tune(x1, x2, _sweep_grid(x1, x2, "l1"))
    assert capsys.readouterr() == ("", "")


def test_gep_cells_whose_supports_reach_n_are_flagged_and_svd_cells_are_not():
    x1, x2, _ = _planted_views()
    g1s, g2s = _frac_grid(x1, x2, (0.05, 0.6), (0.05, 0.6))
    grid = TuneGrid(g1s, g2s, permutations=10, seed=3)
    gep = perm_tune(x1, x2, grid, cfg=FitConfig(stage2="gep"))
    svd = perm_tune(x1, x2, grid)
    want, sizes = [], []
    for _idx, _i, _j, g1, g2 in grid.cells():
        sol = fit_pair(center_scale(x1), center_scale(x2), g1, g2, factors=1, stage2="gep")
        sizes.append(sum(view[0].active_count for view in sol.patterns))
        if sizes[-1] >= x1.n:
            want.append(f"(gamma1={g1:g}, gamma2={g2:g}): GEP stage two on |S1|+|S2| = "
                        f"{sizes[-1]} >= n = {x1.n} coordinates: the matched rho is 1 by "
                        "construction, so the p-value ranks rounding noise")
    # the grid has cells on both sides of n = 24 coordinates
    assert min(sizes) < x1.n <= max(sizes)
    assert gep.flags == want
    assert svd.flags == []
    # the flag leaves the scores as they were
    np.testing.assert_array_equal(gep.scores, (gep.traces > gep.matched_rho[..., None]).mean(-1))
