"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Stage-one solves executed here run with objective tracking wherever
the trace is recoverable; criterion 10 checks every collected trace.
"""

import json
import time

import numpy as np
from conftest import orthonormal_columns

from scca import (AccessoryVector, ConvergenceSpec, DirectedParams, FitConfig,
                  GammaMatrix, TuneGrid, ViewMatrix, center_scale, compute_beta,
                  directed_fit, directed_pattern_dot, directed_pattern_reg,
                  evaluate, fit_pair, gen_null, gen_rank_one,
                  gen_rank_one_threeview, multiview_scca, pattern_l0, pattern_l1,
                  perm_tune, power_svd, reconstruct_l0, reconstruct_l1, scca_pair,
                  sweep)
from scca.cli import _solution_dict
from scca.errors import DegenerateInputError, EmptySupportError
from scca.multiview import MultiViewProblem
from scca.pattern import objective_l0, objective_l1
from scca.simulate import NoiseSweepSpec, RankOneSpec

TRACK = ConvergenceSpec(objective_track=True)
COLLECTED_TRACES: list[tuple[str, np.ndarray]] = []


def _collect(label: str, trace):
    if trace is not None:
        COLLECTED_TRACES.append((label, np.asarray(trace, dtype=float)))


def _collect_solution(label: str, solution):
    for k, info in enumerate(solution.iterations):
        traces = info.get("traces", {})
        if isinstance(traces, dict):
            for side, trace in traces.items():
                _collect(f"{label}/factor{k}/{side}", trace)


def _report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def _stage_one_instances(count=50, seed=11):
    """Random small instances shared by the brute-force criteria."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        p1, p2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x1 = rng.standard_normal((10, p1))
        x2 = rng.standard_normal((10, p2))
        x1 -= x1.mean(axis=0)
        x2 -= x2.mean(axis=0)
        instances.append(x1.T @ x2 / 10)
    return instances


def _unit_grid(rng, count, dim):
    d = rng.standard_normal((count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_criterion_01_l1_brute_force_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for idx, block in enumerate(_stage_one_instances()):
        col_max = np.linalg.norm(block, axis=0).max()
        for gamma2 in np.linspace(0.0, 0.9, 5) * col_max:
            grid = _unit_grid(rng, 10 ** 4, block.shape[0])
            grid_max = (np.maximum(np.abs(grid @ block) - gamma2, 0.0) ** 2
                        ).sum(axis=1).max()
            if grid_max <= 0:
                continue
            res = pattern_l1(block, gamma2, conv=TRACK, restarts=8, seed=idx)
            _collect(f"c1/{idx}", res.objective_trace)
            value = objective_l1(block, res.z_lead.values, gamma2)
            worst = max(worst, 1.0 - value / grid_max)
            checked += 1
            assert value >= (1 - 1e-6) * grid_max
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 60
    _report(1, ok, f"L1 fixed points beat the 1e4-direction grid on {checked} cells "
                   f"(worst shortfall {worst:.2e}, {elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_02_l0_brute_force_equivalence():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    checked = 0
    for idx, block in enumerate(_stage_one_instances()):
        col_max2 = (block * block).sum(axis=0).max()
        for gamma2 in np.linspace(0.0, 0.9, 5) * col_max2:
            grid = _unit_grid(rng, 10 ** 4, block.shape[0])
            grid_max = np.maximum((grid @ block) ** 2 - gamma2, 0.0).sum(axis=1).max()
            if grid_max <= 0:
                continue
            res = pattern_l0(block, gamma2, conv=TRACK, restarts=32, seed=idx)
            _collect(f"c2/{idx}", res.objective_trace)
            value = objective_l0(block, res.z_lead.values, gamma2)
            worst = max(worst, 1.0 - value / grid_max)
            checked += 1
            assert value >= (1 - 1e-6) * grid_max
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 60
    _report(2, ok, f"L0 fixed points beat the 1e4-direction grid on {checked} cells "
                   f"(worst shortfall {worst:.2e}, {elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_03_closed_form_consistency():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        p1, p2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        block = rng.standard_normal((p1, p2))
        z = rng.standard_normal(p1)
        z /= np.linalg.norm(z)
        proj = block.T @ z
        gamma = float(rng.uniform(0, np.abs(proj).max() * 1.1))
        # independent literal evaluation, coordinate by coordinate
        w = [max(abs(p) - gamma, 0.0) for p in proj]
        den = np.sqrt(sum(v * v for v in w))
        oracle1 = np.array([np.sign(p) * v / den if den > 0 else 0.0
                            for p, v in zip(proj, w)])
        got1 = reconstruct_l1(block, z, gamma).values
        worst = max(worst, float(np.abs(got1 - oracle1).max()))
        g0 = float(rng.uniform(0, (proj ** 2).max() * 1.1))
        ind = [1.0 if p * p > g0 else 0.0 for p in proj]
        den0 = np.sqrt(sum(s * p * p for s, p in zip(ind, proj)))
        oracle0 = np.array([s * p / den0 if den0 > 0 else 0.0
                            for s, p in zip(ind, proj)])
        got0 = reconstruct_l0(block, z, g0).values
        worst = max(worst, float(np.abs(got0 - oracle0).max()))
        # boundary semantics: equality is inactive for both rules
        j = int(rng.integers(p2))
        assert reconstruct_l1(block, z, abs(proj[j])).values[j] == 0.0
        assert reconstruct_l0(block, z, proj[j] ** 2).values[j] == 0.0
    ok = worst < 1e-12
    _report(3, ok, f"closed forms match the literal evaluation within {worst:.2e} "
                   "and boundaries are inactive")
    assert ok


def _planted_grid(x1, x2):
    block = center_scale(x1).data.T @ center_scale(x2).data / x1.n
    row = np.linalg.norm(block, axis=1).max()
    col = np.linalg.norm(block, axis=0).max()
    return TuneGrid(tuple(f * row for f in (0.30, 0.37, 0.44)),
                    tuple(f * col for f in (0.26, 0.32, 0.38)),
                    permutations=40, seed=0)


def test_criterion_04_rank_one_recovery_with_tuning():
    start = time.time()
    metrics = {"eta1": [], "eta2": [], "fp1": [], "fp2": [], "cos1": [], "cos2": []}
    for seed in range(20):
        x1, x2, truths = gen_rank_one(RankOneSpec(seed=seed))
        grid = _planted_grid(x1, x2)
        grid = TuneGrid(grid.gamma1_values, grid.gamma2_values,
                        permutations=40, seed=seed)
        report = perm_tune(x1, x2, grid, cfg=FitConfig(scale=False))
        g1, g2 = report.chosen
        sol = fit_pair(center_scale(x1), center_scale(x2), g1, g2, conv=TRACK)
        _collect_solution(f"c4/seed{seed}", sol)
        m = evaluate(sol, truths)
        metrics["eta1"].append(m.support_recovery[0])
        metrics["eta2"].append(m.support_recovery[1])
        metrics["fp1"].append(m.false_actives[0])
        metrics["fp2"].append(m.false_actives[1])
        metrics["cos1"].append(m.cos_theta[0])
        metrics["cos2"].append(m.cos_theta[1])
    med = {k: float(np.median(v)) for k, v in metrics.items()}
    elapsed = time.time() - start
    ok = (med["eta1"] >= 0.95 and med["eta2"] >= 0.95 and med["fp1"] <= 5
          and med["fp2"] <= 5 and med["cos1"] >= 0.95 and med["cos2"] >= 0.95
          and elapsed < 300)
    _report(4, ok, f"perm-tuned recovery on 20 seeds: median eta=({med['eta1']:.3f},"
                   f"{med['eta2']:.3f}), false actives=({med['fp1']:.0f},{med['fp2']:.0f}), "
                   f"cos=({med['cos1']:.3f},{med['cos2']:.3f}), {elapsed:.0f}s")
    assert med["eta1"] >= 0.95 and med["eta2"] >= 0.95
    assert med["fp1"] <= 5 and med["fp2"] <= 5
    assert med["cos1"] >= 0.95 and med["cos2"] >= 0.95
    assert elapsed < 300


def test_criterion_05_noise_sweep_monotone():
    table = sweep(NoiseSweepSpec(seed=7), conv=ConvergenceSpec())
    sigmas = (0.0, 0.1, 0.2, 0.3, 0.5)
    means, ses = {}, {}
    for sigma in sigmas:
        rows = [r for r in table.rows if r[0] == "replicate" and r[1] == sigma]
        cos_both = np.array([[r[3], r[4]] for r in rows], dtype=float)
        means[sigma] = cos_both.mean(axis=0)
        ses[sigma] = cos_both.std(axis=0, ddof=1) / np.sqrt(len(rows))
    ok = bool(np.all(means[0.0] >= 1 - 1e-6))
    for a, b in zip(sigmas, sigmas[1:]):
        pooled = np.sqrt(ses[a] ** 2 + ses[b] ** 2)
        ok = ok and bool(np.all(means[b] <= means[a] + pooled))
    detail = ", ".join(f"s={s:g}: ({means[s][0]:.4f},{means[s][1]:.4f})"
                       for s in sigmas)
    _report(5, ok, f"mean cosine vs noise {detail}")
    assert np.all(means[0.0] >= 1 - 1e-6)
    for a, b in zip(sigmas, sigmas[1:]):
        pooled = np.sqrt(ses[a] ** 2 + ses[b] ** 2)
        assert np.all(means[b] <= means[a] + pooled)


def test_criterion_06_zero_penalty_matches_dense_solution():
    x1, x2 = gen_null(50, 60, 60, seed=606)
    x1c, x2c = center_scale(x1), center_scale(x2)
    sol = fit_pair(x1c, x2c, 0.0, 0.0, conv=TRACK)
    _collect_solution("c6", sol)
    block = x1c.data.T @ x2c.data / 50
    u, v, _sigma = power_svd(block, ConvergenceSpec(tol=1e-12))
    corr_u = abs(np.corrcoef(sol.directions[0][:, 0], u.values)[0, 1])
    corr_v = abs(np.corrcoef(sol.directions[1][:, 0], v.values)[0, 1])
    rho_dense = abs(np.corrcoef(x1c.data @ u.values, x2c.data @ v.values)[0, 1])
    rho_diff = abs(sol.correlations[0] - rho_dense)
    ok = corr_u >= 1 - 1e-6 and corr_v >= 1 - 1e-6 and rho_diff < 1e-8
    _report(6, ok, f"zero-penalty vs dense: |corr|=({corr_u:.8f},{corr_v:.8f}), "
                   f"|rho diff|={rho_diff:.2e}")
    assert corr_u >= 1 - 1e-6 and corr_v >= 1 - 1e-6
    assert rho_diff < 1e-8


def _three_view_candidates(problem, fracs=(0.32, 0.42)):
    scales = []
    for s in range(3):
        norms = np.zeros(problem.dim(s))
        for r in range(3):
            if r != s:
                norms += np.linalg.norm(problem.tilde(r, s), axis=0)
        scales.append(float(norms.max()))
    candidates = []
    for f1 in fracs:
        for f2 in fracs:
            for f3 in fracs:
                g = np.zeros((3, 3))
                for s, f in enumerate((f1, f2, f3)):
                    for r in range(3):
                        if r != s:
                            g[s, r] = f * scales[s] / 2
                candidates.append(GammaMatrix(g))
    return candidates


def test_criterion_07_three_view_recovery():
    etas = {0: [], 1: [], 2: []}
    for seed in range(10):
        views, truths = gen_rank_one_threeview(
            RankOneSpec(p=(500, 400, 600), sigma=(0.2, 0.2, 0.1), seed=seed))
        centered = [center_scale(v) for v in views]
        problem = MultiViewProblem.from_views(centered)
        rng = np.random.default_rng(seed)
        best = None
        for gam in _three_view_candidates(problem):
            try:
                sol = multiview_scca(centered, gam, conv=TRACK)
            except (EmptySupportError, DegenerateInputError):
                continue
            rho = float(sol.correlations[0])
            beats = 0
            for _ in range(12):
                perm = rng.permutation(centered[0].n)
                permuted = [ViewMatrix(centered[0].data[perm], centered[0].names,
                                       centered=True)] + centered[1:]
                try:
                    rho_p = float(multiview_scca(permuted, gam).correlations[0])
                except (EmptySupportError, DegenerateInputError):
                    rho_p = 0.0
                beats += rho_p > rho
            key = (beats / 12, -float(gam.values.sum()))
            if best is None or key < best[0]:
                best = (key, gam, sol)
        sol = best[2]
        _collect_solution(f"c7/seed{seed}", sol)
        for i in range(3):
            support = truths[i] != 0
            etas[i].append((sol.patterns[i][0].bits & support).sum() / support.sum())
    med = [float(np.median(etas[i])) for i in range(3)]

    # m=2 specialization: patterns bit-for-bit against the pair path
    x1, x2, _truths = gen_rank_one(RankOneSpec(p=(80, 100), n=30,
                                               sigma=(0.15, 0.15), seed=77,
                                               supports=((8, 8), (8, 8))))
    x1c, x2c = center_scale(x1), center_scale(x2)
    block = x1c.data.T @ x2c.data / 30
    g1 = 0.35 * np.linalg.norm(block, axis=1).max()
    g2 = 0.35 * np.linalg.norm(block, axis=0).max()
    tau1, tau2 = scca_pair(x1c, x2c, g1, g2, order="2-first")
    pair_sol = multiview_scca([x1c, x2c], GammaMatrix.for_pair(g1, g2))
    bitwise = (pair_sol.patterns[0][0].bits.tolist() == tau1.bits.tolist()
               and pair_sol.patterns[1][0].bits.tolist() == tau2.bits.tolist())

    ok = all(m >= 0.9 for m in med) and bitwise
    _report(7, ok, f"three-view medians eta={tuple(round(m, 3) for m in med)}, "
                   f"m=2 specialization bit-for-bit={bitwise}")
    assert all(m >= 0.9 for m in med)
    assert bitwise


def test_criterion_08_directed_equivalences():
    rng = np.random.default_rng(808)
    n, p1, p2 = 30, 8, 6
    x1 = ViewMatrix(orthonormal_columns(n, p1, rng), [f"A{j}" for j in range(p1)],
                    centered=True)
    x2 = ViewMatrix(orthonormal_columns(n, p2, rng), [f"B{j}" for j in range(p2)],
                    centered=True)
    y = AccessoryVector(rng.standard_normal(n)).center()
    block = x1.data.T @ x2.data / n
    raw1, raw2 = x1.data.T @ y.values, x2.data.T @ y.values
    beta1, beta2 = compute_beta(x1, y), compute_beta(x2, y)
    gamma2 = 0.3 * (np.linalg.norm(block, axis=0) + np.abs(raw2)).max()
    params = DirectedParams(0.0, gamma2, eps1=1.0, eps2=1.0)
    dot = directed_pattern_dot(block, raw1, raw2, params, conv=TRACK)
    reg = directed_pattern_reg(block, beta1, beta2, params, conv=TRACK)
    _collect("c8/dot", dot.objective_trace)
    _collect("c8/reg", reg.objective_trace)
    patterns_equal = dot.pattern.bits.tolist() == reg.pattern.bits.tolist()
    dir_close = (np.abs(dot.z_lead.values - reg.z_lead.values).max() < 1e-10
                 and np.abs(dot.z_partner.values - reg.z_partner.values).max() < 1e-10)

    # multiview with y as a third view matches the dot variant at eps = 1
    spec = RankOneSpec(p=(60, 50), n=30, sigma=(0.2, 0.2), seed=88,
                       supports=((6, 6), (6, 6)))
    m1, m2, truths = gen_rank_one(spec)
    m1c, m2c = center_scale(m1), center_scale(m2)
    ym = AccessoryVector(m1c.data @ truths[0]
                         + 0.1 * rng.standard_normal(30)).center()
    mb = m1c.data.T @ m2c.data / 30
    g1 = 0.35 * np.linalg.norm(mb, axis=1).max()
    g2 = 0.35 * np.linalg.norm(mb, axis=0).max()
    dparams = DirectedParams(g1, g2, eps1=1.0, eps2=1.0)
    dsol = directed_fit(m1c, m2c, ym, dparams, mode="dot",
                        conv=ConvergenceSpec(tol=1e-12, objective_track=True))
    _collect_solution("c8/directed_fit", dsol)
    yview = ViewMatrix(ym.values[:, None], ["y"], centered=True)
    gam = GammaMatrix(np.array([[0.0, g1, 0.0], [g2, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    msol = multiview_scca([m1c, m2c, yview], gam, conv=ConvergenceSpec(tol=1e-12))
    mv_match = (msol.patterns[0][0].bits.tolist() == dsol.patterns[0][0].bits.tolist()
                and msol.patterns[1][0].bits.tolist() == dsol.patterns[1][0].bits.tolist())

    ok = patterns_equal and dir_close and mv_match
    _report(8, ok, f"dot==reg patterns {patterns_equal}, directions within 1e-10 "
                   f"{dir_close}, multiview-as-accessory match {mv_match}")
    assert patterns_equal and dir_close and mv_match


def test_criterion_09_permutation_calibration():
    exceed = 0
    for rep in range(25):
        x1, x2 = gen_null(50, 60, 60, seed=100 + rep)
        block = center_scale(x1).data.T @ center_scale(x2).data / 50
        g1 = 0.25 * np.linalg.norm(block, axis=1).max()
        g2 = 0.25 * np.linalg.norm(block, axis=0).max()
        report = perm_tune(x1, x2, TuneGrid((g1,), (g2,), permutations=100,
                                            seed=rep), cfg=FitConfig(scale=False))
        exceed += report.scores[0, 0] > 0.05
    zero = 0
    for rep in range(25):
        x1, x2, _ = gen_rank_one(RankOneSpec(seed=500 + rep))
        block = center_scale(x1).data.T @ center_scale(x2).data / 50
        row = np.linalg.norm(block, axis=1).max()
        col = np.linalg.norm(block, axis=0).max()
        grid = TuneGrid((0.37 * row, 0.44 * row), (0.32 * col, 0.38 * col),
                        permutations=100, seed=rep)
        report = perm_tune(x1, x2, grid, cfg=FitConfig(scale=False))
        zero += report.scores[report.chosen_index] == 0.0
    ok = exceed >= 20 and zero >= 23
    _report(9, ok, f"null p>0.05 in {exceed}/25 (need >=20); planted p=0 at chosen "
                   f"in {zero}/25 (need >=23)")
    assert exceed >= 20
    assert zero >= 23


def test_criterion_10_monotone_objectives():
    if not COLLECTED_TRACES:  # standalone invocation: run a battery
        rng = np.random.default_rng(1010)
        for idx in range(60):
            p1, p2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            block = rng.standard_normal((p1, p2))
            gamma = float(rng.uniform(0, np.linalg.norm(block, axis=0).max() * 0.8))
            for solver, g in ((pattern_l1, gamma), (pattern_l0, gamma ** 2)):
                try:
                    res = solver(block, g, conv=TRACK)
                except EmptySupportError:
                    continue
                _collect(f"battery/{idx}", res.objective_trace)
    worst = 0.0
    count = 0
    for label, trace in COLLECTED_TRACES:
        if trace.size < 2:
            continue
        floor = -1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        dips = np.diff(trace) - floor
        worst = min(worst, float(dips.min(initial=0.0)))
        count += 1
        assert np.all(np.diff(trace) >= floor), f"non-monotone trace in {label}"
    ok = worst >= 0.0
    _report(10, ok, f"{count} tracked stage-one traces all non-decreasing "
                    f"(worst margin {worst:.2e})")


def test_criterion_11_per_iteration_complexity_trend():
    conv = ConvergenceSpec(tol=1e-300, max_iter=240)

    def block_of(p):
        block = np.random.default_rng(p).standard_normal((p, p))
        return block, 0.1 * np.linalg.norm(block, axis=0).max()

    def per_iter_time(block, gamma, repeats=3):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = pattern_l1(block, gamma, conv=conv)
            best = min(best, (time.perf_counter() - t0) / res.iterations)
        return best

    # The first block is tiny: its time is the size-independent interpreter
    # dispatch cost. Each round times every size back to back and fits its own
    # trend, and the median round is judged, so a stretch of load from other
    # processes that slows one round, or the dispatch cost alone, moves no
    # more than that round.
    sizes = [200, 400, 800]
    blocks = [block_of(p) for p in [8, *sizes]]
    x = np.log([p * p for p in sizes])
    rounds = []
    for _ in range(5):
        overhead, *times = [per_iter_time(*b) for b in blocks]
        compute = np.maximum(np.array(times) - overhead, 1e-9)
        slope, intercept = np.polyfit(x, np.log(compute), 1)
        fit = np.exp(intercept + slope * x)
        rounds.append((slope, (np.abs(compute - fit) / fit).max(), overhead))
    slope, residual, overhead = np.median(rounds, axis=0)
    ok = 0.7 <= slope <= 1.3 and residual <= 0.3
    _report(11, ok, f"per-iteration compute vs p1*p2: slope {slope:.2f} "
                    f"(band [0.7,1.3]), max residual {residual:.1%}, "
                    f"dispatch overhead {overhead * 1e6:.1f}us (medians of 5 rounds)")
    assert 0.7 <= slope <= 1.3
    assert residual <= 0.3


def test_criterion_12_determinism_byte_identical():
    def run_once():
        x1, x2, _truths = gen_rank_one(RankOneSpec(seed=4))
        grid = _planted_grid(x1, x2)
        report = perm_tune(x1, x2, grid, cfg=FitConfig(scale=False))
        g1, g2 = report.chosen
        sol = fit_pair(center_scale(x1), center_scale(x2), g1, g2)
        config = {"seed": 4, "gamma1": g1, "gamma2": g2, "penalty": "l1",
                  "scale": False, "subcommand": "scca"}
        doc = _solution_dict(sol, [x1.names, x2.names], 4, config)
        return (json.dumps(doc, sort_keys=True, indent=2).encode(),
                report.to_json().encode())

    first_sol, first_tune = run_once()
    second_sol, second_tune = run_once()
    ok = first_sol == second_sol and first_tune == second_tune
    _report(12, ok, f"repeated pipeline produced byte-identical solution "
                    f"({len(first_sol)} bytes) and tuning report")
    assert first_sol == second_sol
    assert first_tune == second_tune
