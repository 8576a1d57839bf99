"""The p x B hinge ascent on a batch of permuted cross-covariances, and the
batched SVD stage two of the permutation refits.

The kernel applies its stop rule as array arithmetic; ``_loop_ascent`` below
is the reference it replaced, which stops each column in a Python loop. Both
run the same products, so they agree to the bit, on a batch as on the one
operator (a directed fit's dense block, or a deflated CrossOperator) that
serves every column.
"""

from dataclasses import replace

import numpy as np
import pytest

from scca import (ConvergenceSpec, DegenerateInputError, EmptySupportError, FitConfig,
                  gen_null, pattern_l0, pattern_l1, pearson, stage_two)
from scca.covariance import CrossOperator, PermutedCross
from scca.pattern import (_STALL_LIMIT, _batch_ascent, _batch_side, _col_norms, _column,
                          _hinge_ascent, _sq_norms, first_block, first_side, pattern_pair,
                          pattern_pair_batch, shrunk_block)
from scca.solve import power_svd_batch
from scca.tuning import _abs_correlations, _permutations, _PermSweep

WIDTH = 30


def _loop_ascent(c, gammas: np.ndarray, rule: str, z0: np.ndarray, conv: ConvergenceSpec,
                 stall_guard: bool = True, offset=None, pull=None):
    """Reference hinge ascent: column k ascends on member k of a PermutedCross
    (on any other operator, on the operator itself) at threshold gammas[k],
    with the projections shifted by ``offset`` and a ``pull`` (eps, a) adding
    eps*a to each update and 2 eps a'z to the functional, each step on new
    arrays, each column's stop rule in a loop. Returns (z, objective, weights,
    iterations, vanished, capped, traces, stalled), ``stalled`` marking the
    columns that the stall guard stopped."""

    def operator(cols):
        return c.take(cols) if isinstance(c, PermutedCross) else c

    def value(z, cols):
        proj = operator(cols).T @ z
        if offset is not None:
            proj = proj + offset[:, None]
        gamma = gammas[cols][None, :]
        if rule == "l1":
            w = np.maximum(np.abs(proj) - gamma, 0.0)
            obj, weights = _sq_norms(w), w * np.sign(proj)
        else:
            clipped = np.maximum(proj * proj - gamma, 0.0)
            obj, weights = clipped.sum(axis=0), np.where(clipped > 0, proj, 0.0)
        if pull is not None:
            obj = obj + 2.0 * pull[0] * (pull[1] @ z)
        return obj, weights

    def distance(a, b):
        d = a - b
        return np.sqrt(d @ d)

    z = np.array(z0, dtype=float)
    width = z.shape[1]
    iterations, vanished = np.zeros(width, dtype=int), np.zeros(width, dtype=bool)
    stalled = np.zeros(width, dtype=bool)
    traces = [[] for _ in range(width)]
    live, zl = np.arange(width), z.copy()
    prev, run = [None] * width, [0] * width
    for step in range(1, conv.max_iter + 1):
        obj, weights = value(zl, live)
        for col, val in zip(live.tolist(), obj.tolist()):
            traces[col].append(val)
        u = operator(live) @ weights
        if pull is not None:
            u = u + (pull[0] * pull[1])[:, None]
        nrm = np.sqrt(_sq_norms(u))
        gone = [i for i, size in enumerate(nrm.tolist()) if size == 0.0]
        if gone:
            u[:, gone], nrm[gone] = zl[:, gone], 1.0
        z_new = u / nrm
        stop = list(gone)
        for i, (val, last) in enumerate(zip(obj.tolist(), prev)):
            prev[i] = val
            if i in gone:
                continue
            if last is not None and abs(val - last) <= conv.tol * max(1.0, abs(last)):
                run[i] += 1
                if stall_guard and run[i] >= _STALL_LIMIT:
                    stop.append(i)
                    stalled[live[i]] = True
                elif distance(z_new[:, i], zl[:, i]) <= conv.tol:
                    stop.append(i)
            else:
                run[i] = 0
        before, zl = zl, z_new
        if stop:
            z[:, live[stop]], iterations[live[stop]] = zl[:, stop], step
            iterations[live[gone]] -= 1
            vanished[live[gone]] = True
            keep = [i for i in range(live.size) if i not in stop]
            # packed C-contiguous, as the kernel packs its live iterates
            live, zl, before = live[keep], np.ascontiguousarray(zl[:, keep]), before[:, keep]
            prev, run = [prev[i] for i in keep], [run[i] for i in keep]
            if not keep:
                break
    z[:, live], iterations[live] = zl, step
    obj, weights = value(z, np.arange(width))
    capped = np.zeros(width, dtype=bool)
    capped[live] = [abs(obj[col] - last) > conv.tol * max(1.0, abs(last))
                    or distance(zl[:, i], before[:, i]) > conv.tol
                    for i, (col, last) in enumerate(zip(live.tolist(), prev))]
    for trace, val in zip(traces, obj.tolist()):
        trace.append(val)
    return z, obj, weights, iterations, vanished, capped, traces, stalled


def _null_sweep(swap: bool = False):
    """Null views of 24 samples and 40 and 30 coordinates (30 and 40 with
    ``swap``): their ascents run from 2 to about 80 steps, some stopped by the
    stall guard. Returns the permutation sweep and WIDTH row permutations."""
    x1, x2 = gen_null(24, 40, 30, seed=3)
    if swap:
        x1, x2 = x2, x1
    return _PermSweep.prepare(x1, x2, FitConfig(scale=True)), _permutations(7, 0, 24, WIDTH)


def _starts(c: PermutedCross, frac: float, rule: str):
    """Each member's largest-norm column as its start, and thresholds at
    ``frac`` of the median top norm, but above every norm for the last two
    members, whose first update vanishes."""
    norms = c.col_norms()
    js = np.argmax(norms, axis=0)
    top = norms[js, np.arange(js.size)]
    gammas = np.full(js.size, frac * np.median(top))
    gammas[-2:] = 1.5 * top.max()
    return c.columns(js) / top, gammas if rule == "l1" else gammas ** 2


def _batch(side: str, transpose: bool, rule: str) -> PermutedCross:
    """A thin first-side batch, or a second-side batch masked to the supports
    that first side finds, in either orientation."""
    sweep, perms = _null_sweep()
    lead = sweep.batch(perms).T if transpose else sweep.batch(perms)
    if side == "first":
        return lead.thin()
    z0, gammas = _starts(lead.thin(), 0.5, rule)
    bits, ok = _batch_side(lead.thin(), float(gammas[0]), rule, ConvergenceSpec())
    keep = np.flatnonzero(ok)
    return lead.take(keep).cols(bits[:, keep]).T


def _single(kind: str, transpose: bool, rule: str):
    """One operator that serves every column, on the null sweep's views: the
    dense block of a directed fit, whose projections are shifted by the
    alignment with an accessory y and whose updates are pulled toward it, or
    a CrossOperator with one deflation term: the residual that a second
    factor ascends on.
    Returns the operator, the starts (its WIDTH largest-norm columns), the
    thresholds (rising from 0.1 to 0.8 of the largest column norm, and above
    every norm for the last two columns) and the ascent's keyword arguments."""
    sweep, _ = _null_sweep()
    op, kw = CrossOperator.from_views(sweep.v1, sweep.v2), {}
    if kind == "directed":
        y = np.random.default_rng(6).standard_normal(sweep.v1.n)
        aligned = [view.data.T @ y / sweep.div for view in (sweep.v1, sweep.v2)]
        c = op.dense().T if transpose else op.dense()
        lead, partner = aligned[::-1] if transpose else aligned
        kw = dict(offset=partner, pull=(0.5, lead))
    else:
        u, _s, vt = np.linalg.svd(op.dense())
        c = op.deflated(u[:, 0], vt[0])
        c = c.T if transpose else c
    norms = _col_norms(c)
    js = np.argsort(norms, kind="stable")[::-1][:WIDTH]
    z0 = np.column_stack([_column(c, j) / norms[j] for j in js])
    gammas = np.linspace(0.1, 0.8, js.size) * norms.max()
    gammas[-2:] = 1.5 * norms.max()
    return c, z0, gammas if rule == "l1" else gammas ** 2, kw


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("kind", ["first", "second", "directed", "residual"])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("rule", ["l1", "l0"])
@pytest.mark.parametrize("max_iter", [10000, 8, 1])
def test_batch_ascent_matches_the_loop_reference(kind, transpose, rule, max_iter):
    # at max_iter 1 a start that is already the fixed point is not capped
    if kind in ("first", "second"):
        c, kw = _batch(kind, transpose, rule), {}
        z0, gammas = _starts(c, 0.5, rule)
    else:
        c, z0, gammas, kw = _single(kind, transpose, rule)
    conv = ConvergenceSpec(max_iter=max_iter, objective_track=True)
    run = _hinge_ascent(c, gammas, rule, z0, conv, **kw)
    z, obj, weights, iterations, vanished, capped, traces, _ = _loop_ascent(
        c, gammas, rule, z0, conv, **kw)
    assert _bits(run.z) == _bits(z)
    assert _bits(run.objective) == _bits(obj)
    assert _bits(run.weights) == _bits(weights)
    assert run.traces == traces
    np.testing.assert_array_equal(run.iterations, iterations)
    np.testing.assert_array_equal(run.vanished, vanished)
    np.testing.assert_array_equal(run.capped, capped)
    if "pull" in kw:
        # a pulled update never vanishes, so the last two end on an empty
        # support, and no start is its fixed point, so max_iter may cap all
        assert not vanished.any() and not weights[:, -2:].any()
        assert capped.any() == (max_iter < 10000)
    else:
        assert vanished[-2:].all() and (iterations[-2:] == 0).all()
        if max_iter < 10000:
            assert 0 < capped.sum() < z0.shape[1] - 2


@pytest.mark.parametrize("transpose", [False, True])
def test_the_array_stop_rule_keeps_the_loop_iteration_counts(transpose):
    # a column the stall guard stopped, one the power stage twos' rule (no
    # guard) lets run on, and columns that max_iter caps
    c = _batch("first", transpose, "l1")
    z0, gammas = _starts(c, 0.5, "l1")
    for conv, stall_guard in ((ConvergenceSpec(), True), (ConvergenceSpec(), False),
                              (ConvergenceSpec(max_iter=30), True)):
        run = _hinge_ascent(c, gammas, "l1", z0, conv, stall_guard=stall_guard)
        *_, iterations, vanished, capped, _, stalled = _loop_ascent(
            c, gammas, "l1", z0, conv, stall_guard=stall_guard)
        np.testing.assert_array_equal(run.iterations, iterations)
        np.testing.assert_array_equal(run.vanished, vanished)
        np.testing.assert_array_equal(run.capped, capped)
        if stall_guard and conv.max_iter > 30:
            guarded, free = iterations, _hinge_ascent(c, gammas, "l1", z0, conv,
                                                      stall_guard=False).iterations
            assert stalled.any() and (guarded[stalled] < free[stalled]).all()
        if conv.max_iter == 30:
            assert capped.any()


@pytest.mark.parametrize("side", ["first", "second"])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("rule", ["l1", "l0"])
def test_each_batch_column_is_its_member_alone(side, transpose, rule):
    # BLAS rounds a one-column product (a matrix-vector call) differently
    # from a many-column one, so a member alone agrees with its batch column
    # to rounding, and exactly in its stop decisions
    c = _batch(side, transpose, rule)
    z0, gammas = _starts(c, 0.5, rule)
    conv = ConvergenceSpec(max_iter=60)
    run = _hinge_ascent(c, gammas, rule, z0, conv)
    assert (run.iterations > 2).any()
    for k in range(c.idx.shape[1]):
        one = _hinge_ascent(c.take([k]), gammas[[k]], rule, z0[:, [k]], conv)
        assert (one.iterations[0], one.vanished[0], one.capped[0]) == (
            run.iterations[k], run.vanished[k], run.capped[k])
        np.testing.assert_allclose(one.z[:, 0], run.z[:, k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(one.objective[0], run.objective[k], rtol=1e-12, atol=0)
        np.testing.assert_allclose(one.weights[:, 0], run.weights[:, k], rtol=0, atol=1e-12)
        assert ((one.weights[:, 0] != 0) == (run.weights[:, k] != 0)).all()


def test_a_second_ascent_leaves_the_first_results_alone():
    c = _batch("second", False, "l1")
    z0, gammas = _starts(c, 0.5, "l1")
    first = _hinge_ascent(c, gammas, "l1", z0, ConvergenceSpec())
    kept = first.z.copy(), first.weights.copy(), first.objective.copy()
    second = _hinge_ascent(c, 0.5 * gammas, "l1", z0, ConvergenceSpec())
    assert not np.array_equal(second.z, first.z)
    for got, want in zip((first.z, first.weights, first.objective), kept):
        assert _bits(got) == _bits(want)
    for a in (first.z, first.weights):
        for b in (second.z, second.weights):
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind", ["dense", "residual", "masked"])
@pytest.mark.parametrize("rule", ["l1", "l0"])
@pytest.mark.parametrize("per_coordinate", [False, True])
def test_the_ascent_leaves_its_inputs_alone(kind, rule, per_coordinate):
    # the projections are shifted and the updates pulled in place, on arrays
    # the kernel allocates: no step, before or after live columns are
    # packed, may write to the caller's starts, thresholds, offset or pull
    if kind == "masked":
        c = _batch("second", False, rule)
        z0, gammas = _starts(c, 0.5, rule)
    else:
        c, z0, gammas, _ = _single("directed" if kind == "dense" else "residual", False, rule)
    rng = np.random.default_rng(8)
    offset, pull = 0.1 * rng.standard_normal(c.shape[1]), (0.5, rng.standard_normal(c.shape[0]))
    if per_coordinate:
        gammas = np.outer(gammas, rng.uniform(0.5, 1.5, c.shape[1]))
    inputs = (z0, gammas, offset, pull[1])
    kept = [a.copy() for a in inputs]
    run = _hinge_ascent(c, gammas, rule, z0, ConvergenceSpec(max_iter=200), offset=offset,
                        pull=pull)
    assert run.iterations.min() < run.iterations.max()
    for got, want in zip(inputs, kept):
        assert _bits(got) == _bits(want)


# -- the batched SVD stage two -------------------------------------------

def _raw_batch(a: np.ndarray, b: np.ndarray, count: int, seed: int = 5) -> PermutedCross:
    """A batch of ``count`` row permutations of the raw (uncentred) data a."""
    n = a.shape[0]
    idx = _permutations(seed, 0, n, count)
    return PermutedCross(a, b, float(n), idx, np.argsort(idx, axis=0), a @ a.T, b @ b.T,
                         np.linalg.qr(a.T, mode="r").T, np.linalg.qr(b.T, mode="r").T)


def _masks(rng, p: int, count: int, low: int, high: int) -> np.ndarray:
    """A support of between low and high coordinates per member."""
    mask = np.zeros((p, count), dtype=bool)
    for k in range(count):
        mask[rng.choice(p, size=rng.integers(low, high + 1), replace=False), k] = True
    return mask


def _serial_rhos(batch: PermutedCross, rmask, cmask):
    """Per member, |rho| from ``stage_two(..., "svd")`` and ``pearson`` on
    member k alone, or None where stage two raises."""
    out = []
    for k in range(batch.idx.shape[1]):
        member = batch.member(k)
        try:
            est = stage_two({(0, 1): member}, [np.flatnonzero(rmask[:, k]),
                                                np.flatnonzero(cmask[:, k])], "svd")
        except DegenerateInputError:
            out.append(None)
            continue
        z1, z2 = est.directions
        out.append(abs(pearson(member.a @ z1, member.b @ z2)[0]))
    return out


def test_batched_svd_stage_two_matches_stage_two_per_member():
    sweep, perms = _null_sweep()
    batch = sweep.batch(perms)
    rng = np.random.default_rng(11)
    # supports smaller than n=24 and larger, on either side
    rmask = _masks(rng, batch.shape[0], WIDTH, 1, 30)
    cmask = _masks(rng, batch.shape[1], WIDTH, 1, 28)
    z1, z2, ok = power_svd_batch(replace(batch, rmask=rmask, cmask=cmask))
    assert ok.all()
    assert not (z1[~rmask].any() or z2[~cmask].any())
    np.testing.assert_allclose(np.linalg.norm(z1, axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(z2, axis=0), 1.0, rtol=0, atol=1e-12)
    want = _serial_rhos(batch, rmask, cmask)
    np.testing.assert_allclose(_abs_correlations(batch, z1, z2), want, rtol=0, atol=1e-10)


def test_an_all_zero_shrunk_block_is_a_failed_refit():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((12, 9)), rng.standard_normal((12, 7))
    b[:, 2] = 0.0
    batch = _raw_batch(a, b, 4)
    rmask = np.ones((9, 4), dtype=bool)
    cmask = np.ones((7, 4), dtype=bool)
    cmask[:, 1] = False
    cmask[2, 1] = True         # member 1 keeps only the zero column of b
    rmask[:, 3] = False
    rmask[[0, 5], 3] = True
    z1, z2, ok = power_svd_batch(replace(batch, rmask=rmask, cmask=cmask))
    assert ok.tolist() == [True, False, True, True]
    assert not z1[:, 1].any() and not z2[:, 1].any()
    assert _abs_correlations(batch, z1, z2)[1] == 0.0
    want = _serial_rhos(batch, rmask, cmask)
    assert want[1] is None and all(w is not None for w in want[:1] + want[2:])
    np.testing.assert_allclose(np.delete(_abs_correlations(batch, z1, z2), 1),
                               want[:1] + want[2:], rtol=0, atol=1e-10)


def test_a_constant_covariate_gives_rho_zero_and_no_failure():
    # uncentred data: b's constant column still correlates with a's rows, so
    # the block is not zero, but its covariate b z2 is constant
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((12, 9)) + 1.0, rng.standard_normal((12, 7))
    b[:, 4] = 3.0
    batch = _raw_batch(a, b, 3)
    rmask = np.ones((9, 3), dtype=bool)
    cmask = np.ones((7, 3), dtype=bool)
    cmask[:, 0] = False
    cmask[4, 0] = True
    z1, z2, ok = power_svd_batch(replace(batch, rmask=rmask, cmask=cmask))
    assert ok.all()
    rhos = _abs_correlations(batch, z1, z2)
    assert rhos[0] == 0.0 and (rhos[1:] > 0).all()
    want = _serial_rhos(batch, rmask, cmask)
    assert want[0] == 0.0
    np.testing.assert_allclose(rhos, want, rtol=0, atol=1e-10)


# -- the screen of members that cannot move --------------------------------

def _tops(blocks, rule: str) -> np.ndarray:
    """Each block's largest column norm, squared under "l0": what a threshold
    must stay below for its ascent to move."""
    tops = np.array([_col_norms(block).max() for block in blocks])
    return tops if rule == "l1" else tops ** 2


@pytest.mark.parametrize("side", ["first", "second"])
# the view stage one starts from: the wider one, view 1 as generated
@pytest.mark.parametrize("first", ["1-first", "2-first"])
@pytest.mark.parametrize("rule", ["l1", "l0"])
def test_screened_batches_match_pattern_pair_at_the_threshold(side, first, rule):
    # thresholds 1e-12 above and below members' top norms: those below the
    # threshold by more than the screen's margin skip the ascent, the ones
    # within it ascend, and every member agrees with pattern_pair alone
    sweep, perms = _null_sweep(swap=first == "2-first")
    batch = sweep.batch(perms)
    members = [batch.member(k) for k in range(WIDTH)]
    lead = first_side("auto", *batch.shape)
    assert lead == int(first[0])
    first_tops = _tops([first_block(m, lead) for m in members], rule)
    g_first = 0.5 * np.median(first_tops)
    if side == "first":
        tops = first_tops
    else:
        solver = pattern_l1 if rule == "l1" else pattern_l0
        leads = [solver(first_block(m, lead), g_first) for m in members]
        tops = _tops([shrunk_block(m, res.pattern, lead) for m, res in zip(members, leads)],
                     rule)
    for target in np.quantile(tops, [0.25, 0.75], method="nearest"):
        for shift in (-1e-12, 1e-12):
            gamma = target * (1.0 + shift)
            g_lead, g_other = (gamma, 0.5 * np.median(tops)) if side == "first" \
                else (g_first, gamma)
            g1, g2 = (g_lead, g_other) if lead == 1 else (g_other, g_lead)
            screened = tops <= gamma * (1.0 - 1e-9)
            assert 0 < screened.sum() < WIDTH - 1
            found = pattern_pair_batch(batch, g1, g2, penalty=rule)
            for k, member in enumerate(members):
                try:
                    want = pattern_pair(member, g1, g2, penalty=rule)
                except EmptySupportError:
                    assert not found.ok[k]
                    continue
                assert found.ok[k] and not screened[k]
                assert found.tau1[:, k].tolist() == want.tau1.bits.tolist()
                assert found.tau2[:, k].tolist() == want.tau2.bits.tolist()


@pytest.mark.parametrize("side", ["first", "second"])
@pytest.mark.parametrize("rule", ["l1", "l0"])
def test_screened_members_are_recorded_as_their_ascent_ends(side, rule):
    # the unscreened ascent of every member against the screened batch: a
    # member left out ends at its start, vanished after 0 iterations, with
    # zero weights, objective and trace, as its own ascent ends
    c = _batch(side, False, rule)
    norms = c.col_norms()
    js = np.argmax(norms, axis=0)
    top = norms[js, np.arange(js.size)]
    tops = top if rule == "l1" else top ** 2
    gamma = float(np.median(tops))
    conv = ConvergenceSpec(objective_track=True)
    run, nonzero = _batch_ascent(c, gamma, rule, conv)
    full = _hinge_ascent(c, np.full(js.size, gamma), rule, c.columns(js) / top, conv)
    screened = tops <= gamma * (1.0 - 1e-9)
    assert nonzero.all() and 0 < screened.sum() < js.size
    assert full.vanished[screened].all() and (full.iterations[screened] == 0).all()
    assert _bits(run.z[:, screened]) == _bits(full.z[:, screened])
    # the ascent's zero weights may carry a projection's sign
    assert not run.weights[:, screened].any() and not full.weights[:, screened].any()
    assert (run.objective[screened] == 0.0).all() and (full.objective[screened] == 0.0).all()
    np.testing.assert_array_equal(run.iterations, full.iterations)
    np.testing.assert_array_equal(run.vanished, full.vanished)
    np.testing.assert_array_equal(run.capped, full.capped)
    assert run.traces == full.traces
    np.testing.assert_allclose(run.z, full.z, rtol=0, atol=1e-12)
    np.testing.assert_allclose(run.objective, full.objective, rtol=1e-12, atol=0)
    assert ((run.weights != 0) == (full.weights != 0)).all()
