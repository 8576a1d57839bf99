"""Invariances of the stage-one hinge ascent and of the pair pipeline.

Scaling a cross-covariance by 2^k (and the threshold by 2^k for the L1 rule,
4^k for the L0 rule) and flipping the sign of one partner column are exact
in floating point, so ``pattern_l1`` and ``pattern_l0`` must return the same
patterns after the same number of iterations. The stall test compares
objective changes against max(1, |objective|), which is scale-free only
once the objective is at least 1, so every problem is first scaled by a
power of two until its objective starts (and, being non-decreasing, stays)
above 4.

Permuting the samples of both views jointly changes only the summation
order of every product, so ``fit_pair`` must keep its supports and
iteration counts and its correlations to rounding; permutation tuning
relies on it when it centres the views once per sweep. Permuting the columns
of one view permutes that view's pattern and direction the same way and
leaves the other view's and the correlation, up to rounding and the sign
convention that makes a direction's first non-zero entry positive.

At zero penalty every coordinate is active under either rule, so a fit in
either order is the leading singular pair of the dense block (the dense
limit of acceptance criterion 6), whenever that pair is identified.

A GEP stage two keeps its correlation to rounding under a sample
permutation, but its directions move: at n=4 by up to a few 1e-6 (relative)
when a support of n or more coordinates gets the automatic ridge, and by
rounding otherwise. When the supports' leading canonical correlation is tied
(a support that spans all n-1 centred dimensions), the directions are not
identified and only the correlation is compared.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scca import (ConvergenceSpec, CrossOperator, EmptySupportError, ViewMatrix, fit_pair,
                  pattern_l0, pattern_l1, power_svd)

from conftest import make_views

TRACK = ConvergenceSpec(objective_track=True)
SOLVERS = {"l1": pattern_l1, "l0": pattern_l0}


def _problem(kind, a, b):
    """The cross-covariance a'b/n as an explicit block or as a CrossOperator."""
    n = a.shape[0]
    if kind == "dense":
        return a.T @ b / n
    views = [ViewMatrix(d, [f"v{j}" for j in range(d.shape[1])], centered=True)
             for d in (a, b)]
    return CrossOperator.from_views(*views)


def _base(n, p1, p2, seed, frac, rule):
    """Views scaled by a power of two so that the objective at the start,
    at least (M - gamma)^2 (L1) or M^2 - gamma (L0) for the largest column
    norm M, is at least 4; and the threshold at ``frac`` of M."""
    x1, x2 = make_views(n, p1, p2, seed=seed)
    a, b = x1.data, x2.data
    big = np.linalg.norm(a.T @ b / n, axis=0).max()
    room = big * (1.0 - frac) if rule == "l1" else big * math.sqrt(1.0 - frac ** 2)
    a = a * 2.0 ** max(0, math.ceil(math.log2(2.0 / room)))
    big = np.linalg.norm(a.T @ b / n, axis=0).max()
    gamma = frac * big if rule == "l1" else (frac * big) ** 2
    return a, b, gamma


PROBLEMS = dict(n=st.integers(4, 30), p1=st.integers(2, 25), p2=st.integers(2, 25),
                seed=st.integers(0, 2**16), frac=st.floats(0.05, 0.7),
                rule=st.sampled_from(["l1", "l0"]),
                kind=st.sampled_from(["dense", "operator"]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 30), **PROBLEMS)
def test_scaling_block_and_threshold_by_a_power_of_two(n, p1, p2, seed, frac, rule, kind, k):
    a, b, gamma = _base(n, p1, p2, seed, frac, rule)
    solve = SOLVERS[rule]
    ref = solve(_problem(kind, a, b), gamma, conv=TRACK)
    out = solve(_problem(kind, a * 2.0 ** k, b), gamma * 2.0 ** (k if rule == "l1" else 2 * k),
                conv=TRACK)
    assert out.pattern.bits.tolist() == ref.pattern.bits.tolist()
    assert out.iterations == ref.iterations
    np.testing.assert_array_equal(out.z_lead.values, ref.z_lead.values)
    np.testing.assert_array_equal(out.z_partner.values, ref.z_partner.values)
    np.testing.assert_array_equal(out.objective_trace, ref.objective_trace * 4.0 ** k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(column=st.integers(0, 10**6), **PROBLEMS)
def test_flipping_one_partner_column(n, p1, p2, seed, frac, rule, kind, column):
    a, b, gamma = _base(n, p1, p2, seed, frac, rule)
    j = column % p2
    flipped = b.copy()
    flipped[:, j] *= -1.0
    solve = SOLVERS[rule]
    ref = solve(_problem(kind, a, b), gamma, conv=TRACK)
    out = solve(_problem(kind, a, flipped), gamma, conv=TRACK)
    assert out.pattern.bits.tolist() == ref.pattern.bits.tolist()
    assert out.iterations == ref.iterations
    np.testing.assert_array_equal(out.objective_trace, ref.objective_trace)
    # the lead iterate flips as a whole when the flipped column was its start
    sign = 1.0 if np.array_equal(out.z_lead.values, ref.z_lead.values) else -1.0
    np.testing.assert_array_equal(out.z_lead.values, sign * ref.z_lead.values)
    partner = sign * ref.z_partner.values
    partner[j] *= -1.0
    np.testing.assert_array_equal(out.z_partner.values, partner)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 30), p1=st.integers(2, 25), p2=st.integers(2, 25),
       seed=st.integers(0, 2**16), frac=st.floats(0.05, 0.6),
       penalty=st.sampled_from(["l1", "l0"]),
       order=st.sampled_from(["auto", "1-first", "2-first"]),
       stage2=st.sampled_from(["svd", "gep"]), factors=st.integers(1, 2))
def test_permuting_the_samples_of_both_views_leaves_the_fit(n, p1, p2, seed, frac, penalty,
                                                            order, stage2, factors):
    x1, x2 = make_views(n, p1, p2, seed=seed)
    block = x1.data.T @ x2.data / n
    g1 = frac * np.linalg.norm(block, axis=1).max()
    g2 = frac * np.linalg.norm(block, axis=0).max()
    if penalty == "l0":
        g1, g2 = g1 ** 2, g2 ** 2
    perm = np.random.default_rng(seed).permutation(n)
    y1, y2 = (ViewMatrix(x.data[perm], x.names, centered=True) for x in (x1, x2))
    # a GEP pencil on a support of n or more coordinates gets a tiny automatic
    # ridge, and its eigenvector moves with rounding (by 1e-6 at n=4), so a second
    # GEP factor deflates by a slightly different first factor
    factors = min(factors if stage2 == "svd" else 1, n, p1, p2)
    kw = dict(factors=factors, penalty=penalty, order=order, stage2=stage2)
    try:
        ref = fit_pair(x1, x2, g1, g2, **kw)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            fit_pair(y1, y2, g1, g2, **kw)
        return
    out = fit_pair(y1, y2, g1, g2, **kw)
    assert out.factor_count == ref.factor_count
    for side in range(2):
        assert ([p.bits.tolist() for p in out.patterns[side]]
                == [p.bits.tolist() for p in ref.patterns[side]])
    assert out.iterations == ref.iterations
    np.testing.assert_allclose(out.correlations, ref.correlations, rtol=0, atol=1e-12)


def _canonical_correlations(a, b):
    """Canonical correlations of the column spaces of two centred blocks."""
    def basis(m):
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        return u[:, s > 1e-10 * s[0]]
    return np.linalg.svd(basis(a).T @ basis(b), compute_uv=False)


# Largest relative move of a GEP direction under a sample permutation at n=4,
# measured over fits drawn as below: 4.2e-6 over 5,753 fits with the automatic
# ridge, 3.1e-10 over 446 fits without it whose leading canonical correlation
# is simple. Each bound is about 25 times its measured drift.
GEP_RIDGE_DRIFT = 1e-4
GEP_DRIFT = 1e-8


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p1=st.integers(2, 25), p2=st.integers(2, 25), seed=st.integers(0, 2**16),
       frac=st.floats(0.05, 0.6), penalty=st.sampled_from(["l1", "l0"]),
       order=st.sampled_from(["auto", "1-first", "2-first"]))
def test_permuting_the_samples_moves_a_gep_fit_only_by_its_drift(p1, p2, seed, frac,
                                                                penalty, order):
    n = 4
    x1, x2 = make_views(n, p1, p2, seed=seed)
    block = x1.data.T @ x2.data / n
    g1 = frac * np.linalg.norm(block, axis=1).max()
    g2 = frac * np.linalg.norm(block, axis=0).max()
    if penalty == "l0":
        g1, g2 = g1 ** 2, g2 ** 2
    perm = np.random.default_rng(seed).permutation(n)
    y1, y2 = (ViewMatrix(x.data[perm], x.names, centered=True) for x in (x1, x2))
    kw = dict(penalty=penalty, order=order, stage2="gep")
    try:
        ref = fit_pair(x1, x2, g1, g2, **kw)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            fit_pair(y1, y2, g1, g2, **kw)
        return
    out = fit_pair(y1, y2, g1, g2, **kw)
    assert out.warnings == ref.warnings
    np.testing.assert_allclose(out.correlations, ref.correlations, rtol=0, atol=1e-10)
    if any("applied ridge" in w for w in ref.warnings):
        bound = GEP_RIDGE_DRIFT      # a support of n or more coordinates
    else:
        rho = _canonical_correlations(x1.data[:, ref.patterns[0][0].bits],
                                      x2.data[:, ref.patterns[1][0].bits])
        if rho.size > 1 and rho[0] - rho[1] <= 1e-6:
            return  # a tied leading correlation leaves the directions unidentified
        bound = GEP_DRIFT
    for ref_dir, out_dir in zip(ref.directions, out.directions):
        move = np.linalg.norm(out_dir[:, 0] - ref_dir[:, 0]) / np.linalg.norm(ref_dir[:, 0])
        assert move <= bound


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 30), p1=st.integers(2, 25), p2=st.integers(2, 25),
       seed=st.integers(0, 2**16), frac=st.floats(0.05, 0.6),
       penalty=st.sampled_from(["l1", "l0"]),
       order=st.sampled_from(["auto", "1-first", "2-first"]),
       stage2=st.sampled_from(["svd", "gep"]))
def test_permuting_the_columns_of_view_1_permutes_its_pattern(n, p1, p2, seed, frac, penalty,
                                                              order, stage2):
    x1, x2 = make_views(n, p1, p2, seed=seed)
    block = x1.data.T @ x2.data / n
    g1 = frac * np.linalg.norm(block, axis=1).max()
    g2 = frac * np.linalg.norm(block, axis=0).max()
    if penalty == "l0":
        g1, g2 = g1 ** 2, g2 ** 2
    cols = np.random.default_rng(seed).permutation(p1)
    y1 = ViewMatrix(x1.data[:, cols], [x1.names[j] for j in cols], centered=True)
    kw = dict(penalty=penalty, order=order, stage2=stage2)
    try:
        ref = fit_pair(x1, x2, g1, g2, **kw)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            fit_pair(y1, x2, g1, g2, **kw)
        return
    out = fit_pair(y1, x2, g1, g2, **kw)
    assert out.patterns[0][0].bits.tolist() == ref.patterns[0][0].bits[cols].tolist()
    assert out.patterns[1][0].bits.tolist() == ref.patterns[1][0].bits.tolist()
    np.testing.assert_allclose(out.correlations, ref.correlations, rtol=0, atol=1e-10)
    if stage2 == "gep":
        return  # a pencil with the automatic ridge moves its eigenvector with rounding
    # the pair flips as a whole when view 1's first non-zero entry changed
    z1, z2 = ref.directions[0][cols, 0], ref.directions[1][:, 0]
    sign = 1.0 if out.directions[0][:, 0] @ z1 > 0 else -1.0
    np.testing.assert_allclose(out.directions[0][:, 0], sign * z1, rtol=0, atol=1e-10)
    np.testing.assert_allclose(out.directions[1][:, 0], sign * z2, rtol=0, atol=1e-10)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 30), p1=st.integers(2, 25), p2=st.integers(2, 25),
       seed=st.integers(0, 2**16), penalty=st.sampled_from(["l1", "l0"]),
       order=st.sampled_from(["auto", "1-first", "2-first"]))
def test_zero_penalty_fit_is_the_dense_singular_pair(n, p1, p2, seed, penalty, order):
    x1, x2 = make_views(n, p1, p2, seed=seed)
    block = x1.data.T @ x2.data / n
    sigmas = np.linalg.svd(block, compute_uv=False)
    # a leading singular value within 10 % of the next leaves the pair
    # unidentified, and slows both power iterations to a crawl
    assume(sigmas[1] <= 0.9 * sigmas[0])
    sol = fit_pair(x1, x2, 0.0, 0.0, penalty=penalty, order=order)
    assert [p[0].active_count for p in sol.patterns] == [p1, p2]
    u, v, _sigma = power_svd(block, ConvergenceSpec(tol=1e-12))
    for direction, dense in zip(sol.directions, (u.values, v.values)):
        cos = abs(direction[:, 0] @ dense) / np.linalg.norm(direction[:, 0])
        assert cos >= 1 - 1e-6
