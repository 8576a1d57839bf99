"""Multi-view sCCA on factored cross-covariance operators against the dense blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scca import (ConvergenceSpec, DegenerateInputError, EmptySupportError, GammaMatrix,
                  MultiViewProblem, SingularityError, ViewMatrix, center_scale,
                  multiview_gep, multiview_power, multiview_scca)
from scca.pattern import init_direction
from scca.solve import _fix_sign, pearson


def _planted(n, ps, seed, active):
    """Centered views sharing two latent signals, of amplitude 2 and 1.5, on
    consecutive runs of ``active`` columns of every view."""
    rng = np.random.default_rng(seed)
    data = [rng.standard_normal((n, p)) for p in ps]
    for f, amplitude in enumerate((2.0, 1.5)):
        latent = amplitude * rng.standard_normal(n)[:, None]
        for d in data:
            d[:, f * active:(f + 1) * active] += latent
    return [center_scale(ViewMatrix(d, [f"V{r}_{j}" for j in range(d.shape[1])]))
            for r, d in enumerate(data)]


def _gamma(problem, frac):
    """Row s spreads frac of view s's largest summed column norm over the others."""
    m = problem.m
    values = np.zeros((m, m))
    for s in range(m):
        norms = sum(problem.tilde(r, s).col_norms() for r in range(m) if r != s)
        values[s] = frac * norms.max() / (m - 1)
        values[s, s] = 0.0
    return GammaMatrix(values)


# -- dense reference: explicit p_r x p_s blocks, sliced by boolean masks ------

def _tilde(blocks, r, s):
    return blocks[(r, s)] if r < s else blocks[(s, r)].T


def _dense_pattern(blocks, dim_s, thresh, s, m, conv):
    others = [r for r in range(m) if r != s]
    zs = {r: init_direction(_tilde(blocks, r, s)).values for r in others}

    def projection():
        proj = np.zeros(dim_s)
        for q in others:
            proj += _tilde(blocks, q, s).T @ zs[q]
        return proj

    sweeps = 0
    for _ in range(conv.max_iter):
        max_move = 0.0
        for r in others:
            proj = projection()
            w = np.maximum(np.abs(proj) - thresh, 0.0)
            update = _tilde(blocks, r, s) @ (w * np.sign(proj))
            for l in others:
                if l != r:
                    update = update + _tilde(blocks, r, l) @ zs[l]
            nrm = np.linalg.norm(update)
            if nrm == 0.0:
                raise DegenerateInputError("zero update")
            z_new = update / nrm
            max_move = max(max_move, float(np.linalg.norm(z_new - zs[r])))
            zs[r] = z_new
        sweeps += 1
        if max_move <= conv.tol:
            break
    bits = np.abs(projection()) > thresh
    if not bits.any():
        raise EmptySupportError("empty pattern")
    return bits, sweeps


def _dense_mscca(views, gam, stage2, conv):
    """Reference multi-view fit: (patterns, sweeps, directions, pairwise rho)."""
    m = len(views)
    n = views[0].n
    blocks = {(r, s): views[r].data.T @ views[s].data / n
              for r in range(m) for s in range(r + 1, m)}
    active = [np.arange(v.p) for v in views]
    patterns, sweeps = [None] * m, [None] * m
    for s in range(m - 1, -1, -1):
        bits, sweeps[s] = _dense_pattern(blocks, active[s].size, gam.threshold(s), s, m,
                                         conv)
        patterns[s] = bits
        blocks = {(r, t): b[bits, :] if r == s else b[:, bits] if t == s else b
                  for (r, t), b in blocks.items()}
        active[s] = active[s][bits]
    if stage2 == "power":
        actives = multiview_power(blocks, conv=conv)
    else:
        diag = []
        for v, a in zip(views, active):
            sub = v.data[:, a]
            diag.append(sub.T @ sub / n)
        try:
            actives = multiview_gep(blocks, diag).directions
        except SingularityError:
            # the automatic ridge: 1e-8 of the mean active variance
            auto = max(1e-8 * sum(np.trace(d) / d.shape[0] for d in diag) / m, 1e-12)
            actives = multiview_gep(blocks, diag, ridge=auto).directions
    directions = []
    for r in range(m):
        z = np.zeros(views[r].p)
        z[active[r]] = actives[r]
        directions.append(z)
    _fix_sign(directions[0], [])
    covariates = [views[0].data @ directions[0]]
    for r in range(1, m):
        cov = views[r].data @ directions[r]
        if float(covariates[0] @ cov) < 0:
            directions[r] *= -1.0
            cov *= -1.0
        covariates.append(cov)
    rho = np.zeros((m, m))
    for r in range(m):
        for s in range(r + 1, m):
            rho[r, s] = rho[s, r] = pearson(covariates[r], covariates[s])[0]
    return patterns, sweeps, directions, rho


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 4), n=st.integers(6, 40),
       ps=st.lists(st.integers(3, 30), min_size=4, max_size=4),
       seed=st.integers(0, 2**16), stage2=st.sampled_from(["power", "gep"]),
       frac=st.floats(0.1, 0.7))
def test_operator_multiview_equals_dense_multiview(m, n, ps, seed, stage2, frac):
    views = _planted(n, ps[:m], seed, active=max(1, min(ps[:m]) // 3))
    gam = _gamma(MultiViewProblem.from_views(views), frac)
    conv = ConvergenceSpec()
    try:
        patterns, sweeps, directions, rho = _dense_mscca(views, gam, stage2, conv)
    except (EmptySupportError, DegenerateInputError, SingularityError) as err:
        with pytest.raises(type(err)):
            multiview_scca(views, gam, stage2=stage2)
        return
    sol = multiview_scca(views, gam, stage2=stage2)
    for r in range(m):
        assert sol.patterns[r][0].bits.tolist() == patterns[r].tolist()
        assert sol.iterations[0][f"view{r + 1}"] == sweeps[r]
    if stage2 == "gep" and max(b.sum() for b in patterns) >= n - 1:
        # a support of n-1 or more leaves its centred within-view block
        # singular: the unridged pencil's eigenvector is then set by rounding
        return
    for r in range(m):
        np.testing.assert_allclose(sol.directions[r][:, 0], directions[r], rtol=0,
                                   atol=1e-10)
    np.testing.assert_allclose(sol.pairwise_correlations[0], rho, rtol=0, atol=1e-10)


def test_wide_multiview_never_forms_a_cross_block():
    ps = (3000, 2000, 2500)
    views = _planted(20, ps, seed=5, active=100)
    gam = _gamma(MultiViewProblem.from_views(views), 0.4)
    tracemalloc.start()
    try:
        sol = multiview_scca(views, gam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(0 < sol.patterns[r][0].active_count < ps[r] for r in range(3))
    assert peak < (ps[0] * ps[1] + ps[0] * ps[2] + ps[1] * ps[2]) * 8 / 4

