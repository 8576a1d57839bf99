"""The factored cross-covariance operator against the dense block it stands for."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scca import (CrossOperator, DegenerateInputError, DimensionError,
                  EmptySupportError, ParseError, ViewMatrix, center_scale,
                  deflate, fit_pair, load_view)
from scca.covariance import _parse_cells
from scca.pattern import first_block, first_side, pattern_l0, pattern_l1, pattern_pair
from scca.solve import pearson

from conftest import dense_stage_two, make_views


def _unit(rng, p):
    z = rng.standard_normal(p)
    return z / np.linalg.norm(z)


def _planted_views(n, p1, p2, seed, active):
    """Centered views sharing three latent signals, of amplitude 2, 1.7 and 1.4, on
    consecutive runs of ``active`` columns."""
    rng = np.random.default_rng(seed)
    d1 = rng.standard_normal((n, p1))
    d2 = rng.standard_normal((n, p2))
    for f, amplitude in enumerate((2.0, 1.7, 1.4)):
        latent = amplitude * rng.standard_normal(n)[:, None]
        d1[:, f * active:(f + 1) * active] += latent
        d2[:, f * active:(f + 1) * active] += latent
    names = lambda tag, p: [f"{tag}{j}" for j in range(p)]
    return (center_scale(ViewMatrix(d1, names("A", p1))),
            center_scale(ViewMatrix(d2, names("B", p2))))


def test_operator_algebra_matches_dense(rng):
    x1, x2 = make_views(7, 9, 5, seed=4)
    op = CrossOperator.from_views(x1, x2)
    block = x1.data.T @ x2.data / 7
    for _ in range(2):
        u, v = _unit(rng, 9), _unit(rng, 5)
        op = op.deflated(u, v)
        block = block - (u @ block @ v) * np.outer(u, v)
    z1, z2 = rng.standard_normal(9), rng.standard_normal(5)
    assert op.shape == block.shape and op.T.shape == block.T.shape
    np.testing.assert_allclose(op @ z2, block @ z2, atol=1e-12)
    np.testing.assert_allclose(op.T @ z1, block.T @ z1, atol=1e-12)
    np.testing.assert_allclose(op.col_norms(), np.linalg.norm(block, axis=0), atol=1e-12)
    np.testing.assert_allclose(op.T.col_norms(), np.linalg.norm(block, axis=1), atol=1e-12)
    np.testing.assert_allclose(op.column(3), block[:, 3], atol=1e-12)
    assert op.fro_norm() == pytest.approx(np.linalg.norm(block), abs=1e-12)
    rows, cols = np.array([0, 4, 8]), np.array([1, 3])
    np.testing.assert_allclose(op.rows(rows).cols(cols).dense(), block[np.ix_(rows, cols)],
                               atol=1e-12)
    np.testing.assert_allclose(op.T.dense(), block.T, atol=1e-12)
    zs = rng.standard_normal((5, 3))
    np.testing.assert_allclose(op @ zs, block @ zs, atol=1e-12)
    np.testing.assert_array_equal((op @ zs[:, :1])[:, 0], op @ zs[:, 0])
    with pytest.raises(DimensionError):
        op @ np.ones((5, 2, 1))


def test_numpy_forms_the_block_only_when_asked(rng):
    x1, x2 = make_views(6, 5, 4, seed=2)
    op = CrossOperator.from_views(x1, x2).deflated(_unit(rng, 5), _unit(rng, 4))
    assert np.asarray(op).tobytes() == op.dense().tobytes()
    np.testing.assert_array_equal(np.linalg.norm(op, axis=0), np.linalg.norm(op.dense(), axis=0))
    with pytest.raises(TypeError):
        rng.standard_normal(5) @ op
    with pytest.raises(TypeError):
        rng.standard_normal((3, 5)) @ op


def test_operator_deflation_through_deflate(rng):
    x1, x2 = make_views(6, 5, 4, seed=9)
    u, v = _unit(rng, 5), _unit(rng, 4)
    block = x1.data.T @ x2.data / 6
    op = deflate(CrossOperator.from_views(x1, x2), u, v)
    np.testing.assert_allclose(op.dense(), deflate(block, u, v), atol=1e-12)
    assert op.s[0] == pytest.approx(float(u @ block @ v), abs=1e-12)


def _dense_fit(x1, x2, g1, g2, factors, stage2="svd", **kw):
    """Reference multi-factor fit on the explicit blocks (cross block deflated
    as an array, full within-view blocks for GEP); also returns the warnings."""
    n = x1.n
    residual = x1.data.T @ x2.data / n
    c11, c22 = x1.data.T @ x1.data / n, x2.data.T @ x2.data / n
    base = np.linalg.norm(residual)
    out, warnings = [], ()
    for i in range(factors):
        if np.linalg.norm(residual) <= 1e-7 * max(base, 1e-300):
            break
        try:
            pair = pattern_pair(residual, g1, g2, **kw)
            ix1, ix2 = pair.tau1.indices(), pair.tau2.indices()
            z1, z2, extra = dense_stage_two(residual[np.ix_(ix1, ix2)],
                                            c11[np.ix_(ix1, ix1)], c22[np.ix_(ix2, ix2)],
                                            stage2, ix1, ix2, x1.p, x2.p)
        except (EmptySupportError, DegenerateInputError):
            break
        warnings += extra
        rho, _ = pearson(x1.data @ z1, x2.data @ z2)
        out.append((rho, z1, z2, pair.tau1.bits, pair.tau2.bits))
        if i + 1 < factors:
            residual = deflate(residual, z1 / np.linalg.norm(z1), z2 / np.linalg.norm(z2))
    return sorted(out, key=lambda f: -f[0]), warnings


def _assert_same_fit(sol, ref, atol):
    assert sol.factor_count == len(ref)
    for k, (rho, z1, z2, bits1, bits2) in enumerate(ref):
        assert sol.patterns[0][k].bits.tolist() == bits1.tolist()
        assert sol.patterns[1][k].bits.tolist() == bits2.tolist()
        assert abs(sol.correlations[k] - rho) <= atol
        np.testing.assert_allclose(sol.directions[0][:, k], z1, rtol=0, atol=atol)
        np.testing.assert_allclose(sol.directions[1][:, k], z2, rtol=0, atol=atol)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(6, 40), p1=st.integers(3, 30), p2=st.integers(3, 30),
       seed=st.integers(0, 2**16), penalty=st.sampled_from(["l1", "l0"]),
       order=st.sampled_from(["auto", "1-first", "2-first"]),
       factors=st.integers(1, 3), restarts=st.integers(0, 2),
       frac=st.floats(0.05, 0.6))
def test_operator_path_equals_dense_path(n, p1, p2, seed, penalty, order, factors,
                                         restarts, frac):
    x1, x2 = _planted_views(n, p1, p2, seed, active=max(1, min(p1, p2) // 3))
    block = x1.data.T @ x2.data / n
    g1 = frac * np.linalg.norm(block, axis=1).max()
    g2 = frac * np.linalg.norm(block, axis=0).max()
    if penalty == "l0":
        g1, g2 = g1 ** 2, g2 ** 2
    kw = dict(penalty=penalty, order=order)
    op = CrossOperator.from_views(x1, x2)

    # stage one alone
    try:
        want = pattern_pair(block, g1, g2, **kw)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            pattern_pair(op, g1, g2, **kw)
    else:
        got = pattern_pair(op, g1, g2, **kw)
        assert got.tau1.bits.tolist() == want.tau1.bits.tolist()
        assert got.tau2.bits.tolist() == want.tau2.bits.tolist()
    # the first side also from random restarts, which the pair pass never takes
    side = first_side(order, p1, p2)
    solver, gamma = pattern_l1 if penalty == "l1" else pattern_l0, (g1, g2)[side - 1]
    try:
        want = solver(first_block(block, side), gamma, restarts=restarts, seed=seed)
    except EmptySupportError:
        with pytest.raises(EmptySupportError):
            solver(first_block(op, side), gamma, restarts=restarts, seed=seed)
    else:
        got = solver(first_block(op, side), gamma, restarts=restarts, seed=seed)
        assert got.pattern.bits.tolist() == want.pattern.bits.tolist()

    factors = min(factors, n, p1, p2)
    ref, _ = _dense_fit(x1, x2, g1, g2, factors, **kw)
    if not ref:
        with pytest.raises(EmptySupportError):
            fit_pair(x1, x2, g1, g2, factors=factors, **kw)
        return
    _assert_same_fit(fit_pair(x1, x2, g1, g2, factors=factors, **kw), ref, atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_exhausted_residual_stops_like_the_dense_path(seed):
    # rank-5 views at gamma 0: five factors use up the cross block, so the
    # sixth sees a residual of rounding noise only
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((40, 5))
    x1 = center_scale(ViewMatrix(latent @ rng.standard_normal((5, 300)),
                                 [f"A{j}" for j in range(300)]))
    x2 = center_scale(ViewMatrix(latent @ rng.standard_normal((5, 200)),
                                 [f"B{j}" for j in range(200)]))
    sol = fit_pair(x1, x2, 0.0, 0.0, factors=7)
    ref, _ = _dense_fit(x1, x2, 0.0, 0.0, 7)
    assert len(ref) == 5
    _assert_same_fit(sol, ref, atol=1e-10)
    assert [w for w in sol.warnings if "exhausted" in w] == [
        "factor 6: residual numerically exhausted (data rank reached)"]

    residual = CrossOperator.from_views(x1, x2)
    base = residual.fro_norm()
    for k in range(5):
        z1, z2 = sol.directions[0][:, k], sol.directions[1][:, k]
        residual = residual.deflated(z1 / np.linalg.norm(z1), z2 / np.linalg.norm(z2))
    # the dense residual is ~1e-15 of the base here; the operator's norm must
    # stay at that level, far below the 1e-7 exhaustion threshold
    assert residual.fro_norm() <= 1e-12 * base


@pytest.mark.parametrize("level", [1e-3, 1e-6, 1e-9])
def test_exhaustion_screen_agrees_with_the_qr_check(monkeypatch, level):
    from scca import solve
    # a rank-5 cross block with its top five singular values taken out to
    # ``level`` of themselves: a residual whose norm is ``level`` of the base
    rng = np.random.default_rng(4)
    latent = rng.standard_normal((40, 5))
    x1 = center_scale(ViewMatrix(latent @ rng.standard_normal((5, 300)),
                                 [f"A{j}" for j in range(300)]))
    x2 = center_scale(ViewMatrix(latent @ rng.standard_normal((5, 200)),
                                 [f"B{j}" for j in range(200)]))
    op = CrossOperator.from_views(x1, x2)
    base = op.fro_norm()
    u, s, vt = np.linalg.svd(op.dense(), full_matrices=False)
    residual = CrossOperator(op.a, op.b, op.div, u[:, :5], s[:5] * (1.0 - level), vt[:5].T)
    qr = residual.fro_norm()
    assert qr == pytest.approx(level * base, rel=1e-3)

    real, calls = CrossOperator.fro_norm, []
    monkeypatch.setattr(CrossOperator, "fro_norm",
                        lambda self: calls.append(self) or real(self))
    assert solve._exhausted(residual, base) == (qr <= 1e-7 * base)
    # far above the screen's margin the Gram-form norm decides alone; near or
    # below it the QR check does
    assert len(calls) == (0 if level == 1e-3 else 1)


@pytest.mark.parametrize("n", [60, 8])
def test_gep_stage_two_matches_full_within_blocks(n):
    x1, x2 = _planted_views(n, 30, 24, seed=12, active=6)
    op = CrossOperator.from_views(x1, x2)
    g1, g2 = 0.3 * op.T.col_norms().max(), 0.3 * op.col_norms().max()
    ref, warnings = _dense_fit(x1, x2, g1, g2, 2, stage2="gep")
    sol = fit_pair(x1, x2, g1, g2, factors=2, stage2="gep")
    assert sol.normalization == "cov"
    assert [w for w in sol.warnings if "ridge" in w] == list(warnings)
    if n == 60:
        _assert_same_fit(sol, ref, atol=1e-10)
        assert not warnings
        return
    # n=8 leaves the shrunken within-view blocks singular: both paths retry
    # with the automatic ridge (1e-8 of the mean variance), which amplifies
    # rounding differences in the directions too far to compare them
    assert warnings
    for k, (rho, _z1, _z2, bits1, bits2) in enumerate(ref):
        assert sol.patterns[0][k].bits.tolist() == bits1.tolist()
        assert sol.patterns[1][k].bits.tolist() == bits2.tolist()
        assert abs(sol.correlations[k] - rho) <= 1e-6


def test_wide_fit_never_forms_the_cross_block():
    p1, p2 = 3000, 2000
    x1, x2 = _planted_views(20, p1, p2, seed=5, active=100)
    op = CrossOperator.from_views(x1, x2)
    g1, g2 = 0.3 * op.T.col_norms().max(), 0.3 * op.col_norms().max()
    tracemalloc.start()
    try:
        sol = fit_pair(x1, x2, g1, g2, factors=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.factor_count == 2
    assert peak < p1 * p2 * 8 / 4


@pytest.mark.parametrize("header", [True, False])
def test_load_view_fast_path_is_bit_identical(tmp_path, header):
    rng = np.random.default_rng(31)
    values = rng.standard_normal((25, 7)) * 10.0 ** rng.integers(-8, 8, size=(25, 7))
    lines = [",".join(repr(float(x)) for x in row) for row in values]
    text = "\n".join(([",".join(f"c{j}" for j in range(7))] if header else []) + lines)
    path = tmp_path / "v.csv"
    path.write_text(text + "\n")
    view = load_view(path)
    reference = _parse_cells(lines, ",", 7, first_line=1)
    assert view.data.tobytes() == reference.tobytes()
    assert view.data.tobytes() == values.tobytes()
    assert view.names == ([f"c{j}" for j in range(7)] if header else
                          [f"V{j + 1}" for j in range(7)])


def test_load_view_blank_row_keeps_line_number(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    with pytest.raises(ParseError) as err:
        load_view(path)
    assert err.value.line == 3
