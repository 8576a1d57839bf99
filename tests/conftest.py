"""Shared helpers: data builders, a dense stage-two reference, serial
permutation-refit and cross-validation references and the monotone-trace
assertion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import scca
from scca import (DegenerateInputError, EmptySupportError, SingularityError, ViewMatrix,
                  cca_gep, center_scale, fit_pair, pearson, power_svd)
from scca.covariance import standardize


def no_children() -> bool:
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter on this checkout's package, with
    no BLAS thread variable set, and require it to exit 0."""
    src = str(Path(scca.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert proc.returncode == 0, proc.stderr


def make_views(n, p1, p2, seed=0):
    """Centered Gaussian views."""
    rng = np.random.default_rng(seed)
    d1 = rng.standard_normal((n, p1))
    d2 = rng.standard_normal((n, p2))
    d1 -= d1.mean(axis=0)
    d2 -= d2.mean(axis=0)
    v1 = ViewMatrix(d1, [f"A{j}" for j in range(p1)], centered=True)
    v2 = ViewMatrix(d2, [f"B{j}" for j in range(p2)], centered=True)
    return v1, v2


def whiten(data: np.ndarray) -> np.ndarray:
    """Centered data transformed so the divisor-n covariance is the identity."""
    data = data - data.mean(axis=0)
    cov = data.T @ data / data.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    return data @ inv_root


def whitened_views(n, p1, p2, seed=0):
    """Centered views with exact identity within-view covariance (divisor n)."""
    rng = np.random.default_rng(seed)
    d1 = whiten(rng.standard_normal((n, p1)))
    d2 = whiten(rng.standard_normal((n, p2)))
    v1 = ViewMatrix(d1, [f"A{j}" for j in range(p1)], centered=True)
    v2 = ViewMatrix(d2, [f"B{j}" for j in range(p2)], centered=True)
    return v1, v2


def orthonormal_columns(n, p, rng) -> np.ndarray:
    """Centered matrix with exactly orthonormal columns (X'X = I)."""
    raw = rng.standard_normal((n, p + 1))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    cols = q[:, 1:p + 1]
    cols -= cols.mean(axis=0)
    q2, _ = np.linalg.qr(cols)
    return q2


def classical_correlations(c11, c12, c22) -> np.ndarray:
    """Whitened-SVD canonical correlations (the closed-form oracle)."""
    w1 = scipy.linalg.fractional_matrix_power(c11, -0.5).real
    w2 = scipy.linalg.fractional_matrix_power(c22, -0.5).real
    return np.linalg.svd(w1 @ c12 @ w2, compute_uv=False)


def dense_stage_two(block, c11, c22, stage2, ix1, ix2, p1, p2):
    """Reference stage two of one two-view factor on explicit shrunken blocks:
    power_svd or cca_gep called directly, the GEP retried once with a ridge of
    1e-8 of the mean active variance, the active entries expanded to length
    p1/p2 and the pair flipped so z1's first non-zero entry is positive.
    Returns (z1, z2, warnings)."""
    warnings = ()
    if stage2 == "svd":
        u, v, _sigma = power_svd(block)
        a1, a2 = u.values, v.values
    else:
        try:
            sol = cca_gep(c11, block, c22, factors=1)
        except SingularityError:
            ridge = max(1e-8 * (np.trace(c11) / c11.shape[0]
                                + np.trace(c22) / c22.shape[0]) / 2, 1e-12)
            sol = cca_gep(c11, block, c22, ridge=ridge, factors=1)
            warnings = (f"singular within-view covariance: applied ridge {ridge:.3e}",)
        a1, a2 = sol.directions[0][:, 0], sol.directions[1][:, 0]
    z1, z2 = np.zeros(p1), np.zeros(p2)
    z1[ix1], z2[ix2] = a1, a2
    if z1[np.flatnonzero(z1)[0]] < 0:
        z1, z2 = -z1, -z2
    return z1, z2, warnings


def serial_perm_refits(x1, x2, g1, g2, perms, cfg):
    """Reference permutation refits, one ``fit_pair`` per column of ``perms``
    on views centred (and scaled) once, view 1's rows permuted by the column.
    Returns, per permutation, (|rho|, tau1 bits, tau2 bits), or None where
    the refit failed."""
    c1, c2 = center_scale(x1, scale=cfg.scale), center_scale(x2, scale=cfg.scale)
    out = []
    for perm in perms.T:
        try:
            sol = fit_pair(ViewMatrix(c1.data[perm], c1.names, centered=True), c2, g1, g2,
                           penalty=cfg.penalty, stage2=cfg.stage2, order=cfg.order)
        except (EmptySupportError, DegenerateInputError):
            out.append(None)
            continue
        out.append((abs(float(sol.correlations[0])), sol.patterns[0][0].bits,
                    sol.patterns[1][0].bits))
    return out


def serial_cv_cell(x1, x2, g1, g2, folds, cfg):
    """Reference cross-validation of one grid cell, one ``fit_pair`` per fold
    on the fold's training rows centred (and scaled) on their own, the
    held-out rows mapped by the training means and sds. Returns the per-fold
    held-out correlations and the flags, worded as ``cv_tune`` words them."""
    rhos, flags = np.zeros(len(folds)), []
    for k, hold in enumerate(folds):
        train = np.setdiff1d(np.arange(x1.n), hold)
        d1, mu1, sd1, _ = standardize(x1.data[train], cfg.scale)
        d2, mu2, sd2, _ = standardize(x2.data[train], cfg.scale)
        try:
            sol = fit_pair(ViewMatrix(d1, x1.names, centered=True),
                           ViewMatrix(d2, x2.names, centered=True), g1, g2,
                           penalty=cfg.penalty, stage2=cfg.stage2, order=cfg.order)
        except (EmptySupportError, DegenerateInputError) as err:
            flags.append(f"fold {k + 1}: fit failed ({err}); rho recorded as 0")
            continue
        rho, degenerate = pearson(((x1.data[hold] - mu1) / sd1) @ sol.directions[0][:, 0],
                                  ((x2.data[hold] - mu2) / sd2) @ sol.directions[1][:, 0])
        if degenerate:
            flags.append(f"fold {k + 1}: degenerate held-out covariate; rho recorded as 0")
        rhos[k] = rho
    return rhos, flags


def assert_monotone(trace, tol=1e-12, label="objective"):
    trace = np.asarray(trace, dtype=float)
    if trace.size < 2:
        return
    floor = -tol * np.maximum(1.0, np.abs(trace[:-1]))
    diffs = np.diff(trace)
    assert np.all(diffs >= floor), (
        f"{label} decreased by {diffs.min():.3e} at step {int(np.argmin(diffs))}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
