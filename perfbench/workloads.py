"""Workloads: seeded inputs, the CLI steps each one runs, and output summaries.

Inputs are a rank-two planted signal plus N(0, 1) noise, written as CSV by
this file rather than by the package, so a change to the package's writer
cannot change what is measured. Sparsity parameters are fractions of the
generated data's cross-covariance norm scale (the largest row or column norm
of X1'X2/n on standardised views, which is what the CLI fits on), so a grid
point means the same thing at every seed.

``make_inputs`` runs in the benchmark's parent process; ``Workload.steps``
runs in the worker process between timed CLI calls; ``summarize`` reads the
outputs back for the output check. Summaries hold only JSON types, so that
references recorded from one commit compare against runs of another.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

AMPLITUDES = (2.0, 1.5)  # planted loading of each factor on its coordinates
PLANTED = 40           # coordinates per planted factor and view
PERM_FRACTIONS = (0.25, 0.35, 0.45)
CV_FRACTIONS = (0.40, 0.45, 0.50, 0.55, 0.60)
FIT_FRACTION = 0.3
MSCCA_FRACTION = 0.35
DSCCA_FRACTION = 0.3
DSCCA_MODES = ("stacked", "dot", "reg", "two-stage")

Step = tuple[str, list[str]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at full and smoke (harness self-test) size."""

    name: str
    tag: int                          # separates the input streams of workloads
    full: dict
    smoke: dict
    accessory: bool
    step_names: tuple[str, ...]
    params: Callable[[list[np.ndarray], np.ndarray | None, dict], dict]
    steps: Callable[[Path, dict], Iterator[Step]]
    perm_step: str | None = None      # step re-run with --jobs 2 in the traced run

    def sizes(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full


def _standardize(x: np.ndarray) -> np.ndarray:
    c = x - x.mean(axis=0)
    return c / c.std(axis=0, ddof=1)


def _cross_norms(a: np.ndarray, b: np.ndarray, chunk: int = 512):
    """Row and column norms of a'b/n, formed a column chunk at a time so the
    parent never holds a full p1 x p2 block."""
    n = a.shape[0]
    rows = np.zeros(a.shape[1])
    cols = np.empty(b.shape[1])
    for start in range(0, b.shape[1], chunk):
        block = a.T @ b[:, start:start + chunk] / n
        sq = block * block
        rows += sq.sum(axis=1)
        cols[start:start + chunk] = np.sqrt(sq.sum(axis=0))
    return np.sqrt(rows), cols


def _scale(x1: np.ndarray, x2: np.ndarray) -> tuple[float, float]:
    rows, cols = _cross_norms(_standardize(x1), _standardize(x2))
    return float(rows.max()), float(cols.max())


def _generate(seed: int, tag: int, n: int, ps, accessory: bool):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))
    # whitened latents and fixed, unequal amplitudes: with raw draws the second
    # factor came out too weak to fit at some seeds, and with equal amplitudes
    # the two factors tied and mscca's stage one mixed them
    draws = rng.standard_normal((n, 2))
    latent = np.linalg.qr(draws - draws.mean(axis=0))[0] * np.sqrt(n)
    views = []
    for p in ps:
        k = min(PLANTED, p // 4)      # smoke sizes have fewer coordinates
        signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
        loadings = np.zeros((p, 2))
        loadings[:k, 0] = AMPLITUDES[0] * signs
        loadings[k:2 * k, 1] = AMPLITUDES[1] * signs
        views.append(latent @ loadings.T + rng.standard_normal((n, p)))
    y = latent[:, 0] + rng.standard_normal(n) if accessory else None
    return views, y


def _write_csv(path: Path, data: np.ndarray, names: list[str]) -> None:
    lines = [",".join(names)]
    lines += [",".join(map(repr, row)) for row in data.tolist()]
    path.write_text("\n".join(lines) + "\n")


def make_inputs(workload: Workload, seed: int, directory: Path, smoke: bool = False) -> dict:
    """Generate and write one workload's inputs; returns its step parameters."""
    sizes = workload.sizes(smoke)
    views, y = _generate(seed, workload.tag, sizes["n"], sizes["ps"], workload.accessory)
    for i, view in enumerate(views):
        _write_csv(directory / f"x{i + 1}.csv", view,
                   [f"v{i + 1}_{j + 1}" for j in range(view.shape[1])])
    if y is not None:
        _write_csv(directory / "y.csv", y[:, None], ["y"])
    params = workload.params(views, y, sizes)
    (directory / "params.json").write_text(json.dumps(params))
    return params


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


PAIR = ["--x1", "x1.csv", "--x2", "x2.csv"]


# -- tune-pipeline ---------------------------------------------------------

def _tune_params(views, _y, sizes) -> dict:
    r, c = _scale(views[0], views[1])
    return {"perm_grid": [[f * r for f in PERM_FRACTIONS], [f * c for f in PERM_FRACTIONS]],
            "cv_grid": [[f * r for f in CV_FRACTIONS], [f * c for f in CV_FRACTIONS]],
            "permutations": sizes["permutations"], "folds": sizes["folds"]}


def _tune_steps(d: Path, p: dict) -> Iterator[Step]:
    g1, g2 = p["perm_grid"]
    yield "tune_perm", ["tune", *PAIR, "--gamma1-grid", _floats(g1), "--gamma2-grid",
                        _floats(g2), "--permutations", str(p["permutations"]),
                        "--out", "out/tune_perm"]
    g1, g2 = p["cv_grid"]
    yield "tune_cv", ["tune", "--method", "cv", "--folds", str(p["folds"]), *PAIR,
                      "--gamma1-grid", _floats(g1), "--gamma2-grid", _floats(g2),
                      "--out", "out/tune_cv"]
    chosen = json.loads((d / "out/tune_perm/tune.json").read_text())["report"]["chosen"]
    yield "fit", ["scca", *PAIR, "--gamma1", repr(chosen["gamma1"]), "--gamma2",
                  repr(chosen["gamma2"]), "--factors", "2", "--out", "out/fit"]
    yield "report", ["report", "--solution", "out/fit/solution.json", "--views",
                     "x1.csv", "x2.csv", "--kind", "biplot", "--out", "out/report"]


# -- fit-wide --------------------------------------------------------------

def _fit_params(views, _y, _sizes) -> dict:
    r, c = _scale(views[0], views[1])
    return {"gamma": [FIT_FRACTION * r, FIT_FRACTION * c]}


def _fit_steps(_d: Path, p: dict) -> Iterator[Step]:
    g1, g2 = p["gamma"]
    yield "fit", ["scca", *PAIR, "--gamma1", repr(g1), "--gamma2", repr(g2),
                  "--factors", "2", "--out", "out/fit"]


# -- mscca-wide ------------------------------------------------------------

def _mscca_params(views, _y, _sizes) -> dict:
    z = [_standardize(v) for v in views]
    m = len(z)
    summed = [np.zeros(v.shape[1]) for v in z]
    for r in range(m):
        for s in range(r + 1, m):
            rows, cols = _cross_norms(z[r], z[s])
            summed[r] += rows
            summed[s] += cols
    gamma = [[0.0] * m for _ in range(m)]
    for s in range(m):
        share = MSCCA_FRACTION * float(summed[s].max()) / (m - 1)
        for r in range(m):
            if r != s:
                gamma[s][r] = share
    return {"gamma_matrix": gamma}


def _mscca_steps(_d: Path, p: dict) -> Iterator[Step]:
    yield "mscca", ["mscca", "--views", "x1.csv", "x2.csv", "x3.csv", "--gamma-matrix",
                    json.dumps(p["gamma_matrix"]), "--stage2", "power", "--out", "out/mscca"]


# -- dscca-modes -----------------------------------------------------------

def _dscca_params(views, y, _sizes) -> dict:
    r, c = _scale(views[0], views[1])
    # stacked mode thresholds |root(C~) v + 2 X~'y|, whose scale is set by the
    # offsets 2 X_i'y on the standardised views
    yc = y - y.mean()
    o1, o2 = (float(np.abs(2.0 * _standardize(v).T @ yc).max()) for v in views)
    gamma = [DSCCA_FRACTION * r, DSCCA_FRACTION * c]
    return {"gamma": {"stacked": [DSCCA_FRACTION * o1, DSCCA_FRACTION * o2],
                      "dot": gamma, "reg": gamma, "two-stage": gamma}}


def _dscca_steps(_d: Path, p: dict) -> Iterator[Step]:
    for mode in DSCCA_MODES:
        g1, g2 = p["gamma"][mode]
        yield f"dscca_{mode}", ["dscca", *PAIR, "--y", "y.csv", "--mode", mode,
                                "--gamma1", repr(g1), "--gamma2", repr(g2),
                                "--out", f"out/dscca_{mode}"]


# Why each workload exists: the "why" lines of BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="tune-pipeline",
        tag=1, full={"n": 50, "ps": (500, 400), "permutations": 100, "folds": 10},
        smoke={"n": 24, "ps": (40, 30), "permutations": 5, "folds": 3},
        accessory=False, step_names=("tune_perm", "tune_cv", "fit", "report"),
        params=_tune_params, steps=_tune_steps, perm_step="tune_perm"),
    Workload(
        name="fit-wide",
        tag=2, full={"n": 100, "ps": (5000, 4000)}, smoke={"n": 20, "ps": (60, 50)},
        accessory=False, step_names=("fit",), params=_fit_params, steps=_fit_steps),
    Workload(
        name="mscca-wide",
        tag=3, full={"n": 50, "ps": (5000, 4000, 6000)}, smoke={"n": 20, "ps": (50, 40, 60)},
        accessory=False, step_names=("mscca",), params=_mscca_params, steps=_mscca_steps),
    Workload(
        name="dscca-modes",
        tag=4, full={"n": 100, "ps": (1500, 1200)}, smoke={"n": 20, "ps": (30, 25)},
        accessory=True, step_names=tuple(f"dscca_{m}" for m in DSCCA_MODES),
        params=_dscca_params, steps=_dscca_steps),
)}


# -- output summaries for the check ----------------------------------------

def _digest(bits) -> str:
    text = "".join("1" if b else "0" for b in bits)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _perm_cell(trace: list[float], p_value) -> dict | None:
    """A perm cell's permutation refits: how many were recorded as rho 0 (the
    refit failed) and the sorted rest. None where the matched fit failed and
    no permutation ran."""
    if p_value is None:
        return None
    return {"zero": sum(v == 0.0 for v in trace), "rhos": sorted(v for v in trace if v != 0.0)}


def _tune_summary(doc: dict) -> dict:
    report = doc["report"]
    scores, traces = report["scores"], report["traces"]
    if report["mode"] == "cv":
        return {"chosen_index": report["chosen_index"], "cv_rho": scores,
                "fold_rhos": traces}
    return {"chosen_index": report["chosen_index"], "p_values": scores,
            "matched_rho": [[None if v != v else v for v in row]     # NaN: matched fit failed
                            for row in report["matched_rho"]],
            "permutations": [[_perm_cell(t, p) for t, p in zip(trace_row, score_row)]
                             for trace_row, score_row in zip(traces, scores)]}


def _solution_summary(doc: dict) -> dict:
    out = {"factors": len(doc["factors"]),
           "support_sizes": [[sum(bits) for bits in f["patterns"]] for f in doc["factors"]],
           "supports": [[_digest(bits) for bits in f["patterns"]] for f in doc["factors"]],
           "correlations": [f["correlation"] for f in doc["factors"]]}
    if "pairwise_correlations" in doc:
        out["pairwise_correlations"] = doc["pairwise_correlations"]
    return out


def _biplot_summary(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    coords = [[k, float(r["axis1"]), float(r["axis2"])] for k, r in enumerate(rows)
              if r["kind"] == "variable" and (float(r["axis1"]) or float(r["axis2"]))]
    return {"rows": len(rows), "variable_correlations": coords}


def summarize(step: str, directory: Path, exit_code: int, stderr: str) -> dict:
    """What the output check compares for one step: the exit code, the first
    error line when it failed, and the step's results when it succeeded."""
    if exit_code != 0:
        lines = stderr.strip().splitlines()
        return {"exit": exit_code, "error": lines[-1] if lines else ""}
    out = directory / "out" / step
    if step.startswith("tune_"):
        summary = _tune_summary(json.loads((out / "tune.json").read_text()))
    elif step == "report":
        summary = _biplot_summary(out / "biplot.csv")
    else:
        summary = _solution_summary(json.loads((out / "solution.json").read_text()))
    summary["exit"] = 0
    return summary


def sweep_fits(summary: dict) -> int:
    """Fits a tuning step made, counted from its output: one per CV fold and
    cell; one matched fit per perm cell plus the permutations it ran."""
    if "fold_rhos" in summary:
        return sum(len(folds) for row in summary["fold_rhos"] for folds in row)
    cells = [c for row in summary["permutations"] for c in row]
    return len(cells) + sum(c["zero"] + len(c["rhos"]) for c in cells if c is not None)


def perm_cells(summary: dict) -> dict:
    """Per perm cell: the p-value and the share of permutation refits that
    failed (rho recorded as 0), for the report."""
    return {"p_values": summary["p_values"],
            "refit_fail_frac": [[None if c is None else c["zero"] / (c["zero"] + len(c["rhos"]))
                                 for c in row] for row in summary["permutations"]]}
