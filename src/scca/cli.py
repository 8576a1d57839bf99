"""Command-line entry point wiring ingestion, solvers, tuning and reports.

Subcommands: scca, mscca, dscca, tune, simulate, report. Options resolve
with flags winning over an optional JSON --config file, which wins over
built-in defaults; every run echoes its resolved configuration into the
output so identical inputs and config (and, for tune and simulate, seed)
give byte-identical files.
Exit codes: 0 success, 1 usage or I/O failure, 2 degenerate solution.

Every subcommand runs with each loaded OpenBLAS at one thread
(``cores.one_blas_thread``), so its output bytes do not depend on the CPU
count, and it spends less CPU time: a second BLAS thread cut a wide fit's
time by less than it added in CPU. A command's parallel work comes only
from its own forks (the loader's parsers and the tuning sweeps).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, cores, jsontext
from .covariance import (SparsityPattern, ViewMatrix, center_scale_owned,
                         load_view, load_views, write_view)
from .directed import (AccessoryVector, DirectedParams, UnivariateSelector,
                       directed_fit, directed_stacked_fit, directed_two_stage)
from .errors import (DegenerateInputError, EmptySupportError,
                     InsufficientFactorsError, SccaError)
from .multiview import GammaMatrix, multiview_scca
from .pattern import ConvergenceSpec
from .report import biplot_coords, interp_coords, write_report
from .simulate import (NoiseSweepSpec, RankOneSpec, StabilitySweepSpec,
                       gen_null, gen_rank_one, gen_rank_one_threeview, sweep)
from .solve import CcaSolution, fit_pair
from .tuning import FitConfig, TuneGrid, cv_tune, perm_tune


def _floats(value) -> list[float]:
    """A comma-separated flag value, or a JSON array from --config, as floats."""
    if isinstance(value, str):
        return [float(tok) for tok in value.split(",") if tok.strip() != ""]
    if not isinstance(value, list):
        raise ValueError(f"expected comma-separated numbers or a JSON array, got {value!r}")
    return [float(v) for v in value]


def _load_config(args) -> dict:
    """The --config file's options; a key must name one of the subcommand's
    optional flags (dashes or underscores), or the run exits 1."""
    if not args.config:
        return {}
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise ValueError("--config must hold a JSON object")
    for key in doc:
        if key.replace("-", "_") not in args.config_keys:
            raise ValueError(f"--config key {key!r} is not an option of {args.command}")
    return {key.replace("-", "_"): value for key, value in doc.items()}


def _opt(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    return value


def _conv(resolved: dict) -> ConvergenceSpec:
    return ConvergenceSpec(tol=resolved["tol"], max_iter=resolved["max_iter"])


def _gamma_matrix(spec, m: int, gamma1: float, gamma2: float) -> GammaMatrix:
    """The gamma matrix from a flag (JSON text, which starts with '[', or the
    path of a JSON file) or from --config (a JSON array)."""
    if spec is None:
        if m != 2:
            raise ValueError("--gamma-matrix is required for more than two views")
        return GammaMatrix.for_pair(gamma1, gamma2)
    if isinstance(spec, str):
        spec = json.loads(spec if spec.lstrip().startswith("[") else Path(spec).read_text())
    values = np.asarray(spec, dtype=float)
    if values.shape != (m, m):
        raise ValueError(f"gamma matrix must be {m}x{m}")
    return GammaMatrix(values)


def _solution_dict(sol: CcaSolution, view_names: list[list[str]], seed: int | None,
                   config: dict) -> dict:
    """The solution file's document; its metadata records ``seed`` only when
    it is not None (the fits draw nothing at random, so they pass None)."""
    factors = []
    for k in range(sol.factor_count):
        iterations = {}
        if k < len(sol.iterations):
            iterations = {key: val for key, val in sol.iterations[k].items()
                          if isinstance(val, (int, float, str))}
        factors.append({
            "index": k + 1,
            "correlation": float(sol.correlations[k]),
            "directions": [d[:, k].tolist() for d in sol.directions],
            "patterns": ([p[k].bits.tolist() for p in sol.patterns]
                         if sol.patterns is not None else None),
            "iterations": iterations,
        })
    metadata = {"tool_version": __version__, "config": config}
    if seed is not None:
        metadata["seed"] = seed
    doc = {
        "format": "scca-solution",
        "version": 1,
        "metadata": metadata,
        "normalization": sol.normalization,
        "views": [{"index": i + 1, "variables": names}
                  for i, names in enumerate(view_names)],
        "factors": factors,
        "warnings": list(sol.warnings),
    }
    if sol.pairwise_correlations is not None:
        doc["pairwise_correlations"] = [m.tolist() for m in sol.pairwise_correlations]
    return doc


def load_solution(path) -> tuple[CcaSolution, list[list[str]], dict]:
    """Reload a solution JSON written by this tool."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "scca-solution":
        raise ValueError(f"{path} is not a solution file")
    view_names = [view["variables"] for view in doc["views"]]
    n_views = len(view_names)
    factors = doc["factors"]
    directions = [np.column_stack([np.asarray(f["directions"][i], dtype=float)
                                   for f in factors]) for i in range(n_views)]
    patterns = None
    if factors and factors[0].get("patterns") is not None:
        patterns = [[SparsityPattern(np.asarray(f["patterns"][i], dtype=bool))
                     for f in factors] for i in range(n_views)]
    sol = CcaSolution(
        directions=directions,
        correlations=np.array([f["correlation"] for f in factors]),
        factor_count=len(factors),
        normalization=doc["normalization"],
        patterns=patterns,
        warnings=tuple(doc.get("warnings", ())))
    return sol, view_names, doc["metadata"].get("config", {})


def _write_json(doc: dict, path: Path) -> Path:
    path.write_text(jsontext.dumps(doc) + "\n")
    return path


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _view_warnings(views: list[ViewMatrix]) -> tuple[str, ...]:
    """What loading and scaling the views reported (constant columns zeroed),
    each naming its view."""
    return tuple(f"view {i + 1}: {w}" for i, view in enumerate(views) for w in view.warnings)


def _print_warnings(warnings) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _finish_fit(sol: CcaSolution, views: list[ViewMatrix], resolved: dict,
                echo: dict) -> int:
    """Write solution.json with the views' and the fit's warnings, print them
    to stderr and the path to stdout."""
    sol = replace(sol, warnings=_view_warnings(views) + sol.warnings)
    path = _write_json(_solution_dict(sol, [v.names for v in views], None, echo),
                       _out_dir(resolved) / "solution.json")
    _print_warnings(sol.warnings)
    print(path)
    return 0


def _load_centered(paths: list[str], delimiter, scale: bool) -> list[ViewMatrix]:
    # the loaded views are this call's own, so they are centred in place
    return [center_scale_owned(view, scale=scale) for view in load_views(paths, delimiter)]


def _load_accessory(path: str, delimiter=None) -> AccessoryVector:
    view = load_view(path, delimiter=delimiter)
    if view.p != 1:
        raise ValueError("accessory file must hold a single column")
    return AccessoryVector(view.data[:, 0]).center()


_DSCCA_MODES = ("dot", "reg", "stacked", "two-stage")
_TUNE_METHODS = ("cv", "perm")

# stage-two back-ends of the subcommands that have a stage two; the first is the default
_STAGE2 = {"scca": ("svd", "gep"), "mscca": ("power", "gep"), "dscca": ("svd", "gep"),
           "tune": ("svd", "gep")}


# shared options: key -> (default, conversion of a set value or None, flag keywords)
_SHARED_FLAGS = {
    "penalty": ("l1", None, dict(choices=["l1", "l0"])),
    "gamma1": (0.0, float, dict(type=float)),
    "gamma2": (0.0, float, dict(type=float)),
    "tol": (1e-8, float, dict(type=float)),
    "max_iter": (10000, int, dict(type=int)),
    "seed": (0, int, dict(type=int, help="seed of the resamples (tune) or of the data "
                          "(simulate)")),
    "scale": (True, bool, dict(action=argparse.BooleanOptionalAction, default=None)),
    "delimiter": (None, None, {}),
}
_FIT_FLAGS = tuple(key for key in _SHARED_FLAGS if key != "seed")
# the shared options each subcommand reads; every one also takes --config and
# --out, and the ones in _STAGE2 take --stage2. The fits draw nothing at
# random, so they take no --seed, and mscca's stage one is l1 only
_SHARED = {"scca": _FIT_FLAGS, "dscca": _FIT_FLAGS,
           "mscca": tuple(key for key in _FIT_FLAGS if key != "penalty"),
           "tune": ("penalty", "tol", "max_iter", "seed", "scale", "delimiter"),
           "simulate": ("penalty", "tol", "max_iter", "seed"),
           "report": ("delimiter",)}


def _common(p: argparse.ArgumentParser, command: str):
    p.add_argument("--config", help="JSON file with option defaults (flags win)")
    for key in _SHARED[command]:
        p.add_argument("--" + key.replace("_", "-"), dest=key, **_SHARED_FLAGS[key][2])
    if command in _STAGE2:
        p.add_argument("--stage2", help="stage-two back-end: "
                       + " or ".join(_STAGE2[command]) + f" (default {_STAGE2[command][0]})")
    p.add_argument("--out")


def _resolve_common(args, config) -> dict:
    """The shared options the subcommand reads, each from its flag, else
    --config, else its default."""
    resolved = {"out": _opt(args, config, "out", ".")}
    for key in _SHARED[args.command]:
        default, convert, _ = _SHARED_FLAGS[key]
        value = _opt(args, config, key, default)
        resolved[key] = value if convert is None else convert(value)
    if not all(resolved.get(key, 0.0) >= 0 for key in ("gamma1", "gamma2")):
        raise ValueError("sparsity parameters must be non-negative")
    if resolved.get("tol", 1.0) <= 0 or resolved.get("max_iter", 1) < 1:
        raise ValueError("tol must be positive and max-iter at least 1")
    choices = _STAGE2.get(args.command)
    if choices:
        resolved["stage2"] = _opt(args, config, "stage2", None)
        if resolved["stage2"] not in (None, *choices):
            raise ValueError("--stage2 must be " + " or ".join(map(repr, choices)))
    return resolved


def _echo(resolved: dict, **extra) -> dict:
    """Effective configuration for the output file; the output directory is
    excluded so reruns elsewhere stay byte-identical."""
    echo = {k: v for k, v in resolved.items() if k != "out"}
    echo.update(extra)
    return echo


def cmd_scca(args, config: dict) -> int:
    r = _resolve_common(args, config)
    factors = int(_opt(args, config, "factors", 1))
    if factors < 1:
        raise ValueError("--factors must be at least 1")
    stage2 = r["stage2"] or "svd"
    x1, x2 = _load_centered([args.x1, args.x2], r["delimiter"], r["scale"])
    conv = _conv(r)
    sol = fit_pair(x1, x2, r["gamma1"], r["gamma2"], factors=factors,
                   penalty=r["penalty"], conv=conv, stage2=stage2)
    echo = _echo(r, factors=factors, stage2=stage2, x1=args.x1, x2=args.x2,
                 subcommand="scca")
    return _finish_fit(sol, [x1, x2], r, echo)


def cmd_mscca(args, config: dict) -> int:
    r = _resolve_common(args, config)
    stage2 = r["stage2"] or "power"
    views = _load_centered(args.views, r["delimiter"], r["scale"])
    gam = _gamma_matrix(_opt(args, config, "gamma_matrix", None) or args.gamma_matrix,
                        len(views), r["gamma1"], r["gamma2"])
    sol = multiview_scca(views, gam, conv=_conv(r), stage2=stage2)
    echo = _echo(r, stage2=stage2, views=list(args.views),
                 gamma_matrix=gam.values.tolist(), subcommand="mscca")
    return _finish_fit(sol, views, r, echo)


def cmd_dscca(args, config: dict) -> int:
    r = _resolve_common(args, config)
    mode = _opt(args, config, "mode", "dot")
    if mode not in _DSCCA_MODES:
        raise ValueError("mode must be dot, reg, stacked or two-stage")
    if mode != "two-stage" and r["penalty"] != "l1":
        raise ValueError("directed stage one is defined for the 'l1' penalty only")
    if mode == "stacked" and r["stage2"] is not None:
        raise ValueError("--stage2 does not apply to --mode stacked, which has no stage two")
    if mode != "two-stage" and _opt(args, config, "keep_fraction", None) is not None:
        raise ValueError("--keep-fraction applies only to --mode two-stage")
    if mode == "two-stage" and any(_opt(args, config, key, None) is not None
                                   for key in ("eps1", "eps2")):
        raise ValueError("--eps1 and --eps2 do not apply to --mode two-stage, "
                         "which screens against y instead of aligning with it")
    # the echo carries the weights that the mode reads
    if mode == "two-stage":
        weights = {"keep_fraction": float(_opt(args, config, "keep_fraction", 0.5))}
    else:
        weights = {key: float(_opt(args, config, key, 1.0)) for key in ("eps1", "eps2")}
    stage2 = r["stage2"] or "svd"
    x1, x2 = _load_centered([args.x1, args.x2], r["delimiter"], r["scale"])
    y = _load_accessory(args.y, r["delimiter"])
    if y.values.size != x1.n:
        raise ValueError("accessory length does not match the views")
    conv = _conv(r)
    if mode == "two-stage":
        sol = directed_two_stage(x1, x2, y, UnivariateSelector(weights["keep_fraction"]),
                                 r["gamma1"], r["gamma2"], penalty=r["penalty"], conv=conv,
                                 stage2=stage2)
    elif mode == "stacked":
        sol = directed_stacked_fit(x1, x2, y, DirectedParams(r["gamma1"], r["gamma2"], **weights),
                                   conv=conv)
    else:
        sol = directed_fit(x1, x2, y, DirectedParams(r["gamma1"], r["gamma2"], **weights),
                           mode=mode, conv=conv, stage2=stage2)
    echo = _echo(r, mode=mode, **weights, stage2=stage2,
                 x1=args.x1, x2=args.x2, y=args.y, subcommand="dscca")
    return _finish_fit(sol, [x1, x2], r, echo)


def cmd_tune(args, config: dict) -> int:
    r = _resolve_common(args, config)
    method = _opt(args, config, "method", "perm")
    if method not in _TUNE_METHODS:
        raise ValueError("method must be 'cv' or 'perm'")
    grids = []
    for key in ("gamma1_grid", "gamma2_grid"):
        grid = _opt(args, config, key, None)
        if grid is None:
            raise ValueError(f"--{key.replace('_', '-')} is required "
                             f"(the flag, or {key!r} in --config)")
        grids.append(_floats(grid))
    g1_grid, g2_grid = grids
    grid = TuneGrid(tuple(g1_grid), tuple(g2_grid),
                    folds=int(_opt(args, config, "folds", 5)),
                    permutations=int(_opt(args, config, "permutations", 100)),
                    seed=r["seed"])
    x1, x2 = load_views([args.x1, args.x2], r["delimiter"])
    cfg = FitConfig(penalty=r["penalty"], stage2=r["stage2"] or "svd",
                    scale=r["scale"])
    tune = cv_tune if method == "cv" else perm_tune
    report = tune(x1, x2, grid, conv=_conv(r), cfg=cfg, jobs=_opt(args, config, "jobs", None))
    echo = _echo(r, method=method, gamma1_grid=g1_grid, gamma2_grid=g2_grid,
                 subcommand="tune")
    doc = {"metadata": {"tool_version": __version__, "seed": r["seed"], "config": echo},
           "report": report.to_dict()}
    out = _out_dir(r)
    _write_json(doc, out / "tune.json")
    # each sweep standardizes the views itself; the warnings come from the whole views,
    # which are not read again
    _print_warnings(_view_warnings([center_scale_owned(x, scale=r["scale"]) for x in (x1, x2)]))
    print(out / "tune.json")
    return 0


def _parse_supports(spec):
    """Per-view (positive, negative) support counts: "pos:neg,..." from the
    flag, or from --config a JSON array of [pos, neg] pairs or "pos:neg"."""
    if spec is None:
        return None
    tokens = spec.split(",") if isinstance(spec, str) else spec
    pairs = []
    for token in tokens:
        pos, neg = token.split(":") if isinstance(token, str) else token
        pairs.append((int(pos), int(neg)))
    return tuple(pairs)


def cmd_simulate(args, config: dict) -> int:
    r = _resolve_common(args, config)
    model = _opt(args, config, "model", "pair")
    n = int(_opt(args, config, "n", 50))
    sigma = _opt(args, config, "sigma", None)
    sigmas = None if sigma is None else _floats(sigma)
    supports = _parse_supports(_opt(args, config, "supports", None))
    out = _out_dir(r)
    written = []
    if model == "pair":
        p = [int(v) for v in _floats(_opt(args, config, "p", "500,400"))]
        sig = tuple(sigmas) if sigmas else (0.2, 0.2)
        if len(sig) == 1:
            sig = (sig[0], sig[0])
        spec = RankOneSpec(p=tuple(p), n=n, sigma=sig, seed=r["seed"],
                           supports=supports)
        x1, x2, truths = gen_rank_one(spec)
        views = [x1, x2]
    elif model == "three":
        p = [int(v) for v in _floats(_opt(args, config, "p", "500,400,600"))]
        sig = tuple(sigmas) if sigmas else (0.2, 0.2, 0.1)
        spec = RankOneSpec(p=tuple(p), n=n, sigma=sig, seed=r["seed"],
                           supports=supports)
        views, truths = gen_rank_one_threeview(spec)
    elif model == "null":
        p = [int(v) for v in _floats(_opt(args, config, "p", "60,60"))]
        x1, x2 = gen_null(n, p[0], p[1], seed=r["seed"])
        views, truths = [x1, x2], None
    else:
        raise ValueError("model must be pair, three or null")
    for i, view in enumerate(views):
        written.append(write_view(view, out / f"x{i + 1}.csv"))
    if truths is not None:
        for i, truth in enumerate(truths):
            lines = ["name,value"]
            lines += [f"{views[i].names[j]},{repr(float(truth[j]))}"
                      for j in range(truth.size)]
            path = out / f"truth{i + 1}.csv"
            path.write_text("\n".join(lines) + "\n")
            written.append(path)

    sweep_kind = _opt(args, config, "sweep", None)
    if sweep_kind == "noise":
        table = sweep(NoiseSweepSpec(seed=r["seed"]), penalty=r["penalty"],
                      conv=_conv(r))
        written.append(table.write_csv(out / "sweep.csv"))
    elif sweep_kind == "stability":
        table = sweep(StabilitySweepSpec(seed=r["seed"]), penalty=r["penalty"],
                      conv=_conv(r))
        written.append(table.write_csv(out / "sweep.csv"))
    elif sweep_kind is not None:
        raise ValueError("sweep must be 'noise' or 'stability'")
    for path in written:
        print(path)
    return 0


def cmd_report(args, config: dict) -> int:
    r = _resolve_common(args, config)
    kind = _opt(args, config, "kind", "biplot")
    fmt = _opt(args, config, "format", "csv")
    sol, _names, fit_config = load_solution(args.solution)
    # the views are scaled as the fit scaled them: every solution this tool
    # writes records it, and scaling is the fits' default
    views = _load_centered(args.views, r["delimiter"], bool(fit_config.get("scale", True)))
    if kind == "biplot":
        data = biplot_coords(sol, views)
    elif kind == "interp":
        markers = int(_opt(args, config, "markers", 5))
        data = interp_coords(sol, views, markers_per_variable=markers)
    else:
        raise ValueError("kind must be 'biplot' or 'interp'")
    out = _out_dir(r)
    path = write_report(data, out / f"{kind}.{fmt}", format=fmt)
    _print_warnings(_view_warnings(views))
    print(path)
    return 0


def _config_keys(p: argparse.ArgumentParser) -> frozenset:
    """The keys a subcommand reads from --config: its optional flags but
    --config itself."""
    return frozenset(a.dest for a in p._actions
                     if a.option_strings and not a.required and a.dest not in ("help", "config"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scca",
        description="Two-stage sparse canonical correlation analysis toolkit")
    # no prefix matching: a flag a subcommand does not take is an error, never
    # a longer flag it does take (tune's --gamma1-grid for --gamma1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scca", help="sparse CCA on two views", allow_abbrev=False)
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--factors", type=int)
    _common(p, "scca")
    p.set_defaults(func=cmd_scca, config_keys=_config_keys(p))

    p = sub.add_parser("mscca", help="multi-view sparse CCA", allow_abbrev=False)
    p.add_argument("--views", nargs="+", required=True)
    p.add_argument("--gamma-matrix", dest="gamma_matrix")
    _common(p, "mscca")
    p.set_defaults(func=cmd_mscca, config_keys=_config_keys(p))

    p = sub.add_parser("dscca", help="directed sparse CCA", allow_abbrev=False)
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--mode", choices=_DSCCA_MODES)
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--keep-fraction", dest="keep_fraction", type=float)
    _common(p, "dscca")
    p.set_defaults(func=cmd_dscca, config_keys=_config_keys(p))

    p = sub.add_parser("tune", help="hyperparameter search", allow_abbrev=False)
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--method", choices=_TUNE_METHODS)
    p.add_argument("--gamma1-grid", dest="gamma1_grid")
    p.add_argument("--gamma2-grid", dest="gamma2_grid")
    p.add_argument("--folds", type=int)
    p.add_argument("--permutations", type=int)
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: one per usable CPU): --method cv "
                        "deals its folds out to them, perm its grid cells; each is "
                        "pinned to its own CPU with BLAS at one thread; --jobs 1, or "
                        "taskset to one CPU, runs the sweep in this process; the "
                        "report is the same for any count")
    _common(p, "tune")
    p.set_defaults(func=cmd_tune, config_keys=_config_keys(p))

    p = sub.add_parser("simulate", help="generate synthetic datasets", allow_abbrev=False)
    p.add_argument("--model", choices=["pair", "three", "null"])
    p.add_argument("--n", type=int)
    p.add_argument("--p")
    p.add_argument("--sigma")
    p.add_argument("--supports", help="planted pos:neg runs per view, e.g. 25:25,25:25")
    p.add_argument("--sweep", choices=["noise", "stability"])
    _common(p, "simulate")
    p.set_defaults(func=cmd_simulate, config_keys=_config_keys(p))

    p = sub.add_parser("report", help="emit plot coordinates from a solution", allow_abbrev=False)
    p.add_argument("--solution", required=True)
    p.add_argument("--views", nargs="+", required=True)
    p.add_argument("--kind", choices=["biplot", "interp"])
    p.add_argument("--format", choices=["csv", "json", "svg"])
    p.add_argument("--markers", type=int)
    _common(p, "report")
    p.set_defaults(func=cmd_report, config_keys=_config_keys(p))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _load_config(args)
        if _opt(args, config, "stage2", None) == "gep":
            # scipy brings its own OpenBLAS: load it before the cap, so that
            # the cap covers it too
            import scipy.linalg  # noqa: F401
        with cores.one_blas_thread():
            return args.func(args, config)
    except (EmptySupportError, DegenerateInputError, InsufficientFactorsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (SccaError, OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
