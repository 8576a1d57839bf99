"""Benchmark of the scca command line: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke                  # reduced sizes: checks the harness
    python3 perfbench/run.py --record-references      # rewrite references.json

Run it from the root of a checkout; it imports the package from ``src`` and
builds nothing. A run repeats passes until ``--seconds`` have gone by. Each
pass writes the workload's inputs (made from the seed), starts a fresh worker
process that runs the workload's CLI steps, and checks every step's output
against references.json. With ``--trace 1`` each pass runs the steps twice in
fresh processes, untraced and then traced, and reports per-layer metrics and
the tracing overhead. Every metric is the median over the run's passes.

Standard output lists every metric with its unit, then one JSON line with the
full report (machine facts, passes, checks), then, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH / "references.json"
REFERENCE_SEEDS = 32     # --seed selects input set (seed mod 32); each has references
TOLERANCE = 1e-6         # absolute, on every correlation the check compares
TOLERANT = {"correlations", "pairwise_correlations", "cv_rho", "fold_rhos", "matched_rho",
            "rhos", "variable_correlations"}
PASS_TIMEOUT = 170       # seconds one worker may take
LAST_START = 150         # no pass starts that would likely end after this many seconds
SWEEPS = {"perm_refits_per_s": "tune_perm", "cv_fits_per_s": "tune_cv"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# what a 50000 x 40000 cross block would take; computed, never allocated
LARGE_BLOCK = (50000, 40000)


class HarnessError(RuntimeError):
    """The benchmark itself could not run a pass."""


# -- machine facts ---------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded into this process."""
    lib = next((line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                if "openblas" in line.lower()), None)
    if lib is None:
        return None
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    cpuinfo = _read("/proc/cpuinfo").splitlines()
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        key = f"L{_read(index / 'level').strip()} {_read(index / 'type').strip()}"
        caches[key] = _read(index / "size").strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "ram_gb": round(mem_kb / 1024 ** 2, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": _blas_threads()},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "note": "the benchmark sets no thread environment variables; "
                "BLAS runs with its default thread count",
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# -- output check ----------------------------------------------------------

def mismatches(ref, act, path: str = "", tolerant: bool = False) -> list[str]:
    """Differences between a reference summary and a run's: exact everywhere
    except numbers under the TOLERANT keys, which may differ by TOLERANCE."""
    if isinstance(ref, dict):
        if not isinstance(act, dict) or set(ref) != set(act):
            return [f"{path}: keys {sorted(act) if isinstance(act, dict) else act!r} "
                    f"!= {sorted(ref)}"]
        return [m for key in ref
                for m in mismatches(ref[key], act[key], f"{path}.{key}", tolerant or key in TOLERANT)]
    if isinstance(ref, list):
        if not isinstance(act, list) or len(act) != len(ref):
            return [f"{path}: {act!r} has not the length of {ref!r}"]
        return [m for k, (r, a) in enumerate(zip(ref, act))
                for m in mismatches(r, a, f"{path}[{k}]", tolerant)]
    if (tolerant and isinstance(ref, float) and isinstance(act, (int, float))
            and not isinstance(act, bool)):
        return [] if abs(act - ref) <= TOLERANCE else [f"{path}: {act!r} vs {ref!r}"]
    return [] if act == ref else [f"{path}: {act!r} != {ref!r}"]


def check_step(ref: dict | None, summary: dict) -> list[str]:
    if ref is None:
        return []
    if ref["exit"] != 0 and summary["exit"] == 0:
        return []   # a step recorded as failing now succeeds: no output to compare with
    return mismatches(ref, summary)


# -- one pass --------------------------------------------------------------

def _spawn(name: str, directory: Path, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "worker.py"), name, str(directory), str(int(trace)),
           str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=directory, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"worker for {name} ran over {PASS_TIMEOUT} s") from err
    if proc.returncode != 0:
        raise HarnessError(f"worker for {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads((directory / "result.json").read_text())


def _outcomes(workload, directory: Path, result: dict, refs: dict | None) -> list[dict]:
    from workloads import summarize
    records = {r["step"]: r for r in result["steps"]}
    outcomes = []
    for step in workload.step_names:
        rec = records.get(step)
        if rec is None:
            outcomes.append({"step": step, "exit": None, "ok": False, "summary": None,
                             "mismatches": ["step did not run"]})
            continue
        try:
            summary = summarize(step, directory, rec["exit"], rec["stderr"])
        except (OSError, ValueError, KeyError) as err:
            summary, wrong = None, [f"unreadable output: {err!r}"]
        else:
            wrong = check_step(refs.get(step) if refs is not None else None, summary)
        outcomes.append({"step": step, "exit": rec["exit"], "wall_s": rec["wall_s"],
                         "ok": rec["exit"] == 0 and not wrong, "summary": summary,
                         "mismatches": wrong})
    return outcomes


def _end_to_end(gen_s: float, result: dict, outcomes: list) -> dict:
    from workloads import sweep_fits
    steps = {r["step"]: r for r in result["steps"]}
    by_step = {o["step"]: o for o in outcomes}
    walls = [o["wall_s"] for o in outcomes if "wall_s" in o]
    metrics = {
        "wall_s": sum(r["wall_s"] for r in result["steps"]),
        "cpu_s": sum(r["cpu_s"] for r in result["steps"]),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "setup_s": gen_s + result["setup_child_s"],
        "ok_frac": sum(o["ok"] for o in outcomes) / len(outcomes),
    }
    for metric, step in SWEEPS.items():
        if step in by_step:
            outcome = by_step[step]
            metrics[metric] = (sweep_fits(outcome["summary"]) / steps[step]["wall_s"]
                               if outcome["ok"] else 0.0)
        else:   # no tuning sweep in this workload: steps that ran, per second of their time
            metrics[metric] = len(walls) / sum(walls) if walls else 0.0
    return metrics


def _output_bytes(directory: Path, result: dict) -> int:
    files = sum(p.stat().st_size for p in (directory / "out").rglob("*") if p.is_file())
    streams = sum(len((r["stdout"] + r["stderr"]).encode()) for r in result["steps"])
    return files + streams


def _layer(workload, sizes: dict, directory: Path, plain: dict, traced: dict) -> dict:
    from tracing import layer_metrics
    spans = traced["spans"]
    parsed = sum((directory / s[4]["path"]).stat().st_size for s in spans
                 if s[0] == "load_view" and s[4] and "path" in s[4])
    ps = sizes["ps"]
    block_mb = sum(ps[r] * ps[s] * 8 for r in range(len(ps)) for s in range(r + 1, len(ps))) / 1e6
    stacked_mb = (sum(ps) ** 2 * 8 / 1e6) if workload.accessory else 0.0
    metrics = layer_metrics(spans, traced["probes"], parsed, block_mb, stacked_mb)
    probes = traced["probes"]
    if workload.perm_step is not None:
        serial = next((r["wall_s"] for r in plain["steps"] if r["step"] == workload.perm_step), 0.0)
        metrics["tuning.jobs2_speedup"] = (serial / probes["jobs2_wall_s"]
                                           if "jobs2_wall_s" in probes else 0.0)
    else:
        metrics["tuning.jobs2_speedup"] = 0.0
    metrics["cli.output_bytes"] = float(plain["output_bytes"])
    metrics["trace.overhead_s"] = (sum(r["wall_s"] for r in traced["steps"])
                                   - sum(r["wall_s"] for r in plain["steps"]))
    return metrics


def run_pass(workload, input_seed: int, directory: Path, trace: bool, smoke: bool,
             refs: dict | None, edit_params=None) -> dict:
    """Write inputs, run the steps untraced (and traced), check every output.
    ``edit_params`` changes the step parameters after the inputs are written
    (the smoke mode uses it to make a step fail)."""
    from tracing import layer_self_times, self_times
    from workloads import make_inputs, perm_cells, summarize
    directory.mkdir(parents=True)
    start = time.perf_counter()
    params = make_inputs(workload, input_seed, directory, smoke)
    gen_s = time.perf_counter() - start
    if edit_params is not None:
        (directory / "params.json").write_text(json.dumps(edit_params(params)))
    plain = _spawn(workload.name, directory, trace=False)
    outcomes = _outcomes(workload, directory, plain, refs)
    plain["output_bytes"] = _output_bytes(directory, plain)
    record = {"gen_s": gen_s, "outcomes": outcomes, "gemm_gflops": plain["gemm_gflops"],
              "end_to_end": _end_to_end(gen_s, plain, outcomes),
              "step_walls": {r["step"]: r["wall_s"] for r in plain["steps"]}}
    perm = next((o["summary"] for o in outcomes if o["step"] == workload.perm_step and o["ok"]),
                None)
    if perm is not None:
        record["perm_cells"] = perm_cells(perm)
    if trace:
        shutil.rmtree(directory / "out", ignore_errors=True)
        traced = _spawn(workload.name, directory, trace=True)
        record["traced_outcomes"] = _outcomes(workload, directory, traced, refs)
        # tracing must not change results; the parallel perm sweep must match the serial one
        untraced = {o["step"]: o["summary"] for o in outcomes}
        extra = [f"traced {o['step']}: " + m for o in record["traced_outcomes"]
                 for m in mismatches(untraced[o["step"]], o["summary"])]
        if workload.perm_step is not None:
            try:
                jobs2 = summarize(workload.perm_step, directory / "probe",
                                  traced["probes"]["jobs2_exit"], "")
            except (OSError, ValueError, KeyError) as err:
                jobs2 = f"unreadable output: {err!r}"
            extra += [f"--jobs 2 {workload.perm_step}: " + m
                      for m in mismatches(untraced[workload.perm_step], jobs2)]
        record["trace_mismatches"] = extra
        record["per_layer"] = _layer(workload, workload.sizes(smoke), directory, plain, traced)
        record["self_s"] = {"by_layer": layer_self_times(traced["spans"]),
                            "by_call": self_times(traced["spans"])}
    shutil.rmtree(directory)
    return record


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 refs: dict | None = None, edit_params=None) -> list[dict]:
    """Passes until ``seconds`` have gone by (at least one)."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    passes = []
    start = time.monotonic()
    try:
        while True:
            began = time.monotonic()
            passes.append(run_pass(workload, seed, work / f"pass{len(passes)}", trace, smoke, refs,
                                   edit_params))
            elapsed = time.monotonic() - start
            if elapsed >= seconds or elapsed + (time.monotonic() - began) > LAST_START:
                return passes
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:     # another run is still using it
            pass


def summarize_run(passes: list[dict], trace: bool) -> tuple[dict, int, int, list[str]]:
    """Median metrics over passes, step counts and every check failure."""
    key = "per_layer" if trace else "end_to_end"
    metrics = {name: statistics.median(p[key][name] for p in passes) for name in passes[0][key]}
    outcomes = [o for p in passes for o in p["outcomes"] + p.get("traced_outcomes", [])]
    wrong = [f"{o['step']}: {m}" for o in outcomes for m in o["mismatches"]]
    wrong += [m for p in passes for m in p.get("trace_mismatches", [])]
    return metrics, len(outcomes), sum(not o["ok"] for o in outcomes), wrong


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _print_metrics(declared: list[dict], metrics: dict, label: str = "") -> None:
    for m in declared:
        print(f"{label}{m['name']:<32} {metrics[m['name']]!r:>24} {m['unit']}")


# -- modes -----------------------------------------------------------------

def measure(args) -> int:
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    declared = _declared(trace)
    refs_doc = json.loads(REFERENCES.read_text())
    input_seed = args.seed % REFERENCE_SEEDS
    refs = refs_doc["workloads"].get(workload.name, {}).get(str(input_seed))
    if refs is None:
        raise HarnessError(f"references.json has no {workload.name} input set {input_seed}")
    passes = run_workload(workload, input_seed, args.seconds, trace, refs=refs)
    metrics, attempted, failed, wrong = summarize_run(passes, trace)
    if set(metrics) != {m["name"] for m in declared}:
        raise HarnessError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    _print_metrics(declared, metrics)
    machine = machine_facts()
    large = LARGE_BLOCK[0] * LARGE_BLOCK[1] * 8
    report = {
        "workload": workload.name, "seed": args.seed, "input_seed": input_seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "source_digest": source_digest(), "reference_digest": refs_doc["source_digest"],
        "check": {"tolerance": TOLERANCE, "mismatches": wrong},
        # GEMM rate of each pass's warm-up: tells a slower machine from slower code
        "gemm_gflops_median": statistics.median(p["gemm_gflops"] for p in passes),
        "projection": {"covariance.block_mb": large / 1e6, "shape": list(LARGE_BLOCK),
                       "runnable": large < machine["ram_gb"] * 1024 ** 3,
                       "note": "computed as p1*p2*8, never allocated"},
        "passes": [{k: v for k, v in p.items() if k not in ("outcomes", "traced_outcomes")}
                   | {"steps": [{k: o[k] for k in ("step", "exit", "ok", "mismatches")}
                                for o in p["outcomes"] + p.get("traced_outcomes", [])]}
                   for p in passes],
    }
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


def smoke() -> int:
    """Run every workload at reduced size, untraced twice and traced once, and
    check the harness: every declared metric is produced and finite, outputs
    repeat exactly (also under tracing), and the check catches a wrong reference."""
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS.values():
        passes = run_workload(workload, 0, 0, trace=True, smoke=True)
        passes += run_workload(workload, 0, 0, trace=False, smoke=True)
        for trace in (False, True):
            declared = _declared(trace)
            metrics, _attempted, _failed, wrong = summarize_run(passes[:1] if trace else passes, trace)
            problems += [f"{workload.name}: {m}" for m in wrong]
            names = {m["name"] for m in declared}
            if set(metrics) != names:
                problems.append(f"{workload.name}: metrics {sorted(set(metrics) ^ names)} "
                                "not both declared and produced")
            problems += [f"{workload.name}: {k} = {v!r}" for k, v in metrics.items()
                         if not math.isfinite(v)]
            _print_metrics(declared, metrics, f"{workload.name:<14} ")
        first = {o["step"]: o["summary"] for o in passes[0]["outcomes"]}
        again = {o["step"]: o["summary"] for o in passes[1]["outcomes"]}
        problems += [f"{workload.name}: rerun {m}" for m in mismatches(first, again)]
        step, summary = next(iter(first.items()))
        wrong_ref = json.loads(json.dumps(summary))
        wrong_ref[next(k for k in wrong_ref if k != "exit")] = "tampered"
        if not check_step(wrong_ref, summary):
            problems.append(f"{workload.name}: the check accepted a wrong reference for {step}")
    problems += _smoke_failing_step(WORKLOADS["tune-pipeline"])
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def _smoke_failing_step(workload) -> list[str]:
    """A perm grid far above the data's scale makes every cell fail, so
    ``tune`` exits without writing tune.json and the later steps cannot be
    planned: the run must still produce every metric and count the failures."""
    def unreachable(params):
        return dict(params, perm_grid=[[1e3 * g for g in row] for row in params["perm_grid"]])

    problems = []
    passes = run_workload(workload, 0, 0, trace=True, smoke=True, edit_params=unreachable)
    for trace in (False, True):
        metrics, attempted, failed, _wrong = summarize_run(passes, trace)
        if set(metrics) != {m["name"] for m in _declared(trace)}:
            problems.append(f"failing step: metrics differ from BENCHMARK.json (trace {trace})")
        problems += [f"failing step: {k} = {v!r}" for k, v in metrics.items()
                     if not math.isfinite(v)]
    if (attempted, failed) != (8, 6):
        problems.append(f"failing step: {failed} of {attempted} steps failed, expected 6 of 8")
    if passes[0]["end_to_end"]["ok_frac"] != 0.25:
        problems.append(f"failing step: ok_frac {passes[0]['end_to_end']['ok_frac']}, expected 0.25")
    return problems


def _write_references(doc: dict) -> None:
    """references.json with one line per workload and input set."""
    lines = [json.dumps({k: v for k, v in doc.items() if k != "workloads"}, sort_keys=True)[:-1]
             + ', "workloads": {']
    for w, name in enumerate(sorted(doc["workloads"])):
        lines.append(f" {json.dumps(name)}: {{")
        table = doc["workloads"][name]
        for k, seed in enumerate(sorted(table, key=int)):
            comma = "," if k < len(table) - 1 else ""
            lines.append(f"  {json.dumps(seed)}: {json.dumps(table[seed], sort_keys=True)}{comma}")
        lines.append(" }" + ("," if w < len(doc["workloads"]) - 1 else ""))
    REFERENCES.write_text("\n".join(lines) + "\n}}\n")


def record_references(names: list[str]) -> int:
    """Run every reference seed once per workload and store the output summaries."""
    from workloads import WORKLOADS
    doc = (json.loads(REFERENCES.read_text()) if REFERENCES.exists()
           else {"workloads": {}})
    doc.update(seeds=REFERENCE_SEEDS, tolerance=TOLERANCE, source_digest=source_digest())
    for name in names:
        workload = WORKLOADS[name]
        table = {}
        for seed in range(REFERENCE_SEEDS):
            (record,) = run_workload(workload, seed, 0, trace=False)
            table[str(seed)] = {o["step"]: o["summary"] for o in record["outcomes"]}
            failing = {o["step"]: o["summary"].get("error") for o in record["outcomes"] if not o["ok"]}
            print(f"{name} seed {seed}: wall {record['end_to_end']['wall_s']:.2f} s"
                  + (f", failing {failing}" if failing else ""), flush=True)
        doc["workloads"][name] = table
        _write_references(doc)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scca" / "cli.py").is_file():
        print(f"perfbench: {ROOT} holds no src/scca to benchmark", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.record_references:
            from workloads import WORKLOADS
            return record_references([args.workload] if args.workload else list(WORKLOADS))
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except HarnessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
