"""One pass of a workload in a fresh process.

The worker imports the package, runs the workload's CLI steps in-process
through ``scca.cli.main`` and writes ``result.json`` into the pass directory:
per-step exit code, wall and CPU time, captured output, the set-up time from
the parent's spawn to ``import scca``, and the process's peak RSS. With
tracing on it also records spans around the package's public calls, times a
few probe calls after the steps, and writes the spans out at the end.

    python3 perfbench/worker.py WORKLOAD PASS_DIR TRACE(0|1) SPAWN_NS

``run.py`` starts it with the pass directory as working directory and the
checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _wake_cpus(seconds: float = 0.5) -> float:
    """Keep the BLAS threads busy for half a second before anything is timed;
    returns the GFLOP/s of the last half of it, a figure of the machine's
    speed at the time of the pass.

    On a small virtual machine the first second of BLAS work in a fresh
    process ran up to twice as slow, by a varying amount; half a second of
    numpy products, outside every metric, was enough to remove that."""
    import numpy as np
    size = 256
    a = np.ones((size, size))
    start = time.perf_counter()
    half, products = None, 0
    while (now := time.perf_counter()) - start < seconds:
        if half is None and now - start >= seconds / 2:
            half, products = now, 0
        a @ a
        products += 1
    return 2 * size ** 3 * products / (time.perf_counter() - half) / 1e9 if half else 0.0


def _run_step(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a defect in the program: record it, keep measuring
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _gep_probe(scca, x1, x2, solution) -> float:
    """Time cca_gep on the shrunken blocks of a two-view fit's first factor,
    retrying once with the automatic ridge stage two uses on a singular block."""
    ix1 = solution.patterns[0][0].indices()
    ix2 = solution.patterns[1][0].indices()
    a, b = x1.data[:, ix1], x2.data[:, ix2]
    n = a.shape[0]
    c11, c12, c22 = a.T @ a / n, a.T @ b / n, b.T @ b / n
    start = time.perf_counter()
    try:
        scca.cca_gep(c11, c12, c22, factors=1)
    except scca.SingularityError:
        ridge = max(1e-8 * (c11.trace() / c11.shape[0] + c22.trace() / c22.shape[0]) / 2, 1e-12)
        scca.cca_gep(c11, c12, c22, ridge=ridge, factors=1)
    return time.perf_counter() - start


def _probes(scca, cli, tracer, workload, records) -> dict:
    """Calls made after the steps, untraced: the screening bound at the
    workload's gamma, cca_gep on the shrunken blocks, and the perm sweep
    again with two workers."""
    probes = {}
    if tracer.last_fit is not None:
        x1, x2, g1, g2, solution = tracer.last_fit
        c12 = x1.data.T @ x2.data / x1.n
        kept = scca.screen_l1(c12, g2).active_count + scca.screen_l1(c12.T, g1).active_count
        probes["screen_kept_frac"] = kept / (x1.p + x2.p)
        del c12
        probes["cca_gep_s"] = _gep_probe(scca, x1, x2, solution)
    if tracer.last_multiview is not None:
        views, gam = tracer.last_multiview
        problem = scca.MultiViewProblem.from_views(views)
        kept = sum(scca.multiview_screen(problem, gam, s).active_count
                   for s in range(problem.m))
        probes["screen_kept_frac"] = kept / sum(v.p for v in views)
    argv = next((r["argv"] for r in records if r["step"] == workload.perm_step), None)
    if argv is not None:
        start = time.perf_counter()
        code, _out, _err = _run_step(cli, argv + ["--jobs", "2", "--out", f"probe/out/{workload.perm_step}"])
        probes["jobs2_wall_s"] = time.perf_counter() - start
        probes["jobs2_exit"] = code
    return probes


def main(argv: list[str]) -> int:
    name, directory, trace, spawned_ns = argv[1:5]
    directory = Path(directory)
    import scca
    import scca.cli as cli
    ready_ns = time.monotonic_ns()
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(scca.__file__).resolve().parent.parent != src:
        print(f"worker: imported scca from {scca.__file__}, not {src}", file=sys.stderr)
        return 3

    from tracing import Tracer          # this directory is sys.path[0]
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    params = json.loads((directory / "params.json").read_text())
    gflops = _wake_cpus()
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()

    records = []
    plan = workload.steps(directory, params)
    while True:
        try:
            step, step_argv = next(plan)
        except StopIteration:
            break
        except (OSError, ValueError, KeyError) as err:   # an earlier step left no usable output
            records.append({"step": "plan", "argv": [], "exit": -1, "wall_s": 0.0, "cpu_s": 0.0,
                            "stdout": "", "stderr": repr(err)})
            break
        span = tracer.open("cli.main") if tracer is not None else None
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        code, out, err = _run_step(cli, step_argv)
        wall1, cpu1 = time.perf_counter(), _cpu_s()
        if tracer is not None:
            tracer.close(span, {"step": step})
        records.append({"step": step, "argv": step_argv, "exit": code, "wall_s": wall1 - wall0,
                        "cpu_s": cpu1 - cpu0, "stdout": out, "stderr": err})

    result = {"setup_child_s": (ready_ns - int(spawned_ns)) / 1e9, "steps": records,
              "gemm_gflops": gflops,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.restore()
        result["probes"] = _probes(scca, cli, tracer, workload, records)
        result["spans"] = tracer.spans
    (directory / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
