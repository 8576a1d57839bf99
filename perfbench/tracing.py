"""Spans around the package's public calls, recorded from outside the package.

``Tracer.install`` replaces each traced function, in every ``scca`` module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent) and a few counts taken from the call's result. Nothing in the
package changes on disk; ``restore`` puts the originals back. Spans stay in
memory until the worker writes them out at the end of a pass.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (layer, owner, attribute): owner is a module path, or "module:Class" for a
# classmethod or method
TRACED = (
    ("covariance", "scca.covariance", "load_view"),
    ("covariance", "scca.covariance", "center_scale"),
    ("covariance", "scca.covariance", "cross_covariance"),
    ("pattern", "scca.pattern", "pattern_pair"),
    ("solve", "scca.solve", "fit_pair"),
    ("solve", "scca.solve", "power_svd"),
    ("solve", "scca.solve", "cca_gep"),
    ("solve", "scca.solve", "deflate"),
    ("solve", "scca.solve", "multiview_power"),
    ("multiview", "scca.multiview:MultiViewProblem", "from_views"),
    ("multiview", "scca.multiview:MultiViewProblem", "restrict"),
    ("multiview", "scca.multiview", "multiview_pattern"),
    ("multiview", "scca.multiview", "multiview_scca"),
    ("directed", "scca.directed:StackedProblem", "build"),
    ("directed", "scca.directed", "directed_stacked"),
    ("directed", "scca.directed", "directed_fit"),
    ("directed", "scca.directed", "compute_beta"),
    ("directed", "scca.directed", "directed_two_stage"),
    ("tuning", "scca.tuning", "perm_tune"),
    ("tuning", "scca.tuning", "cv_tune"),
    ("report", "scca.report", "biplot_coords"),
    ("report", "scca.report", "write_report"),
)


def _support(patterns) -> tuple[int, int]:
    return sum(p.active_count for p in patterns), sum(p.size for p in patterns)


def _attrs(name: str, args, kwargs, out) -> dict | None:
    """Counts read off a call's arguments and result."""
    if name == "load_view":
        return {"path": str(args[0])}
    if name == "pattern_pair":
        active, size = _support((out.tau1, out.tau2))
        return {"iterations": sum(out.iterations.values()), "active": active, "size": size}
    if name == "multiview_pattern":
        return {"sweeps": out[2], "active": out[0].active_count, "size": out[0].size}
    if name == "directed_stacked":
        return {"active": out[0].active_count, "size": out[0].size}
    if name == "directed_fit":
        active, size = _support([p[0] for p in out.patterns])
        return {"mode": kwargs.get("mode", "dot"), "active": active, "size": size}
    return None


class Tracer:
    """Records spans as (name, start_ns, end_ns, parent index, attrs)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list = []
        self.last_fit = None           # (x1, x2, gamma1, gamma2, solution) of the last fit_pair
        self.last_multiview = None     # (views, gamma matrix) of the last multiview_scca

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = attrs
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "power_svd" and kwargs.get("trace") is None:
                kwargs["trace"] = []
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                tracer.close(index, {"error": type(err).__name__})
                raise
            tracer.close(index, _attrs(name, args, kwargs, out))
            if name == "power_svd":
                tracer.spans[index][4] = {"iterations": len(kwargs["trace"]) - 1}
            elif name == "fit_pair":
                tracer.last_fit = (args[0], args[1], args[2], args[3], out)
            elif name == "multiview_scca":
                tracer.last_multiview = (args[0], args[1])
            return out
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a ``scca`` module binds it."""
        for _layer, owner, attr in TRACED:
            module_name, _, cls_name = owner.partition(":")
            module = sys.modules[module_name]
            if cls_name:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(attr, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(attr, raw))
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(attr, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "scca" or mod_name.startswith("scca.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- analysis --------------------------------------------------------------

def _dur(span) -> float:
    return (span[2] - span[1]) / 1e9


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def _refit_ms(spans, sweep: str) -> tuple[list[float], int]:
    """Per-refit wall times inside each sweep span: the gaps between
    consecutive fit_pair ends (the first from the sweep's start), so they
    add up to the sweep's time. Also returns how many refits raised."""
    gaps, failed = [], 0
    for k, span in enumerate(spans):
        if span[0] != sweep:
            continue
        mark = span[1]
        for child in spans[k + 1:]:
            if child[1] >= span[2]:
                break
            if child[0] == "fit_pair":
                gaps.append((child[2] - mark) / 1e6)
                mark = child[2]
                failed += bool(child[4] and "error" in child[4])
    return gaps, failed


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the part its child spans cover."""
    own: dict[str, float] = {}
    for span in spans:
        own[span[0]] = own.get(span[0], 0.0) + _dur(span)
    for span in spans:
        if span[3] >= 0:
            own[spans[span[3]][0]] -= _dur(span)
    return own


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: the self times of its traced calls, summed."""
    layer_of = {attr: layer for layer, _owner, attr in TRACED}
    layer_of["cli.main"] = "cli"
    out: dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        out[layer_of[name]] = out.get(layer_of[name], 0.0) + seconds
    return out


def layer_metrics(spans: list[list], probes: dict, parsed_bytes: int, block_mb: float,
                  stacked_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (probe timings come from calls
    made after the workload's steps, with the wrappers removed)."""
    total: dict[str, float] = {}
    for span in spans:
        total[span[0]] = total.get(span[0], 0.0) + _dur(span)
    own = self_times(spans)

    def t(name):
        return total.get(name, 0.0)

    def attr_sum(names, key):
        return sum(s[4][key] for s in spans
                   if s[0] in names and s[4] and key in s[4])

    pair_ok = [s for s in spans if s[0] == "pattern_pair" and s[4] and "iterations" in s[4]]
    iterations = sum(s[4]["iterations"] for s in pair_ok)
    stage_one = ("pattern_pair", "multiview_pattern", "directed_stacked", "directed_fit")
    support_size = attr_sum(stage_one, "size")
    perm_ms, perm_failed = _refit_ms(spans, "perm_tune")
    cv_ms, _ = _refit_ms(spans, "cv_tune")

    return {
        "covariance.load_view_s": t("load_view"),
        "covariance.parse_mb_per_s": parsed_bytes / 1e6 / t("load_view") if t("load_view") else 0.0,
        "covariance.center_scale_s": t("center_scale"),
        "covariance.cross_covariance_s": t("cross_covariance"),
        "covariance.block_mb": block_mb,
        "pattern.pattern_pair_s": t("pattern_pair"),
        "pattern.iterations": float(iterations),
        "pattern.iter_ms": (sum(_dur(s) for s in pair_ok) * 1e3 / iterations
                            if iterations else 0.0),
        "pattern.screen_kept_frac": probes.get("screen_kept_frac", 0.0),
        "pattern.support_frac": (attr_sum(stage_one, "active") / support_size
                                 if support_size else 0.0),
        "solve.fit_s": t("fit_pair"),
        "solve.power_svd_s": t("power_svd"),
        "solve.power_svd_iterations": float(attr_sum(("power_svd",), "iterations")),
        "solve.cca_gep_s": t("cca_gep") + probes.get("cca_gep_s", 0.0),
        "solve.self_s": own.get("fit_pair", 0.0),
        "solve.deflate_s": t("deflate"),
        "solve.deflations": float(sum(s[0] == "deflate" for s in spans)),
        "solve.multiview_power_s": t("multiview_power"),
        "multiview.from_views_s": t("from_views"),
        "multiview.pattern_s": t("multiview_pattern"),
        "multiview.sweeps": float(attr_sum(("multiview_pattern",), "sweeps")),
        "multiview.restrict_s": t("restrict"),
        "directed.stacked_build_s": t("build"),
        "directed.stacked_s": t("directed_stacked"),
        "directed.stacked_matrix_mb": stacked_mb,
        "directed.fit_dot_s": float(sum(_dur(s) for s in spans if s[0] == "directed_fit"
                                        and s[4] and s[4].get("mode") == "dot")),
        "directed.compute_beta_s": t("compute_beta"),
        "directed.two_stage_s": t("directed_two_stage"),
        "tuning.perm_refit_ms.p50": statistics.median(perm_ms) if perm_ms else 0.0,
        "tuning.perm_refit_ms.p98": _percentile(perm_ms, 98) if perm_ms else 0.0,
        "tuning.refit_fail_frac": perm_failed / len(perm_ms) if perm_ms else 0.0,
        "tuning.cv_fit_ms.p50": statistics.median(cv_ms) if cv_ms else 0.0,
        "report.biplot_s": t("biplot_coords"),
        "report.write_s": t("write_report"),
        "cli.overhead_s": own.get("cli.main", 0.0),
    }
