"""Outside-in span tracer for the chiral_ldp layers.

The tracer never edits the library.  It rebinds the names through which one
module calls into another (``exact_dist.log_kv``, ``special_fn.log_kv_integral``,
``asymptotics_lab.log_prob``, ...) to thin wrappers that record a span per
call: name, start, end, parent span, the op being run, and a work count
(points, draws, replicates, rows).  Spans stay in memory until the run ends.

A layer is a module of ``src/chiral_ldp``; a span's layer is the part of its
name before the first dot (``quad`` stands for ``_quad``, because metric names
may not start with an underscore).  Self time is a span's duration minus the
durations of its direct children; the run is single-threaded, so children
never overlap.

An entry point the library no longer has is skipped, and its metrics read
zero.  Wrappers return exactly what the wrapped call returned, so traced
outputs are byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

__all__ = ["ENTRY_POINTS", "Span", "Tracer", "layer_metrics", "self_times"]


class Span:
    """One call across a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "op", "work", "aux", "error")

    def __init__(self, name: str, start: float, parent: int, op: str | None, work: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 at top level
        self.op = op
        self.work = work
        self.aux = 0
        self.error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(args, kwargs) -> int:
    """Abscissae passed as the second argument, as in ``log_kv(v, x)``."""
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _product_n(args, kwargs) -> int:
    """Indices a product query could scan: ``params.n``."""
    return int((args[0] if args else kwargs["params"]).n)


def _count(position: int, keyword: str):
    def work(args, kwargs) -> int:
        return int(args[position] if len(args) > position else kwargs[keyword])

    return work


def _length(position: int, keyword: str):
    def work(args, kwargs) -> int:
        return int(np.size(args[position] if len(args) > position else kwargs[keyword]))

    return work


def _flagged(result) -> int:
    return int(np.count_nonzero(result["resample"]))


def _rows(result) -> int:
    return len(result)


# (calling module, name bound there, span name, work(args, kwargs), aux(result))
# Several call sites may share one span name.  ``quad.adaptive`` is special:
# its integrand callback is wrapped so the span's work counts abscissae.
ENTRY_POINTS: tuple[tuple, ...] = (
    ("exact_dist", "log_kv", "special_fn.log_kv", _points, None),
    ("sampler", "log_kv", "special_fn.log_kv", _points, None),
    ("special_fn", "log_kv_integral", "special_fn.route_integral", _points, None),
    ("special_fn", "log_kv_uniform", "special_fn.route_uniform", _points, None),
    ("special_fn", "log_kv_large_arg", "special_fn.route_large_arg", _points, None),
    ("exact_dist", "log_integral_adaptive", "quad.adaptive", None, None),
    ("special_fn", "log_integral_layout", "quad.layout", None, None),
    ("exact_dist", "minimizer_xj_array", "tau_geometry.minimizer_xj_array", None, None),
    ("exact_dist", "_tau_second", "tau_geometry.tau_second", None, None),
    ("asymptotics_lab", "minimizer_xj", "tau_geometry.minimizer_xj", None, None),
    ("asymptotics_lab", "u", "tau_geometry.u", None, None),
    ("rate_functions", "kappa", "tau_geometry.kappa", None, None),
    ("asymptotics_lab", "rate_max_right", "rate_functions.rate_max_right", None, None),
    ("asymptotics_lab", "rate_max_left", "rate_functions.rate_max_left", None, None),
    ("asymptotics_lab", "rate_min_right", "rate_functions.rate_min_right", None, None),
    ("asymptotics_lab", "mdp_max_right_const", "rate_functions.mdp_max_right_const", None, None),
    ("asymptotics_lab", "mdp_max_left_const", "rate_functions.mdp_max_left_const", None, None),
    ("asymptotics_lab", "mdp_min_rate", "rate_functions.mdp_min_rate", None, None),
    (
        "asymptotics_lab",
        "vscale_rate_statement_form",
        "rate_functions.vscale_rate_statement_form",
        None,
        None,
    ),
    ("asymptotics_lab", "log_prob", "exact_dist.log_prob", None, None),
    ("exact_dist", "log_prob", "exact_dist.log_prob", None, None),
    ("exact_dist", "log_prob_max_le", "exact_dist.product_query", _product_n, None),
    ("exact_dist", "log_prob_max_ge", "exact_dist.product_query", _product_n, None),
    ("exact_dist", "log_prob_min_ge", "exact_dist.product_query", _product_n, None),
    ("exact_dist", "log_prob_min_le", "exact_dist.product_query", _product_n, None),
    ("exact_dist", "log_sf_index", "exact_dist.index_query", None, None),
    ("exact_dist", "log_cdf_index", "exact_dist.index_query", None, None),
    ("exact_dist", "_tail_one", "exact_dist.index_tail", None, None),
    ("sampler", "_tail_one", "exact_dist.index_tail", None, None),
    ("sampler", "_mode_and_spread", "exact_dist.mode_and_spread", None, None),
    ("sampler", "sample_yj", "sampler.sample_yj", _count(3, "count"), None),
    ("sampler", "sample_extremes_independent", "sampler.extremes", _count(2, "count"), None),
    ("sampler", "matrix_probe_extremes", "sampler.probe", _count(2, "count"), _flagged),
    ("sampler", "ks_statistic", "sampler.ks", _length(2, "y_values"), None),
    ("sampler", "ks_statistic_max", "sampler.ks", _length(1, "x_values"), None),
    ("asymptotics_lab", "converge_table", "asymptotics_lab.converge_table", None, _rows),
    ("asymptotics_lab", "clt_check", "asymptotics_lab.clt_check", None, _rows),
)


class Tracer:
    """Collects spans while installed; :meth:`install` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.missing: list[str] = []

    def open(self, name: str, work: int = 0) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.op, work)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def wrap(self, fn, name: str, work=None, aux=None):
        """A wrapper that records one span per call of ``fn``."""
        counts_integrand = name == "quad.adaptive"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, work(args, kwargs) if work else 0)
            if counts_integrand:
                args = (_counting(args[0], span),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, type(exc).__name__)
                raise
            if aux is not None:
                span.aux = aux(result)
            self.close(span)
            return result

        return traced

    def install(self, modules: dict):
        """Rebind every entry point found in ``modules`` (name -> module)."""
        return _Installed(self, modules)

    def write(self, path: Path) -> None:
        """Write the spans as gzip'd tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\twork\taux\terror\n")
            for i, s in enumerate(self.spans):
                out.write(
                    f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\t"
                    f"{s.op}\t{s.work}\t{s.aux}\t{s.error or ''}\n"
                )


def _counting(logf, span: Span):
    def counted(x):
        span.work += int(np.size(x))
        return logf(x)

    return counted


class _Installed:
    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self.tracer = tracer
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, work, aux in ENTRY_POINTS:
            module = self.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.tracer.missing.append(f"{module_name}.{attr}")
                continue
            self.saved.append((module, attr, fn))
            setattr(module, attr, self.tracer.wrap(fn, name, work, aux))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by benchmark metric name."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    aux: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        work[s.name] += s.work
        aux[s.name] += s.aux
        errors[s.name] += s.error is not None
        total[s.name] += s.duration
        self_by_name[s.name] += t
        self_by_layer[s.name.split(".", 1)[0]] += t

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scanned = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "exact_dist.index_tail"
        and _has_ancestor(spans, i, "exact_dist.product_query")
    )
    kv_points = work["special_fn.log_kv"]
    draws = work["sampler.sample_yj"]
    replicates = work["sampler.probe"]
    tails = calls["exact_dist.index_tail"]
    return {
        "special_fn.log_kv.calls": calls["special_fn.log_kv"],
        "special_fn.log_kv.points": kv_points,
        "special_fn.log_kv.self_s": self_by_layer["special_fn"],
        "special_fn.ns_per_point": 1e9 * ratio(total["special_fn.log_kv"], kv_points),
        "special_fn.route_integral.points": work["special_fn.route_integral"],
        "special_fn.route_uniform.points": work["special_fn.route_uniform"],
        "special_fn.route_large_arg.points": work["special_fn.route_large_arg"],
        "quad.adaptive.calls": calls["quad.adaptive"],
        "quad.adaptive.integrand_points": work["quad.adaptive"],
        "quad.adaptive.self_s": self_by_name["quad.adaptive"],
        "quad.adaptive.failures": errors["quad.adaptive"],
        "quad.layout.calls": calls["quad.layout"],
        "quad.layout.self_s": self_by_name["quad.layout"],
        "exact_dist.queries": calls["exact_dist.product_query"]
        + calls["exact_dist.index_query"],
        "exact_dist.indices_evaluated": tails,
        "exact_dist.scan_share": ratio(scanned, work["exact_dist.product_query"]),
        "exact_dist.index_tail_ms": 1e3 * ratio(total["exact_dist.index_tail"], tails),
        "exact_dist.self_s": self_by_layer["exact_dist"],
        "tau_geometry.calls": sum(v for k, v in calls.items() if k.startswith("tau_geometry.")),
        "tau_geometry.self_s": self_by_layer["tau_geometry"],
        "rate_functions.calls": sum(
            v for k, v in calls.items() if k.startswith("rate_functions.")
        ),
        "rate_functions.self_s": self_by_layer["rate_functions"],
        "sampler.draws": draws,
        "sampler.draws_per_s": ratio(draws, total["sampler.sample_yj"]),
        "sampler.sample_yj.self_s": self_by_name["sampler.sample_yj"],
        "sampler.extremes.self_s": self_by_name["sampler.extremes"],
        "sampler.probe.replicates": replicates,
        "sampler.probe.replicates_per_s": ratio(replicates, total["sampler.probe"]),
        "sampler.probe.flagged_share": ratio(aux["sampler.probe"], replicates),
        "sampler.probe.self_s": self_by_name["sampler.probe"],
        "sampler.ks.calls": calls["sampler.ks"],
        "sampler.ks.points": work["sampler.ks"],
        "sampler.ks.self_s": self_by_name["sampler.ks"],
        "asymptotics_lab.rows": aux["asymptotics_lab.converge_table"]
        + aux["asymptotics_lab.clt_check"],
        "asymptotics_lab.self_s": self_by_layer["asymptotics_lab"],
    }
