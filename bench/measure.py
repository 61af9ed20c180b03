"""Statistics and span tracing for the benchmark.

Tracing wraps the public cpdilate functions from the outside: while a
``Tracer`` is installed, every module attribute bound to one of the
functions in ``LAYERS`` is replaced by a wrapper that records a span, so
the spans follow the calls the CLI really makes without any change to the
library.  Spans stay in memory and are written out once, at the end.
"""

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

RESIDUAL_FLOOR = 1e-16
TAIL_BEYOND = 10

# Public library calls traced as layers, as (module, function) under cpdilate.
LAYERS = (
    ("instancefile", "load_instance"),
    ("cpmap", "make_cpmap"),
    ("cpmap", "kraus_decomposition"),
    ("vnmodule", "gns"),
    ("vnmodule", "qons"),
    ("vnmodule", "embed_qons"),
    ("dilation", "weak_tensor_dilation"),
    ("dilation", "verify_dilation"),
    ("duality", "build_context"),
    ("duality", "xi_prime"),
    ("duality", "dual_map"),
    ("duality", "double_dual"),
    ("duality", "dual_pairing_residual"),
    ("duality", "state_transport_residual"),
    ("duality", "extension_from_dilation"),
    ("duality", "dilation_from_extension"),
    ("duality", "is_minimal_dilation"),
)
LAYER_NAMES = tuple(f"{module}.{func}" for module, func in LAYERS)

# (name, unit, better) of every metric printed; BENCHMARK.json lists the same.
END_TO_END = (
    ("certified_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cert_headroom_decades", "decades", "higher"),
    ("certified_fraction", "ratio", "higher"),
    ("setup_s", "s", "lower"),
)
PER_LAYER = tuple((f"{name}_s", "s", "lower") for name in LAYER_NAMES) + (
    ("dilation.assemble_self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("vnmodule.h_dim", "count", "lower"),
    ("vnmodule.module_dim", "count", "lower"),
    ("vnmodule.k_dim", "count", "lower"),
    ("duality.l_dim", "count", "lower"),
    ("dilation.membership_blocks", "count", "lower"),
    ("dilation.j_ops_mb", "MB", "lower"),
    ("vnmodule.gram_rank_ratio", "ratio", "higher"),
    ("vnmodule.embed_fill_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def tail(latencies):
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns ``(value, percentile, sample_count)``; the percentile is the
    share of samples at or below the value.  With too few samples the
    maximum is returned and its percentile is 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def headroom_decades(report):
    """min over stages of log10(tolerance / max_residual), residuals floored
    at RESIDUAL_FLOOR; None when no stage states both numbers."""
    values = []
    for stage in report.get("stages", []):
        tol, worst = stage.get("tolerance"), stage.get("max_residual")
        if _is_number(tol) and _is_number(worst):
            values.append(math.log10(tol / max(worst, RESIDUAL_FLOOR)))
    return min(values) if values else None


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _counts(name, args, result):
    """Dims read off a layer call's arguments and result."""
    if name == "vnmodule.gns":
        return {"h_dim": result.h_dim, "module_dim": result.module_basis.shape[0],
                "n_a": result.source.coord_dim, "g": result.target.ambient_dim}
    if name == "vnmodule.embed_qons":
        data = args[0]
        return {"k_dim": result.k_dim, "h_dim": data.h_dim,
                "g": data.target.ambient_dim}
    if name == "cpmap.kraus_decomposition":
        return {"l_dim": result.l_dim}
    if name == "dilation.verify_dilation":
        d = args[0]
        return {"membership_blocks": d.cpmap.source.coord_dim * d.k_dim ** 2}
    if name == "dilation.weak_tensor_dilation":
        return {"j_ops_bytes": result.j_ops.nbytes}
    return {}


class Tracer:
    """In-memory span recorder around the public layer functions."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._open = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._open[-1] if self._open else None,
                        time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.counts = _counts(name, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer function wherever a cpdilate module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cpdilate" or key.startswith("cpdilate.")]
        patched = []
        try:
            for module_name, func_name in LAYERS:
                original = getattr(importlib.import_module(f"cpdilate.{module_name}"),
                                   func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def as_records(self):
        return [{"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
                 "end": s.end, "counts": s.counts} for s in self.spans]


def layer_metrics(spans, untraced_latencies, traced_latencies):
    """Per-layer metrics: medians over the traced ops.

    Layer times are inclusive and summed over the calls in one op; a layer
    the command never calls reads 0.  Dims come from the op's last call of
    the layer, except membership blocks, which are summed over its verify
    calls.  CLI self time is a traced op's latency minus its root spans;
    the overhead ratio pairs op i of both latency lists, which ran on the
    same instance.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    times = [f"{name}_s" for name in LAYER_NAMES] + ["dilation.assemble_self_s", "roots"]
    rows = [{**dict.fromkeys(times, 0.0), "dilation.membership_blocks": 0}
            for _ in traced_latencies]
    last = [{} for _ in traced_latencies]
    for index, span in enumerate(spans):
        row = rows[span.op]
        row[f"{span.name}_s"] += span.seconds
        if span.parent is None:
            row["roots"] += span.seconds
        if span.name == "dilation.weak_tensor_dilation":
            row["dilation.assemble_self_s"] += span.seconds - children.get(index, 0.0)
        if span.name == "dilation.verify_dilation":
            row["dilation.membership_blocks"] += span.counts["membership_blocks"]
        last[span.op][span.name] = span.counts
    for row, calls in zip(rows, last):
        gns = calls.get("vnmodule.gns", {})
        emb = calls.get("vnmodule.embed_qons", {})
        row["vnmodule.h_dim"] = gns.get("h_dim", 0)
        row["vnmodule.module_dim"] = gns.get("module_dim", 0)
        row["vnmodule.k_dim"] = emb.get("k_dim", 0)
        row["duality.l_dim"] = calls.get("cpmap.kraus_decomposition", {}).get("l_dim", 0)
        row["dilation.j_ops_mb"] = calls.get(
            "dilation.weak_tensor_dilation", {}).get("j_ops_bytes", 0) / 1e6
        row["vnmodule.gram_rank_ratio"] = (
            gns["h_dim"] / (gns["n_a"] * gns["g"]) if gns else 0.0)
        row["vnmodule.embed_fill_ratio"] = (
            emb["h_dim"] / (emb["k_dim"] * emb["g"]) if emb else 0.0)

    metrics = {name: statistics.median_low(row[name] for row in rows)
               for name, _, _ in PER_LAYER if name in rows[0]}
    # Both from the same op, so the machine's drift between ops cancels.
    metrics["cli.self_s"] = statistics.median(
        latency - row["roots"] for latency, row in zip(traced_latencies, rows))
    metrics["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_latencies, untraced_latencies))
    return metrics
