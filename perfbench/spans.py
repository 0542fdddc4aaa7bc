"""Span tracing from outside the program, and the per-layer metrics built on it.

The traced run rebinds each public function in the module namespace where the
program looks it up (``scheme.helper_select``, ``feedback.run_trial``, ...)
to a wrapper that records a span: name, start, end and parent.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the time
its direct child spans cover; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass


def _helper_flops(cb, *args, **kwargs):
    # One cosine per base point: a (H, n) matrix-vector product.
    return 2 * cb.help_size * cb.blocklength


def _decode_flops(cb, y, t, message_space, *args, **kwargs):
    # Rotate base point t under every candidate (M n x n products), then score.
    n = cb.blocklength
    return 2 * len(message_space) * n * (n + 1)


# (span name, bindings the program calls it through, work counter).  Every
# binding must exist: a layer that is renamed or removed stops the traced run
# with an error instead of reading 0, so TARGETS is updated along with it.
TARGETS = (
    ("codebook.haar_rotation", ("codebook.haar_rotation",), None),
    ("codebook.build_base_codebook", ("scheme.build_base_codebook",), None),
    ("scheme.helper_select", ("scheme.helper_select",), _helper_flops),
    ("scheme.transmit", ("scheme.transmit",), None),
    ("geometry.angle_between", ("scheme.angle_between",), None),
    ("geometry.cap_ratio_exact", ("scheme.cap_ratio_exact",), None),
    ("scheme.decode", ("scheme.decode",), _decode_flops),
    ("scheme.candidate_rotations", ("scheme.candidate_rotations", "feedback.candidate_rotations"), None),
    ("scheme.run_trial", ("scheme.run_trial", "feedback.run_trial"), None),
    ("scheme.draw_messages", ("scheme.draw_messages", "feedback.draw_messages"), None),
    ("scheme.summarize", ("scheme.summarize", "feedback.summarize"), None),
    ("scheme.simulate", ("scheme.simulate", "harness.simulate"), None),
    ("converse.empirical_correlations", ("converse.empirical_correlations",), None),
    ("feedback.simulate_feedback", ("harness.simulate_feedback",), None),
    ("feedback.encode_time_zero", ("feedback.encode_time_zero",), None),
    ("feedback.inner_message", ("feedback.inner_message",), None),
    ("feedback.reconstruct", ("feedback.reconstruct",), None),
    ("harness.parse_config", ("cli.parse_config",), None),
    ("harness.run_cell", ("harness.run_cell",), None),
    ("harness.run_sweep", ("cli.run_sweep",), None),
    ("harness.emit_csv", ("cli.emit_csv",), None),
)

# Per-layer metric name -> unit.  All of them are better when lower.
PER_LAYER_UNITS = {
    "codebook.haar_rotation.us_per_call": "us",
    "codebook.haar_rotation.calls_per_trial": "calls/trial",
    "codebook.build_base_codebook.ms": "ms",
    "scheme.helper_select.us_per_call": "us",
    "scheme.helper_select.flops_per_trial": "flop/trial",
    "scheme.decode.us_per_call": "us",
    "scheme.decode.calls": "count",
    "scheme.decode.flops_per_trial": "flop/trial",
    "scheme.candidate_rotations.ms": "ms",
    "scheme.run_trial.self_us": "us",
    "scheme.transmit.us_per_call": "us",
    "geometry.angle_between.us_per_call": "us",
    "scheme.draw_messages.ms": "ms",
    "scheme.summarize.ms": "ms",
    "scheme.simulate.self_ms": "ms",
    "geometry.cap_ratio_exact.us_per_call": "us",
    "geometry.cap_ratio_exact.calls_per_trial": "calls/trial",
    "feedback.time_zero.us_per_trial": "us/trial",
    "feedback.simulate_feedback.self_us_per_trial": "us/trial",
    "converse.empirical_correlations.ms": "ms",
    "harness.parse_config.ms": "ms",
    "harness.run_cell.ms_per_cell": "ms",
    "harness.run_sweep.s": "s",
    "harness.emit_csv.ms": "ms",
    "cli.import.s": "s",
    "trace.overhead_s": "s",
}


# Calibration of the per-span tracing cost: calls per sample, and samples.
SPAN_COST_CALLS = 20_000
SPAN_COST_REPEATS = 5


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    """Collects spans as [name, start, end, parent index, child seconds, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0, work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every TARGETS binding to a wrapper of the function it holds; restore on exit."""
        saved = []
        try:
            for name, bindings, work in TARGETS:
                for binding in bindings:
                    mod_name, attr = binding.split(".")
                    module = importlib.import_module(f"gausshelp.{mod_name}")
                    if not hasattr(module, attr):
                        raise LookupError(f"traced layer {name}: gausshelp.{binding} is gone; "
                                          "update spans.TARGETS")
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layers(self):
        stats = {}
        for name, start, end, _, child_s, work in self.spans:
            s = stats.setdefault(name, LayerStats())
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - child_s
            s.work += work
        return stats

    def span_cost_s(self):
        """Time one nested traced call adds over a bare call (median of SPAN_COST_REPEATS).

        Measured on an empty function inside an enclosing span, so the parent's
        child-time bookkeeping is included.  The spans it records are dropped.
        """
        def bare():
            pass

        def loop(fn):
            for _ in range(SPAN_COST_CALLS):
                fn()

        inner = self.wrap("calibrate.inner", bare)
        outer = self.wrap("calibrate.outer", loop)
        first, costs = len(self.spans), []
        for _ in range(SPAN_COST_REPEATS):
            start = time.perf_counter()
            loop(bare)
            mid = time.perf_counter()
            outer(inner)
            costs.append(((time.perf_counter() - mid) - (mid - start)) / SPAN_COST_CALLS)
            del self.spans[first:]
        return statistics.median(costs)

    def write(self, path):
        """Write the spans as CSV: name, start and end in seconds, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _, _ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def per_layer_metrics(stats, trials, cli_import_s, overhead_s):
    """The per-layer metrics of one traced round of `trials` trials."""
    def get(name):
        return stats.get(name, LayerStats())

    def per(x, d):
        return x / d if d else 0.0

    def per_call_us(name):
        s = get(name)
        return per(s.total_s, s.calls) * 1e6

    def total_ms(name):
        return get(name).total_s * 1e3

    time_zero = sum(get(f"feedback.{f}").total_s
                    for f in ("encode_time_zero", "inner_message", "reconstruct"))
    run_trial = get("scheme.run_trial")
    run_cell = get("harness.run_cell")
    values = {
        "codebook.haar_rotation.us_per_call": per_call_us("codebook.haar_rotation"),
        "codebook.haar_rotation.calls_per_trial": per(get("codebook.haar_rotation").calls, trials),
        "codebook.build_base_codebook.ms": total_ms("codebook.build_base_codebook"),
        "scheme.helper_select.us_per_call": per_call_us("scheme.helper_select"),
        "scheme.helper_select.flops_per_trial": per(get("scheme.helper_select").work, trials),
        "scheme.decode.us_per_call": per_call_us("scheme.decode"),
        "scheme.decode.calls": get("scheme.decode").calls,
        "scheme.decode.flops_per_trial": per(get("scheme.decode").work, trials),
        "scheme.candidate_rotations.ms": total_ms("scheme.candidate_rotations"),
        "scheme.run_trial.self_us": per(run_trial.self_s, run_trial.calls) * 1e6,
        "scheme.transmit.us_per_call": per_call_us("scheme.transmit"),
        "geometry.angle_between.us_per_call": per_call_us("geometry.angle_between"),
        "scheme.draw_messages.ms": total_ms("scheme.draw_messages"),
        "scheme.summarize.ms": total_ms("scheme.summarize"),
        "scheme.simulate.self_ms": get("scheme.simulate").self_s * 1e3,
        "geometry.cap_ratio_exact.us_per_call": per_call_us("geometry.cap_ratio_exact"),
        "geometry.cap_ratio_exact.calls_per_trial": per(get("geometry.cap_ratio_exact").calls, trials),
        "feedback.time_zero.us_per_trial": per(time_zero, trials) * 1e6,
        "feedback.simulate_feedback.self_us_per_trial":
            per(get("feedback.simulate_feedback").self_s, trials) * 1e6,
        "converse.empirical_correlations.ms": total_ms("converse.empirical_correlations"),
        "harness.parse_config.ms": total_ms("harness.parse_config"),
        "harness.run_cell.ms_per_cell": per(run_cell.total_s, run_cell.calls) * 1e3,
        "harness.run_sweep.s": get("harness.run_sweep").total_s,
        "harness.emit_csv.ms": total_ms("harness.emit_csv"),
        "cli.import.s": cli_import_s,
        "trace.overhead_s": overhead_s,
    }
    return values
