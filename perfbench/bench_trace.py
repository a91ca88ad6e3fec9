"""Outside-in span tracing and the per-layer metrics computed from it.

The tracer swaps the module-level names the CLI calls through for wrappers
that record one span per call: (name, start_ns, end_ns, parent index, work).
Nothing inside the qwave package changes. A span's self time is its duration
minus the durations of its child spans; the CLI's own time (argument parsing,
hashing, manifest, the convolve loop) is the call's wall time minus its
top-level spans, so the self times listed here add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _state_dim(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return state.dim


def _shots(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["shots"]


# (module, name looked up at call time, span name = layer.function, work).
# A name missing from its module is skipped, and its metrics read 0.
TARGETS = (
    ("qwave.cli", "load_wav", "audio.load_wav", None),
    ("qwave.cli", "make_chunks", "audio.make_chunks", None),
    ("qwave.cli", "process_chunks", "audio.process_chunks", None),
    ("qwave.cli", "stitch_and_write", "audio.stitch_and_write", None),
    ("qwave.cli", "write_wav", "audio.write_wav", None),
    ("qwave.cli", "convolve_optimized", "pipelines.convolve_optimized", None),
    ("qwave.cli", "classical_circular_convolution",
     "pipelines.classical_circular_convolution", None),
    ("qwave.audio", "pointwise_multiply_state", "pipelines.pointwise_multiply_state", None),
    ("qwave.audio", "extract_component", "pipelines.extract_component", None),
    ("qwave.audio", "sample_counts", "sampling.sample_counts", _shots),
    ("qwave.audio", "decode_component", "sampling.decode_component", None),
    ("qwave.audio", "fidelity_percent", "sampling.fidelity_percent", None),
    ("qwave.audio", "write_wav", "audio.write_wav", None),
    ("qwave.pipelines", "encode_function", "encoding.encode_function", None),
    ("qwave.pipelines", "apply_hadamard_layer", "statevector.apply_hadamard_layer", None),
    ("qwave.pipelines", "apply_qft", "statevector.apply_qft", None),
    ("qwave.pipelines", "classical_dft", "pipelines.classical_dft", None),
    ("qwave.encoding", "apply_controlled_unitary",
     "statevector.apply_controlled_unitary", _state_dim),
    ("qwave.encoding", "build_rho", "encoding.build_rho", None),
)

# Self-time metrics and the spans each one sums. Every span name above
# appears exactly once, so these plus cli.self_s account for the wall time.
SELF_TIMES = {
    "statevector.apply_controlled_unitary.self_s": ("statevector.apply_controlled_unitary",),
    "statevector.apply_hadamard_layer.self_s": ("statevector.apply_hadamard_layer",),
    "statevector.apply_qft.self_s": ("statevector.apply_qft",),
    "encoding.build_rho.self_s": ("encoding.build_rho",),
    "encoding.encode_function.self_s": ("encoding.encode_function",),
    "pipelines.pointwise_multiply_state.self_s": ("pipelines.pointwise_multiply_state",),
    "pipelines.extract_component.self_s": ("pipelines.extract_component",),
    "pipelines.convolve_optimized.self_s": ("pipelines.convolve_optimized",),
    "pipelines.classical_dft.self_s": ("pipelines.classical_dft",),
    "pipelines.classical_circular_convolution.self_s":
        ("pipelines.classical_circular_convolution",),
    "sampling.sample_counts.self_s": ("sampling.sample_counts",),
    "sampling.decode_component.self_s": ("sampling.decode_component",),
    "sampling.fidelity_percent.self_s": ("sampling.fidelity_percent",),
    "audio.load_wav.self_s": ("audio.load_wav",),
    "audio.write_wav.self_s": ("audio.write_wav",),
    "audio.make_chunks.self_s": ("audio.make_chunks",),
    # dispatch plus stitching: the glue around the per-chunk pipeline
    "audio.process_chunks.self_s": ("audio.process_chunks", "audio.stitch_and_write"),
}

# Counts that repeat exactly for given inputs: metric -> (span, calls or work).
COUNTS = {
    "statevector.apply_controlled_unitary.calls": ("statevector.apply_controlled_unitary", "calls"),
    "statevector.amplitudes_scanned": ("statevector.apply_controlled_unitary", "work"),
    "statevector.apply_qft.calls": ("statevector.apply_qft", "calls"),
    "encoding.build_rho.calls": ("encoding.build_rho", "calls"),
    "pipelines.classical_dft.calls": ("pipelines.classical_dft", "calls"),
    "sampling.sample_counts.calls": ("sampling.sample_counts", "calls"),
    "sampling.shots_drawn": ("sampling.sample_counts", "work"),
}

# Every per-layer metric in report order, with its unit.
PER_LAYER_UNITS = {
    "statevector.apply_controlled_unitary.calls": "count",
    "statevector.apply_controlled_unitary.self_s": "s",
    "statevector.apply_controlled_unitary.us_per_call": "us",
    "statevector.amplitudes_scanned": "count",
    "statevector.apply_hadamard_layer.self_s": "s",
    "statevector.apply_qft.calls": "count",
    "statevector.apply_qft.self_s": "s",
    "encoding.build_rho.calls": "count",
    "encoding.build_rho.self_s": "s",
    "encoding.encode_function.self_s": "s",
    "pipelines.pointwise_multiply_state.self_s": "s",
    "pipelines.extract_component.self_s": "s",
    "pipelines.convolve_optimized.self_s": "s",
    "pipelines.classical_dft.calls": "count",
    "pipelines.classical_dft.self_s": "s",
    "pipelines.classical_circular_convolution.self_s": "s",
    "sampling.sample_counts.calls": "count",
    "sampling.sample_counts.self_s": "s",
    "sampling.shots_drawn": "count",
    "sampling.ns_per_shot": "ns",
    "sampling.decode_component.self_s": "s",
    "sampling.fidelity_percent.self_s": "s",
    "audio.load_wav.self_s": "s",
    "audio.write_wav.self_s": "s",
    "audio.make_chunks.self_s": "s",
    "audio.process_chunks.self_s": "s",
    "audio.chunks": "count",
    "audio.chunk_ms.p50": "ms",
    "audio.chunk_ms.p99": "ms",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans for the calls made while `installed()` is active."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            amount = work(args, kwargs) if work else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, amount)

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, work in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn, work))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def summarize_call(spans, wall_s: float, chunk_entry: str) -> dict:
    """Per-call totals: self seconds and counts per metric, plus chunk gaps in ms."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, calls, work = Counter(), Counter(), Counter()
    top_ns = 0
    for i, (name, start, end, parent, amount) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]
        calls[name] += 1
        work[name] += amount
        if parent < 0:
            top_ns += end - start
    out = {metric: sum(self_ns[s] for s in names) / 1e9
           for metric, names in SELF_TIMES.items()}
    out["cli.self_s"] = wall_s - top_ns / 1e9
    for metric, (name, kind) in COUNTS.items():
        out[metric] = (calls if kind == "calls" else work)[name]
    starts = [start for name, start, *_ in spans if name == chunk_entry]
    out["audio.chunks"] = len(starts)
    out["chunk_gaps_ms"] = [(b - a) / 1e6 for a, b in zip(starts, starts[1:])]
    out["wall_s"] = wall_s
    return out


def per_layer_metrics(summaries, untraced_walls) -> tuple:
    """Medians over traced calls; returns (metrics, problems)."""
    problems = []
    metrics = {}
    for metric in [*SELF_TIMES, "cli.self_s"]:
        metrics[metric] = statistics.median(s[metric] for s in summaries)
    for metric in [*COUNTS, "audio.chunks"]:
        values = {s[metric] for s in summaries}
        if len(values) != 1:
            problems.append(f"count {metric} did not repeat: {sorted(values)}")
        metrics[metric] = max(values)
    metrics["statevector.apply_controlled_unitary.us_per_call"] = statistics.median(
        1e6 * s["statevector.apply_controlled_unitary.self_s"]
        / s["statevector.apply_controlled_unitary.calls"]
        if s["statevector.apply_controlled_unitary.calls"] else 0.0
        for s in summaries)
    metrics["sampling.ns_per_shot"] = statistics.median(
        1e9 * s["sampling.sample_counts.self_s"] / s["sampling.shots_drawn"]
        if s["sampling.shots_drawn"] else 0.0
        for s in summaries)
    gaps = [g for s in summaries for g in s["chunk_gaps_ms"]]
    metrics["audio.chunk_ms.p50"] = float(np.percentile(gaps, 50)) if gaps else 0.0
    metrics["audio.chunk_ms.p99"] = float(np.percentile(gaps, 99)) if gaps else 0.0
    traced = statistics.median(s["wall_s"] for s in summaries)
    untraced = statistics.median(untraced_walls)
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return {m: metrics[m] for m in PER_LAYER_UNITS}, problems


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\twork\n")
        for i, (name, start, end, parent, amount) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{amount}\n")
