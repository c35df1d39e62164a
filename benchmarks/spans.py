"""In-memory spans around the public functions of each reskernel module.

A :class:`Tracer` replaces every function listed in :data:`LAYERS` with a
wrapper in each ``reskernel`` module that bound it, so that
``richness.extract_motifs`` and ``cli.extract_motifs`` are both wrapped.
Each call records one span (name, start, end, parent, run id) in memory;
leaving the ``with`` block restores the original functions.  Spans are
written out once, by :meth:`Tracer.write`, after the run has ended.

Counters are taken at the same boundaries as the spans, from the
arguments and results of the wrapped call, so ratios such as the useful
share of eigenpairs are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

# The layers are the package modules; each entry lists the functions whose
# spans the benchmark records.
LAYERS = {
    "coupling": ("generate_reservoir",),
    "numerics": ("sym_eig", "largest_singular_value"),
    "temporal_kernel": ("build_metric_tensor", "simulate_state", "kernel_eval",
                        "readout_eval"),
    "motifs": ("extract_motifs", "predict_cycle", "compare_motifs"),
    "richness": ("coefficient_cloud", "grid_summary", "sweep"),
    "verify": ("run_kernel_state_equivalence", "run_spectrum_properties",
               "run_initial_state_error_containment"),
    "_io": ("write_csv",),
    "cli": ("main",),
}


def span_name(module: str, func: str) -> str:
    """Metric names start with a letter, so ``_io`` is reported as ``io``."""
    return f"{module.lstrip('_')}.{func}"


TRACED = tuple(span_name(module, func) for module, funcs in LAYERS.items() for func in funcs)

# Relative cut-off for counting an eigenpair as useful; the same default
# numerics.numerical_rank uses.
RANK_RTOL = 1e-10
# Textbook cost of a dense symmetric eigendecomposition with eigenvectors
# (tridiagonal reduction, implicit QR and back-transformation), in flops
# per n^3 (Golub & Van Loan, Matrix Computations, section 8.3).
EIGH_FLOPS_PER_N3 = 9


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 for a root
    run_id: str


def self_times_ns(spans: list[Span]) -> list[int]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        reach = span.start_ns
        for child in sorted(children[i], key=lambda c: c.start_ns):
            lo = max(child.start_ns, reach)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end_ns - span.start_ns - covered)
    return out


def _count_sym_eig(counts, args, kwargs, result):
    values = result.eigenvalues
    n = int(values.shape[0])
    counts["n"] += n
    counts["max_n"] = max(counts["max_n"], n)
    counts["flops_computed"] += EIGH_FLOPS_PER_N3 * n**3
    counts["rank"] += int(np.count_nonzero(values > RANK_RTOL * max(float(values[0]), 0.0)))


def _count_build(counts, args, kwargs, result):
    # The feature matrix (state_dim x horizon) and the horizon^2 tensor.
    counts["bytes_computed"] += 8 * (result.state_dim * result.horizon + result.horizon**2)


def _count_extract(counts, args, kwargs, result):
    counts["retained"] += len(result)
    counts["candidates"] += result.horizon


def _count_grid(counts, args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    counts["discarded"] += result.discarded_points
    counts["points"] += len(cloud)


def _count_write(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["bytes"] += os.path.getsize(path)


COUNTERS = {
    "numerics.sym_eig": _count_sym_eig,
    "temporal_kernel.build_metric_tensor": _count_build,
    "motifs.extract_motifs": _count_extract,
    "richness.grid_summary": _count_grid,
    "io.write_csv": _count_write,
}


class Tracer:
    """Wraps the :data:`LAYERS` functions while it is entered."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counts: dict[str, dict] = {name: defaultdict(int) for name in TRACED}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        counter = COUNTERS.get(name)
        run_id = self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, run_id)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module_name in LAYERS:
            importlib.import_module(f"reskernel.{module_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "reskernel" or key.startswith("reskernel.")]
        for module_name, funcs in LAYERS.items():
            home = sys.modules[f"reskernel.{module_name}"]
            for func_name in funcs:
                original = getattr(home, func_name)
                wrapper = self._wrap(span_name(module_name, func_name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time, plus the counter-based metrics."""
        spans = [s for s in self.spans if s is not None]
        selfs = self_times_ns(spans)
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for span, own in zip(spans, selfs):
            calls[span.name] += 1
            self_ns[span.name] += own
            total_ns[span.name] += span.end_ns - span.start_ns
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        out["numerics.largest_singular_value.total_s"] = (
            total_ns["numerics.largest_singular_value"] / 1e9)
        eig = self.counts["numerics.sym_eig"]
        out["numerics.sym_eig.max_n"] = eig["max_n"]
        out["numerics.sym_eig.flops_computed"] = eig["flops_computed"]
        out["numerics.sym_eig.useful_ratio"] = _ratio(eig["rank"], eig["n"])
        out["temporal_kernel.build_metric_tensor.bytes_computed"] = (
            self.counts["temporal_kernel.build_metric_tensor"]["bytes_computed"])
        ext = self.counts["motifs.extract_motifs"]
        out["motifs.extract_motifs.retained_ratio"] = _ratio(ext["retained"], ext["candidates"])
        grid = self.counts["richness.grid_summary"]
        out["richness.grid_summary.discarded_ratio"] = _ratio(grid["discarded"], grid["points"])
        out["io.write_csv.bytes"] = self.counts["io.write_csv"]["bytes"]
        out["trace.layer_self_s"] = sum(self_ns.values()) / 1e9
        return out

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span._asdict()) + "\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
