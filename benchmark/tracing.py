"""Per-layer tracing of the grasslvq package, installed from outside it.

Every public function of the traced layers is replaced, in every grasslvq
module that binds it, by a wrapper that records a span (name, start, end,
parent). The package binds names with ``from .manifold import ...``, so
patching only the defining module would miss most calls. ``np.linalg.svd``
and ``open`` inside ``dataio`` are wrapped to count SVDs and bytes read.
Spans stay in memory until the traced call returns; ``layer_metrics`` then
derives self times, counts and ratios from them.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("dataio", "manifold", "model", "cli", "synth")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("dataio.read_pgm.calls", "count", "lower"),
    ("dataio.read_pgm.self_s", "s", "lower"),
    ("dataio.read_imageset_dirs.total_s", "s", "lower"),
    ("dataio.bytes_read", "bytes", "lower"),
    ("dataio.read_idx_dataset.total_s", "s", "lower"),
    ("dataio.build_classwise_subspace_dataset.total_s", "s", "lower"),
    ("dataio.build_per_set_subspace_dataset.total_s", "s", "lower"),
    ("dataio.save_model.total_s", "s", "lower"),
    ("dataio.load_model.total_s", "s", "lower"),
    ("manifold.principal_decomposition.calls", "count", "lower"),
    ("manifold.principal_decomposition.self_s", "s", "lower"),
    ("manifold.svd_calls", "count", "lower"),
    ("manifold.kernel_gflop_computed", "GFLOP", "lower"),
    ("manifold.kernel_mb_computed", "MB", "lower"),
    ("manifold.orthonormalize_columns.calls", "count", "lower"),
    ("manifold.orthonormalize_columns.self_s", "s", "lower"),
    ("manifold.subspace_from_set.calls", "count", "lower"),
    ("manifold.subspace_from_set.self_s", "s", "lower"),
    ("manifold.single_vector_angle.calls", "count", "lower"),
    ("manifold.single_vector_angle.self_s", "s", "lower"),
    ("model.predict_vector.calls", "count", "lower"),
    ("model.predict_vector.self_s", "s", "lower"),
    ("model.fit.total_s", "s", "lower"),
    ("model.init_prototypes.total_s", "s", "lower"),
    ("model.find_winners.calls", "count", "lower"),
    ("model.find_winners.self_s", "s", "lower"),
    ("model.apply_prototype_update.self_s", "s", "lower"),
    ("model.apply_relevance_update.self_s", "s", "lower"),
    ("model.decomposition_use_ratio", "ratio", "higher"),
    ("model.decompositions_computed", "count", "lower"),
    ("model.evaluate.total_s", "s", "lower"),
    ("model.predict_set.calls", "count", "lower"),
    ("model.predict_set.self_s", "s", "lower"),
    ("synth.generate.total_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.main.untraced_s", "s", "lower"),
    ("tracing_overhead_s", "s", "lower"),
]

# Decompositions the gradient uses per training step: the two winners.
USED_PER_STEP = 2


def kernel_cost(p1, p2, result):
    """Computed (not measured) flops and bytes of one principal_decomposition.

    P1^T W costs 2Dd^2, the two rotations U = P1 Q_P and V = W Q_W 4Dd^2, and
    the d x d SVD is taken as 21d^3 (R-SVD with both factors, Golub & Van
    Loan). The small-angle refinement adds two more D x d by d x d products
    and the residual. Bytes count each D x d float64 operand read or written
    once.
    """
    D, d = p1.basis.shape
    flops = 6 * D * d * d + 21 * d ** 3
    nbytes = 4 * 8 * D * d
    if np.any(result.cosines > 0.9):
        flops += 4 * D * d * d + 3 * D * d
        nbytes += 4 * 8 * D * d
    return flops, nbytes


class Tracer:
    """Spans and counters of one traced region, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name == "manifold.principal_decomposition":
                flops, nbytes = kernel_cost(args[0], args[1], result)
                self.counts["kernel_flops"] += flops
                self.counts["kernel_bytes"] += nbytes
            return result

        return spanned

    def counting_svd(self, svd):
        counts = self.counts

        @functools.wraps(svd)
        def counted(*args, **kwargs):
            counts["svd_calls"] += 1
            return svd(*args, **kwargs)

        return counted

    def counting_open(self, *args, **kwargs):
        f = open(*args, **kwargs)
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
        return _CountingFile(f, self.counts) if "r" in mode else f


class _CountingFile:
    """Read-side file proxy that adds every byte (text: character) returned."""

    def __init__(self, f, counts):
        self._f = f
        self._counts = counts

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def read(self, *args):
        data = self._f.read(*args)
        self._counts["bytes_read"] += len(data)
        return data

    def readline(self, *args):
        line = self._f.readline(*args)
        self._counts["bytes_read"] += len(line)
        return line

    def __iter__(self):
        for line in self._f:
            self._counts["bytes_read"] += len(line)
            yield line

    def __getattr__(self, name):
        return getattr(self._f, name)


@contextlib.contextmanager
def traced(tracer):
    """Install the tracer's wrappers for the duration of the block."""
    from grasslvq import dataio

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"grasslvq.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    patches = [(np.linalg, "svd", np.linalg.svd)]
    np.linalg.svd = tracer.counting_svd(np.linalg.svd)
    modules = [m for key, m in list(sys.modules.items())
               if key == "grasslvq" or key.startswith("grasslvq.")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    dataio.open = tracer.counting_open
    try:
        yield tracer
    finally:
        del dataio.open
        for module, name, obj in reversed(patches):
            setattr(module, name, obj)


def layer_metrics(tracer):
    """Per-layer metrics of one traced region, except the two the caller
    measures: cli.main.untraced_s and tracing_overhead_s.

    A span's self time is its duration minus the durations of its direct
    children; a function's self_s and total_s sum over all its spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    computed = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if (name == "manifold.principal_decomposition" and parent >= 0
                and spans[parent][0] == "model.find_winners"):
            computed += 1
    used = USED_PER_STEP * calls["model.find_winners"]
    metrics = {
        "dataio.bytes_read": tracer.counts["bytes_read"],
        "manifold.svd_calls": tracer.counts["svd_calls"],
        "manifold.kernel_gflop_computed": tracer.counts["kernel_flops"] / 1e9,
        "manifold.kernel_mb_computed": tracer.counts["kernel_bytes"] / 1e6,
        # the base is decompositions_computed; 0 when no training step ran
        "model.decomposition_use_ratio": used / computed if computed else 0.0,
        "model.decompositions_computed": computed,
    }
    for name, _, _ in PER_LAYER:
        function, _, field = name.rpartition(".")
        if name in metrics:
            continue
        if field == "calls":
            metrics[name] = calls[function]
        elif field == "self_s":
            metrics[name] = self_time[function]
        elif field == "total_s":
            metrics[name] = total[function]
    return metrics
