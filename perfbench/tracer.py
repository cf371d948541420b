"""Span recorder that wraps the package's public functions from outside.

Each wrapped call records a span (name, start, end, parent span, op id)
into an in-memory list; the worker writes the list out when the run
ends. A wrapper replaces every binding of the original object in every
``toruspos`` module, because ``from .lattice import complex_hessian``
gives ``curvature`` and ``normalizer`` bindings of their own. Kernel
wrappers (numpy entry points) only record while a package span is open,
so the benchmark's own numpy calls are not counted.

Self time is a span's duration minus the durations of its direct
children; calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: Spans around calls into the package, by layer. ``aligned_metric_matrix``
#: is recorded only to count search candidates.
LAYER_FUNCTIONS = {
    "expressions": ("evaluate_expression",),
    "lattice": (
        "constant_representative", "complex_hessian", "poisson_solve",
        "compensated_sum",
    ),
    "curvature": (
        "chern_curvature", "scalar_curvature", "degree_integral", "volume_integral",
    ),
    "qpositivity": (
        "generalized_eigenvalues", "uniformize_metric", "check_q_positive",
        "check_uniform_q_positive",
    ),
    "normalizer": (
        "normalize_scalar_curvature", "certify_n_minus_1_positive",
        "target_constant", "aligned_metric_matrix",
    ),
    "suite": ("equivalence_suite", "dual_not_pseudo_effective", "random_bundle"),
    "cli": ("main",),
}

#: Validation gates: the ``__post_init__`` of these field classes.
LAYER_CLASSES = (("lattice", "HermitianMatrixField"), ("lattice", "MetricField"))

#: Kernel name -> numpy (module, attribute) entry points.
KERNELS = {
    "eigvalsh": ((np.linalg, "eigvalsh"),),
    "eigh": ((np.linalg, "eigh"),),
    "einsum": ((np, "einsum"),),
    "fft": ((np.fft, "fftn"), (np.fft, "ifftn")),
}

AUX_SPANS = {"normalizer.aligned_metric_matrix"}


def _matrices(args, result) -> int:
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _fft_bytes(args, result) -> int:
    return int(np.asarray(args[0]).nbytes + result.nbytes)


def _points(args, result) -> int:
    return int(np.prod(args[0].geometry.grid_shape, dtype=np.int64))


KERNEL_EXTRA = {"eigvalsh": _matrices, "eigh": _matrices, "fft": _fft_bytes}


#: Columns of a span row; ``parent`` is the row index of the enclosing
#: span (-1 for an op's root span), ``extra`` the points, matrices or bytes.
SPAN_FIELDS = ("name", "start", "end", "parent", "op", "extra")


class Recorder:
    """In-memory spans, one row per call, columns as in SPAN_FIELDS."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        #: wrappers stay installed; while False they only forward the call
        self.enabled = False

    def _wrap(self, name, fn, extra=None, kernel=False):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (kernel and len(stack) < 2):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                row = spans[index]
                row[1], row[2] = start, end
            if extra is not None:
                spans[index][5] = extra(args, result)
            return result

        return wrapper

    def op_span(self, op: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op``, recording its spans."""
        self.op, self.enabled = op, True
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self.enabled = False

    def install(self) -> None:
        """Patch every binding of every traced object; note what is absent."""
        pkg = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "toruspos" or k.startswith("toruspos."))]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"toruspos.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for m in pkg:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        for layer, cls_name in LAYER_CLASSES:
            cls = getattr(sys.modules.get(f"toruspos.{layer}"), cls_name, None)
            original = vars(cls).get("__post_init__") if cls is not None else None
            if original is None:
                self.missing.append(f"{layer}.{cls_name}")
                continue
            extra = _points if cls_name == "HermitianMatrixField" else None
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", original, extra)
        for kernel, entries in KERNELS.items():
            for module, attr in entries:
                original = getattr(module, attr)
                wrapper = self._wrap(
                    f"kernel.{kernel}", original, KERNEL_EXTRA.get(kernel), kernel=True
                )
                setattr(module, attr, wrapper)
                for m in pkg:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def summary(self) -> dict:
        """Per-name totals: calls, incl_ms, self_ms and summed extra."""
        child_s = defaultdict(float)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0, "extra": 0})
        for index, (name, start, end, parent, op, extra) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["incl_ms"] += 1e3 * (end - start)
            row["self_ms"] += 1e3 * (end - start - child_s[index])
            row["extra"] += extra
        search_parent = "suite.dual_not_pseudo_effective"
        candidates = sum(
            1 for name, _, _, parent, _, _ in self.spans
            if name == "normalizer.aligned_metric_matrix"
            and parent >= 0 and self.spans[parent][0] == search_parent
        )
        return {"names": dict(out), "search_candidates": candidates}


def per_layer_metrics(summary: dict, instances: int, overhead: float) -> dict:
    """Per-layer metric values and units, named as in BENCHMARK.json."""
    names = summary["names"]
    empty = {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0, "extra": 0}
    metrics = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for function in functions:
            key = f"{layer}.{function}"
            if key in AUX_SPANS:
                continue
            row = names.get(key, empty)
            metrics[f"{key}.calls"] = (row["calls"], "count")
            metrics[f"{key}.incl_ms"] = (row["incl_ms"], "ms")
            metrics[f"{key}.self_ms"] = (row["self_ms"], "ms")
    for layer, cls_name in LAYER_CLASSES:
        key = f"{layer}.{cls_name}"
        row = names.get(key, empty)
        metrics[f"{key}.calls"] = (row["calls"], "count")
        metrics[f"{key}.incl_ms"] = (row["incl_ms"], "ms")
        metrics[f"{key}.self_ms"] = (row["self_ms"], "ms")
        if cls_name == "HermitianMatrixField":
            metrics[f"{key}.points"] = (row["extra"], "count")
    for kernel in KERNELS:
        row = names.get(f"kernel.{kernel}", empty)
        metrics[f"kernel.{kernel}.calls"] = (row["calls"], "count")
        metrics[f"kernel.{kernel}.ms"] = (row["incl_ms"], "ms")
        if kernel in ("eigvalsh", "eigh"):
            metrics[f"kernel.{kernel}.matrices"] = (row["extra"], "count")
        elif kernel == "fft":
            metrics["kernel.fft.bytes"] = (row["extra"], "B")
    chern = names.get("curvature.chern_curvature", empty)["calls"]
    gates = names.get("lattice.HermitianMatrixField", empty)["calls"]
    searches = names.get("suite.dual_not_pseudo_effective", empty)["calls"]
    metrics["curvature.chern_curvature.per_instance"] = (chern / instances, "1/instance")
    metrics["lattice.HermitianMatrixField.per_instance"] = (gates / instances, "1/instance")
    metrics["suite.search.candidates_per_call"] = (
        summary["search_candidates"] / searches if searches else 0.0, "1/call"
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics
