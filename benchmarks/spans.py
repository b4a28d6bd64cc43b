"""Per-layer tracing of commkit from outside the program.

Wraps the public functions of each module in spans and counts calls at the
layer boundaries.  Every binding of a wrapped function is replaced, including
the ones that ``from .matrices import ...`` copied into other modules, so the
CLI's own calls are seen too.  Spans nest: a layer's self time is its
duration minus the time of the spans it encloses, so the self times of all
layers plus the root ``cli`` span add up to the time spent in ``cli.main``.

``LazyOp.apply`` recurses through the expression tree; only the outermost
call opens a span, nested calls are only counted.  ``EpsScalar`` arithmetic
is counted, not timed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) -> layer name; the metric is "<layer>_s".
SPANS = {
    ("commkit.matrices", "operator_norm"): "matrices.operator_norm",
    ("commkit.matrices", "spectral_radius"): "matrices.spectral_radius",
    ("commkit.matrices", "permutation_triangularization"): "matrices.triangularize",
    ("commkit.matrices", "entrywise_leq"): "matrices.entrywise_leq",
    ("commkit.matrices", "read_matrix"): "matrices.read_matrix",
    ("commkit.matrices", "matrix_to_json_dict"): "matrices.to_json",
    ("commkit.lazyops", "compress"): "lazyops.compress",
    ("commkit.constructions", "nilpotent_commutator_factors"): "constructions.factor_nilpotent",
    ("commkit.constructions", "trace_zero_commutator_factors"): "constructions.factor_tracezero",
    ("commkit.constructions", "halmos_pair_scaled"): "constructions.halmos_pair",
    ("commkit.verifiers", "finite_dim_obstructions"): "verifiers.obstructions",
    ("commkit.verifiers", "power_inequality_report"): "verifiers.power",
    ("commkit.verifiers", "wielandt_violation_witness"): "verifiers.wielandt",
}

ROOT = "cli"
APPLY = "lazyops.apply"

# EpsScalar method -> counter name.
SCALAR_COUNTS = {
    "__mul__": "scalars.mul_calls",
    "__rmul__": "scalars.mul_calls",
    "__add__": "scalars.add_calls",
    "__radd__": "scalars.add_calls",
    "evaluate": "scalars.evaluate_calls",
}


class Tracer:
    """Aggregates span self times and boundary counts for one process."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._child_s: list[float] = []  # time covered by children, per open span
        self._in_outermost = False

    def _enter(self) -> float:
        self._child_s.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        self.self_s[name] += duration - self._child_s.pop()
        self.counts[name + "_calls"] += 1
        if self._child_s:
            self._child_s[-1] += duration

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)

        return wrapper

    def outermost_span(self, name: str, fn):
        """Count every call of a recursive ``fn``; time only the outermost one."""

        def wrapper(*args, **kwargs):
            if self._in_outermost:
                self.counts[name + "_calls"] += 1
                return fn(*args, **kwargs)
            self._in_outermost = True
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)
                self._in_outermost = False

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded commkit modules."""
        from commkit.lazyops import LazyOp
        from commkit.scalars import EpsScalar

        modules = [m for k, m in sys.modules.items() if k == "commkit" or k.startswith("commkit.")]
        for (module_name, attr), name in SPANS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.span(name, original)
            if name == "matrices.operator_norm":
                wrapper = self._inspect_norm_input(wrapper)
            elif name == "matrices.read_matrix":
                wrapper = self._count_read_bytes(wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        LazyOp.apply = self.outermost_span(APPLY, LazyOp.apply)
        for method, name in SCALAR_COUNTS.items():
            setattr(EpsScalar, method, self.counter(name, getattr(EpsScalar, method)))

    def _inspect_norm_input(self, wrapper):
        def inspect(a, *args, **kwargs):
            m = np.asarray(a)
            if m.ndim == 2:
                self.counts["matrices.norm_input_dim_max"] = max(
                    self.counts["matrices.norm_input_dim_max"], *m.shape)
                self.counts["matrices.norm_input_nnz"] += int(np.count_nonzero(m))
                self.counts["matrices.norm_input_cols"] += m.shape[1]
            return wrapper(a, *args, **kwargs)

        return inspect

    def _count_read_bytes(self, wrapper):
        def read(path, *args, **kwargs):
            try:
                self.counts["matrices.read_bytes"] += os.path.getsize(path)
            except OSError:
                pass  # the reader reports the missing file itself
            return wrapper(path, *args, **kwargs)

        return read

    def call_root(self, fn, *args):
        """Run the CLI entry point as the root span."""
        start = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(ROOT, start)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}
