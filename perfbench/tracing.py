"""Span tracing of the looptoda layers, installed from outside the package.

A span wraps one public function where its callers look it up: the
wrapper replaces the function object in every ``looptoda`` module that
binds it (``solver`` imports ``expm`` by name, so both
``looptoda.lie_core.expm`` and ``looptoda.solver.expm`` are replaced),
and ``numpy.linalg.inv`` is replaced on ``numpy.linalg``, where the
package looks it up.  Each span records (name, start, end, parent) into
arrays kept in memory until :meth:`Tracer.write` is called.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from array import array

#: (module, attribute) pairs to wrap, with the span name used for each.
TARGETS = (
    ("looptoda.lie_core", "expm", "lie_core.expm"),
    ("looptoda.lie_core", "sqrtm_near_identity", "lie_core.sqrtm_near_identity"),
    ("looptoda.lie_core", "logm_near_identity", "lie_core.logm_near_identity"),
    ("numpy.linalg", "inv", "numpy.linalg.inv"),
    ("looptoda.toda", "rhs_dispatch", "toda.rhs_dispatch"),
    ("looptoda.toda", "build_system", "toda.build_system"),
    ("looptoda.toda", "rhs_blocks_vs_full", "toda.rhs_blocks_vs_full"),
    ("looptoda.solver", "integrate", "solver.integrate"),
    ("looptoda.solver", "write_history_csv", "solver.write_history_csv"),
    ("looptoda.gradation", "grading_component", "gradation.grading_component"),
    ("looptoda.gradation", "apply_automorphism", "gradation.apply_automorphism"),
    ("looptoda.gradation", "validate_spec", "gradation.validate_spec"),
    ("looptoda.gradation", "enumerate_specs", "gradation.enumerate_specs"),
    ("looptoda.gradation", "block_index_table", "gradation.block_index_table"),
    ("looptoda.folding", "verify_fold_invariance", "folding.verify_fold_invariance"),
    ("looptoda.cli", "main", "cli.main"),
)

#: spans whose first argument is a matrix stack; they also count matrices.
_MATRIX_SPANS = frozenset((
    "lie_core.expm", "lie_core.sqrtm_near_identity", "lie_core.logm_near_identity",
    "numpy.linalg.inv",
))


def _stack_count(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    count = 1
    for d in shape[:-2]:
        count *= d
    return count


class Tracer:
    """Records spans and per-name tallies for the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.tally: dict[str, dict[str, float]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _parent_name(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    def _wrap(self, name: str, fn):
        tracer = self
        counts_matrices = name in _MATRIX_SPANS

        def wrapper(*args, **kwargs):
            span = name
            extra = {}
            if name == "toda.rhs_dispatch":
                span = f"toda.rhs_dispatch.{args[0].equation_class}"
                if tracer._parent_name() == "solver.integrate":
                    extra["rhs_in_integrate"] = 1
            if counts_matrices and args:
                extra["matrices"] = _stack_count(args[0])
            idx = len(tracer.span_start)
            tracer.span_name.append(tracer._name_id(span))
            tracer.span_parent.append(tracer._stack[-1][0] if tracer._stack else -1)
            tracer.span_end.append(0)
            frame = [idx, 0]
            tracer._stack.append(frame)
            tracer.span_start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.span_end[idx] = end
                tracer._stack.pop()
                duration = end - tracer.span_start[idx]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                entry = tracer.tally.setdefault(span, {"calls": 0, "self_ns": 0})
                entry["calls"] += 1
                entry["self_ns"] += duration - frame[1]
                for key, value in extra.items():
                    entry[key] = entry.get(key, 0) + value
            if name == "solver.integrate":
                entry["rows"] = entry.get("rows", 0) + max(result.completed_rows - 1, 0)
            elif name == "solver.write_history_csv":
                entry["lines"] = entry.get("lines", 0) + result
                entry["bytes"] = entry.get("bytes", 0) + os.path.getsize(args[1])
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the looptoda modules."""
        scope = [m for n, m in list(sys.modules.items()) if n == "looptoda" or n.startswith("looptoda.")]
        for module_name, attr, span in TARGETS:
            home = sys.modules[module_name]
            original = getattr(home, attr)
            wrapper = self._wrap(span, original)
            for module in [home] + scope:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take_tally(self) -> dict[str, dict[str, float]]:
        """Return the tallies since the last call and start new ones."""
        tally, self.tally = self.tally, {}
        return tally

    def write(self, path: str) -> int:
        """Write every recorded span as gzipped JSON; returns the span count."""
        count = len(self.span_start)
        t0 = self.span_start[0] if count else 0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for i in range(count):
                fh.write(f"[{self.span_name[i]},{self.span_start[i] - t0},"
                         f"{self.span_end[i] - t0},{self.span_parent[i]}]\n")
        return count
