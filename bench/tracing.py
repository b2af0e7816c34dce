"""Spans around calls into each ``anchorlap`` module, kept in memory.

The tracer patches public functions from the outside: every module
attribute that holds the original function (the defining module and each
module that imported the name, such as ``emo.max_overlap_values`` or
``matching.iou_xywh``) is replaced by one wrapper, and restored by
:meth:`Tracer.uninstall`.  Nothing inside the program changes.

A span records a name, start, end, parent, the operation it ran in and one
optional size.  A call made on a thread with no open span of its own (the
``emo --mc`` pool threads) takes the main thread's innermost open span as
its parent, so pool work is attributed to the operation that started it.
A layer's self time is its spans' duration minus the part of it that child
spans cover; children on parallel threads are merged as an interval union.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _parse_counts(tracer, args, result):
    tracer.count("dataset.faces_parsed", len(result.records))
    tracer.count("dataset.faces_skipped", result.skipped)


def _kernel_counts(tracer, args, result):
    layout = args["layout"]
    tracer.count("matching.kernel_pairs", 4 * int(np.size(result)) * len(layout.groups))
    if tracer.op == "optimize":
        tracer.count("optimizer.group_kernels", len(layout.groups))
        tracer.kernel_groups.update(
            (g.scale, g.ratio, g.stride, g.origin_x, g.origin_y) for g in layout.groups
        )


def _compensation_counts(tracer, args, result):
    before = args["result"]
    promoted = int(np.count_nonzero(result.anchor_labels == 1)) - int(
        np.count_nonzero(before.anchor_labels == 1)
    )
    tracer.count("matching.hard_faces", int(np.count_nonzero(before.face_max_iou < args["cfg"].t_high)))
    tracer.count("matching.compensated_anchors", promoted)


def _mc_counts(tracer, args, result):
    tracer.count("emo.mc_samples", args["samples"])


# (module, function, span name, size, counters).  ``size`` maps (arguments,
# result) to one number kept on the span; ``counters`` adds to the tracer's
# counters.  Arguments are bound by name only for the functions in _BIND and
# are None otherwise, which keeps the hot wrappers cheap.
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("specfile", "load_spec", "specfile.load", None, None),
    ("specfile", "load_space", "specfile.load", None, None),
    ("dataset", "parse_annotations", "dataset.parse_annotations", None, _parse_counts),
    ("dataset", "bucket_stats", "dataset.bucket_stats", None, None),
    ("dataset", "jitter_experiment", "dataset.jitter_experiment", None, None),
    ("dataset", "bounding_plane", "dataset.bounding_plane", None, None),
    ("layout", "build_layout", "layout.build_layout", None,
     lambda t, a, r: t.count("layout.anchors_built", r.anchor_count)),
    ("matching", "max_overlap_values", "matching.max_overlap_values", None, _kernel_counts),
    ("matching", "match_faces", "matching.match_faces", None, None),
    ("matching", "overlapping_anchors", "matching.overlapping_anchors", None,
     lambda t, a, r: t.count("matching.window_hits", len(r[0]))),
    ("matching", "compensate_hard_faces", "matching.compensate_hard_faces", None,
     _compensation_counts),
    ("matching", "apply_jitter", "matching.apply_jitter", None, None),
    # size: box pairs evaluated, the broadcast size of the result.
    ("geometry", "iou_xywh", "geometry.iou_xywh", lambda a, r: np.size(r), None),
    ("optimizer", "enumerate_configs", "optimizer.enumerate_configs", None,
     lambda t, a, r: t.count("optimizer.configs", len(r))),
    ("optimizer", "evaluate_config", "optimizer.evaluate_config", None, None),
    # size: Monte Carlo workers, the capacity behind worker utilization.
    ("emo", "emo_monte_carlo", "emo.emo_monte_carlo", lambda a, r: a["workers"], _mc_counts),
    ("rng", "stream", "rng.stream", None, None),
)

# Targets whose size or counters read arguments by name.
_BIND = {"max_overlap_values", "compensate_hard_faces", "emo_monte_carlo"}


PACKAGE = "anchorlap"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.kernel_groups: set = set()
        self.op = ""  # the operation now running; set by the caller
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, size, counters):
        sig = inspect.signature(fn) if fn.__name__ in _BIND else None

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            with self._lock:
                idx = len(self.names)
                self.names.append(name)
                self.starts.append(0.0)
                self.ends.append(0.0)
                self.parents.append(parent)
                self.sizes.append(0.0)
            stack.append(idx)
            self.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                stack.pop()
            bound = None
            if sig is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            if size is not None:
                self.sizes[idx] = float(size(bound, result))
            if counters is not None:
                counters(self, bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a module of the package looks it up."""
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for mod_name, fn_name, span_name, size, counters in TARGETS:
            original = getattr(importlib.import_module(prefix + mod_name), fn_name)
            wrapper = self._wrap(original, span_name, size, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _self_times(self) -> np.ndarray:
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        children: dict[int, list[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        self_t = ends - starts
        for parent, kids in children.items():
            lo, hi = starts[parent], ends[parent]
            covered = 0.0
            run_lo = run_hi = None
            for k in sorted(kids, key=lambda k: starts[k]):
                a, b = max(starts[k], lo), min(ends[k], hi)
                if b <= a:
                    continue
                if run_hi is None or a > run_hi:
                    if run_hi is not None:
                        covered += run_hi - run_lo
                    run_lo, run_hi = a, b
                else:
                    run_hi = max(run_hi, b)
            if run_hi is not None:
                covered += run_hi - run_lo
            self_t[parent] -= covered
        return self_t

    def metrics(self) -> dict[str, float]:
        """Self time and calls per span name, the counters, and the ratios."""
        names = np.asarray(self.names, dtype=object)
        parents = np.asarray(self.parents, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.float64)
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        self_t = self._self_times()

        out: dict[str, float] = {}
        for _, _, span_name, _, _ in TARGETS:
            mask = names == span_name
            out[f"{span_name}.self_s"] = float(self_t[mask].sum())
            out[f"{span_name}.calls"] = int(np.count_nonzero(mask))
        for key in ("dataset.faces_parsed", "dataset.faces_skipped", "layout.anchors_built",
                    "matching.kernel_pairs", "matching.window_hits", "matching.hard_faces",
                    "matching.compensated_anchors", "optimizer.configs",
                    "optimizer.group_kernels", "emo.mc_samples"):
            out[key] = int(self.counters.get(key, 0))

        iou = names == "geometry.iou_xywh"
        out["geometry.iou_xywh.pairs"] = int(sizes[iou].sum())
        out["geometry.iou_xywh.pairs_per_call"] = (
            out["geometry.iou_xywh.pairs"] / out["geometry.iou_xywh.calls"]
            if out["geometry.iou_xywh.calls"] else 0.0
        )

        # Window pairs: IoU pairs evaluated directly under overlapping_anchors.
        in_window = np.zeros(len(names), dtype=bool)
        linked = parents >= 0
        in_window[linked] = names[parents[linked]] == "matching.overlapping_anchors"
        pairs = int(sizes[iou & in_window].sum())
        out["matching.window_pairs"] = pairs
        out["matching.window_hit_ratio"] = out["matching.window_hits"] / pairs if pairs else 0.0

        kernels = out["optimizer.group_kernels"]
        out["optimizer.distinct_groups"] = len(self.kernel_groups)
        out["optimizer.group_reuse_ratio"] = len(self.kernel_groups) / kernels if kernels else 0.0

        # Worker utilization: busy time of the direct children of
        # emo_monte_carlo (chunk streams and kernels, on any thread) over
        # workers x the call's wall time.
        busy = capacity = 0.0
        for i in np.flatnonzero(names == "emo.emo_monte_carlo"):
            busy += float(durations[parents == i].sum())
            capacity += sizes[i] * durations[i]
        out["emo.mc_worker_utilization"] = busy / capacity if capacity else 0.0
        return out
