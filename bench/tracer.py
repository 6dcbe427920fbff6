"""Outside-in tracer: wraps public ``oks`` functions where the package binds them.

The program is not edited. Each traced function is replaced, for the length
of a ``with tracer:`` block, in every ``oks`` module namespace that binds it
(``oks.gram_cross``, ``oks.kernels.gram_cross``, ``oks.sparsifier.gram_cross``,
...), and methods are replaced on their class. A wrapped call records a span
(id, parent, name, start, end) in memory and adds the call's counters; the
parent is the innermost traced call open on the same thread. Self time is a
span's duration minus the durations of its child spans, which run on the same
thread one after another and so never overlap.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _entries(args, kwargs, result, add):
    add("entries", np.size(result))


def _solve_bytes(args, kwargs, result, add):
    # computed, not measured: the factor operand is |D| x |D| float64
    add("bytes", 8 * np.shape(args[0])[0] ** 2)


def _logdet(args, kwargs, result, add):
    shape = np.shape(args[0])
    matrices = math.prod(shape[:-2])
    add("matrices", matrices)
    add("flops", matrices * shape[-1] ** 3 / 3)  # computed: Cholesky-type elimination


def _cells(args, kwargs, result, add):
    add("cells", result.log_values.size)


def _offer(args, kwargs, result, add):
    add("offered", 1)
    add("admitted", int(result.admitted))
    add("zero_residuals", int(result.residual == 0))
    add("dict_size_max", len(args[0]), how=max)


@dataclass(frozen=True)
class Target:
    layer: str
    name: str  # metric stem: "<layer>.<name>.<counter>"
    module: str  # where the function (or its class) is looked up
    attr: str  # "func" or "Class.method"
    count: Callable | None = None
    keys: tuple = ()  # counters that ``count`` adds to


TARGETS = [
    Target("sparsifier", "solve_triangular", "oks.sparsifier", "solve_triangular", _solve_bytes,
           ("bytes",)),
    Target("sparsifier", "offer", "oks.sparsifier", "Dictionary.offer", _offer,
           ("offered", "admitted", "zero_residuals", "dict_size_max")),
    Target("kernels", "gram_cross", "oks.kernels", "gram_cross", _entries, ("entries",)),
    Target("kernels", "eval_kernel", "oks.kernels", "eval_kernel"),
    Target("kernels", "kernel_diag", "oks.kernels", "kernel_diag"),
    Target("kernels", "gram", "oks.kernels", "gram"),
    Target("kernels", "logdet_psd_stack", "oks.kernels", "logdet_psd_stack", _logdet,
           ("matrices", "flops")),
    Target("symfun", "esp_table", "oks.symfun", "esp_table", _cells, ("cells",)),
    Target("symfun", "log_nu", "oks.symfun", "log_nu"),
    Target("bounds", "growth_prediction", "oks.bounds", "growth_prediction"),
    Target("bounds", "sample_threshold", "oks.bounds", "sample_threshold"),
    Target("bounds", "dict_tail_bound", "oks.bounds", "dict_tail_bound"),
    Target("spectrum", "synthetic_spectrum", "oks.spectrum", "synthetic_spectrum"),
    Target("harness", "sampler_points", "oks.harness", "Sampler.points"),
    Target("harness", "power_iteration_norm", "oks.harness", "power_iteration_norm"),
    Target("harness", "nystrom_compare", "oks.harness", "nystrom_compare"),
    Target("harness", "growth_experiment", "oks.harness", "growth_experiment"),
    Target("regress", "features", "oks.regress", "features", _entries, ("entries",)),
    Target("regress", "fit", "oks.regress", "fit"),
    Target("regress", "read_labeled_csv", "oks.regress", "read_labeled_csv"),
    Target("cli", "write_csv", "oks.harness", "write_csv"),
    Target("cli", "write_manifest", "oks.harness", "write_manifest"),
]


class Tracer:
    """Collects spans and counters while active; reusable across blocks."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id or -1, target name, start ns, end ns)
        self.counters = {f"{t.layer}.{t.name}.{key}": 0.0 for t in TARGETS for key in t.keys}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple] = []  # (owner, attribute, original)
        self.unbound: list[str] = []

    def _add(self, name: str):
        def add(key: str, value, how=None):
            full = f"{name}.{key}"
            with self._lock:
                old = self.counters[full]
                self.counters[full] = how(old, value) if how else old + value
        return add

    def _wrap(self, target: Target, func: Callable) -> Callable:
        stem = f"{target.layer}.{target.name}"
        add = self._add(stem)
        local = self._local
        spans = self.spans
        ids = self._ids
        count = target.count

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, stem, start, end))
            if count is not None:
                count(args, kwargs, result, add)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        oks_modules = [m for name, m in list(sys.modules.items())
                       if name == "oks" or name.startswith("oks.")]
        self.unbound = []
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            cls_name, _, method = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.unbound.append(f"{target.layer}.{target.name}")
                    continue
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(target, original))
                continue
            original = getattr(owner, target.attr, None)
            wrapped = self._wrap(target, original)
            bindings = [(module, attr) for module in oks_modules
                        for attr, value in vars(module).items() if value is original]
            if original is None or not bindings:
                self.unbound.append(f"{target.layer}.{target.name}")
                continue
            for module, attr in bindings:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """Per target name: (calls, total self seconds, list of durations in s)."""
        child = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        durations = defaultdict(list)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child[sid]
            durations[name].append((end - start) / 1e9)
        return {name: (calls[name], self_ns[name] / 1e9, durations[name]) for name in calls}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)
