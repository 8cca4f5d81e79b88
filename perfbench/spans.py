"""Span tracer that wraps biharmonic's public functions from outside the package.

Every wrapped call records a span: name, start, end, parent span and the
benchmark operation it belongs to. A layer's self time is its span duration
minus the time covered by its child spans. Installing the tracer rebinds every
module attribute (and every dict value held by a module attribute) that refers
to a wrapped function, so a name imported into another module, such as
``metrics.eigendecompose``, is traced as well as ``linalg.eigendecompose``.
``uninstall`` puts the original objects back; no file of the package changes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROOT = "bench.op"

LAYERS = {
    "graphs": ("read_edge_list", "parse_edge_list", "make_graph", "Graph.laplacian", "is_connected"),
    "linalg": ("jacobi_eigh", "eigendecompose", "principal_minor_det", "cholesky", "cholesky_solve"),
    "metrics": (
        "build_cache",
        "biharmonic_spectral",
        "biharmonic_pinv_entries",
        "biharmonic_determinant",
        "biharmonic_minnorm",
        "all_methods",
        "distance_matrix",
        "bounds_report",
        "biharmonic_index_spectral",
        "biharmonic_index_pairwise",
        "kirchhoff_index",
        "spanning_tree_count",
        "check_edge_monotonicity",
    ),
    "closed_forms": (
        "hypercube_distance",
        "cayley_distance",
        "character_table",
        "cartesian_distance",
        "complement_distance",
    ),
    "verification": ("verify_graph",),
    "cli": ("main",),
}

LAYER_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


def _matrix_key(a, *args, **kwargs):
    return hashlib.blake2b(np.ascontiguousarray(a, dtype=float).tobytes(), digest_size=16).digest()


def _graph_key(g, *args, **kwargs):
    return g


def _minor_flops(a, removed=(), *args, **kwargs):
    k = np.shape(a)[0] - len({int(i) for i in removed})
    return 2.0 * k**3 / 3.0


# Calls whose input was already seen within the same operation are repeats.
REPEAT_KEYS = {"linalg.eigendecompose": _matrix_key, "metrics.build_cache": _graph_key}
FLOP_COUNTERS = {"linalg.principal_minor_det": _minor_flops}


class Tracer:
    """In-memory spans and per-layer counters for one traced phase."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation id]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.repeats = Counter()
        self.flops = Counter()
        self._stack = []  # [span index, time covered by children]
        self._seen = defaultdict(set)
        self._op = 0
        self._patches = []

    def begin_op(self) -> None:
        self._op += 1
        self._seen.clear()
        self._enter(ROOT)

    def end_op(self) -> None:
        self._exit()

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        name = span[0]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn):
        key = REPEAT_KEYS.get(name)
        flops = FLOP_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k in self._seen[name]:
                    self.repeats[name] += 1
                else:
                    self._seen[name].add(k)
            if flops is not None:
                self.flops[name] += flops(*args, **kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a biharmonic module binds it."""
        modules = [importlib.import_module("biharmonic")]
        modules += [importlib.import_module(f"biharmonic.{m}") for m in LAYERS]
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"biharmonic.{module_name}")
            for qualified in names:
                owner = module
                *path, attr = qualified.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{module_name}.{qualified}", original)
                if path:  # a method: patch the class itself
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for attr_name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr_name, original, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper
                                    self._patches.append((value, k, original, True))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, False))

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        """Per-layer counters as {name: (value, unit, calls)}; 0 where a layer was not reached."""
        out = {}
        for name in LAYER_NAMES:
            calls = self.calls[name]
            out[f"{name}.calls"] = (calls, "count", calls)
            out[f"{name}.total_s"] = (self.total[name], "s", calls)
            out[f"{name}.self_s"] = (self.self_time[name], "s", calls)
        for name in REPEAT_KEYS:
            calls = self.calls[name]
            out[f"{name}.repeat_share"] = (self.repeats[name] / calls if calls else 0.0, "ratio", calls)
        for name in FLOP_COUNTERS:
            out[f"{name}.flops_computed"] = (self.flops[name], "flop", self.calls[name])
        return out

    def top_self(self, count: int = 8) -> list:
        """The layers with the most self time, as (name, seconds), largest first."""
        ranked = sorted(((n, self.self_time[n]) for n in LAYER_NAMES if self.calls[n]), key=lambda x: -x[1])
        return ranked[:count]

    def self_seconds_total(self) -> float:
        """Sum of self times over every span name, the benchmark's root spans included."""
        return float(sum(self.self_time.values()))

    def write_spans(self, path, limit: int = 200_000) -> int:
        """Write up to ``limit`` spans as CSV (times relative to the first span)."""
        spans = self.spans[:limit]
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")
        return len(spans)
