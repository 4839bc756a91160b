"""Spans at the module boundaries of ``cspiso``, recorded from outside.

Layers are the modules of ``cspiso``.  ``install`` wraps every public
function a layer defines at every name through which callers reach it (a
module binds ``from .partition import pinned_partition`` at import, so
``cspiso.interpolation.pinned_partition`` is wrapped as well as
``cspiso.partition.pinned_partition``), plus the two methods through which
work crosses into ``linalg`` and ``intertwiners``.  ``algebra`` is left
unwrapped: its scalar and index helpers run millions of times per op, and
its cost shows as self time of the layer that calls it.

A span is (id, parent id, function, start ns, end ns).  Spans are kept in
memory, up to ``SPAN_CAP``, and written out at the end; the aggregates are
kept for every span.  Self time is a span's duration minus the time of its
child spans.  Generator functions get one span per resumption.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from typing import Dict, List

LAYERS = (
    "instances", "partition", "structure", "interpolation", "witnesses",
    "holant", "expressions", "intertwiners", "linalg",
)
METHODS = (("linalg", "EchelonBasis", "insert"), ("intertwiners", "PermutationGroup", "elements"))
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.layer_of: List[int] = []
        self.reset()

    def reset(self):
        n = len(self.names)
        self.calls = [0] * n
        self.entries = [0] * n
        self.self_ns = [0] * n
        self.spans = array("q")
        self.n_spans = 0
        self.stack: List[list] = []  # [span id, function index, child ns]
        self.terms = 0
        self.probes = 0
        self.probes_evaluated = 0
        self.table_entries = 0

    # -- wrapping ----------------------------------------------------------

    def _register(self, qualname: str, layer: str) -> int:
        self.names.append(qualname)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _enter(self, fid: int) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is None or self.layer_of[parent[1]] != self.layer_of[fid]:
            self.entries[fid] += 1
        self.n_spans += 1
        frame = [self.n_spans, fid, 0, parent[0] if parent else 0, time.perf_counter_ns()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter_ns()
        self.stack.pop()
        span_id, fid, child_ns, parent_id, start = frame
        duration = end - start
        self.calls[fid] += 1
        self.self_ns[fid] += duration - child_ns
        if self.stack:
            self.stack[-1][2] += duration
        if span_id <= SPAN_CAP:
            self.spans.extend((span_id, parent_id, fid, start, end))

    def _parent_layer(self) -> int:
        return self.layer_of[self.stack[-2][1]] if len(self.stack) > 1 else -1

    def _wrap(self, fn, fid: int, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            count_items = name == "probe_stream"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(fid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    if count_items:
                        tracer.probes += 1
                    yield item

            return gen_wrapper

        hook = {
            "pinned_partition": self._on_pinned,
            "signature_matrix": self._on_signature_matrix,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(fid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                tracer._exit(frame)

        return wrapper

    def _on_pinned(self, args, result):
        fset, inst = args[0], args[1]
        self.terms += fset.q ** len(set(inst.variables) - set(inst.labels))
        if self._parent_layer() == LAYERS.index("interpolation"):
            self.probes_evaluated += 1

    def _on_signature_matrix(self, args, result):
        self.table_entries += result.rows * result.cols

    def install(self, package):
        """Wrap the public functions of every layer at all their bindings."""
        modules = [package] + [getattr(package, m) for m in dir(package)
                               if inspect.ismodule(getattr(package, m))]
        targets = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in vars(module).items():
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if name.startswith("_") or not defined_here or inspect.isclass(obj):
                    continue
                if callable(obj):
                    fid = self._register(f"{layer}.{name}", layer)
                    targets[id(obj)] = self._wrap(obj, fid, name)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in targets:
                    setattr(module, name, targets[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            fid = self._register(f"{layer}.{cls_name}.{method}", layer)
            setattr(cls, method, self._wrap(getattr(cls, method), fid, method))
        self.reset()

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str, name: str = None) -> float:
        lid = LAYERS.index(layer)
        return sum(
            ns for fid, ns in enumerate(self.self_ns)
            if self.layer_of[fid] == lid and (name is None or self.names[fid] == name)
        ) / 1e9

    def layer_calls(self, layer: str) -> int:
        lid = LAYERS.index(layer)
        return sum(n for fid, n in enumerate(self.entries) if self.layer_of[fid] == lid)

    def metrics(self, package, timed_s: float, ops: int) -> Dict[str, Dict]:
        """Per-layer metrics of the traced region.  Counts and self times are
        per op attempted, so they do not grow with the run length."""
        caches = {}
        for layer in ("algebra",) + LAYERS:
            for name, obj in vars(getattr(package, layer)).items():
                for candidate in (obj, getattr(obj, "__wrapped__", None)):
                    if not name.startswith("_") and hasattr(candidate, "cache_info"):
                        caches[id(candidate)] = candidate.cache_info().currsize
                        break
        permute = package.algebra.permute_domain.cache_info()
        overhead_s = self.n_spans * span_cost_ns() / 1e9
        per_op = {
            "partition.calls": self.layer_calls("partition"),
            "partition.self_s": self.layer_self_s("partition"),
            "partition.terms": self.terms,
            "holant.calls": self.layer_calls("holant"),
            "holant.self_s": self.layer_self_s("holant"),
            "holant.table_entries": self.table_entries,
            "witnesses.probes": self.probes,
            "witnesses.self_s": self.layer_self_s("witnesses"),
            "instances.canonical_self_s": self.layer_self_s("instances", "instances.canonical_encoding"),
            "interpolation.calls": self.layer_calls("interpolation"),
            "interpolation.self_s": self.layer_self_s("interpolation"),
            "interpolation.probes_evaluated": self.probes_evaluated,
            "structure.calls": self.layer_calls("structure"),
            "structure.self_s": self.layer_self_s("structure"),
            "structure.perms_tried": permute.hits + permute.misses - self.permute_base,
            "intertwiners.self_s": self.layer_self_s("intertwiners"),
            "linalg.self_s": self.layer_self_s("linalg"),
            "expressions.self_s": self.layer_self_s("expressions"),
            "trace.spans": self.n_spans,
        }
        out = {name: {"value": value / ops, "unit": "s/op" if name.endswith("_s") else "1/op"}
               for name, value in per_op.items()}
        out["algebra.cache_entries"] = {"value": sum(caches.values()), "unit": "count"}
        out["trace.overhead_pct"] = {"value": 100.0 * overhead_s / max(timed_s - overhead_s, 1e-9), "unit": "%"}
        return out

    def start(self, package):
        """Begin the traced region: drop what set-up recorded."""
        self.reset()
        info = package.algebra.permute_domain.cache_info()
        self.permute_base = info.hits + info.misses

    def dump(self, path):
        rows = [list(self.spans[i:i + 5]) for i in range(0, len(self.spans), 5)]
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "function", "start_ns", "end_ns"],
                "functions": self.names,
                "spans": rows,
                "spans_total": self.n_spans,
                "aggregates": {
                    name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
                    for i, name in enumerate(self.names) if self.calls[i]
                },
            }, fh)


def span_cost_ns(repeat: int = 20_000) -> float:
    """Cost of one recorded span: a wrapped no-op against the bare one, best
    of five, in a tracer of its own."""
    def noop():
        return None

    probe = Tracer()
    fid = probe._register("noop", LAYERS[0])
    best = float("inf")
    for _ in range(5):
        probe.reset()
        wrapped = probe._wrap(noop, fid, "noop")
        t0 = time.perf_counter_ns()
        for _ in range(repeat):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(repeat):
            wrapped()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeat)
    return best
