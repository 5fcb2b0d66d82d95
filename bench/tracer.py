"""Per-layer tracing for the embedder benchmark, installed from outside the library.

The tracer rebinds public functions of the library's modules to wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in memory and are written out by ``write``.  A layer's self time is
its span's duration minus the time covered by its child spans.  Natural-key
calls are only counted, because timing each of them would distort the run.
"""

from __future__ import annotations

import gc
import sys
from array import array
from time import perf_counter

# span name, module, attribute; a function is rebound in every library module
# that binds it, a "Class.method" attribute on its class
TARGETS = [
    ("anypath.filter", "anypath", "bandwidth_subgraph"),
    ("anypath.unicast", "anypath", "unicast_distances"),
    ("anypath.prune", "anypath", "prune"),
    ("anypath.sweep", "anypath", "anypath_routes"),
    ("anypath.linkcount", "anypath", "AnypathRouteTable.closure_link_count"),
    ("anypath.closure", "anypath", "route_closure"),
    ("netmodel.suitable", "netmodel", "suitable_nodes"),
    ("netmodel.reserve", "netmodel", "reserve_service"),
    ("netmodel.reserve", "netmodel", "reserve_channel"),
    ("netmodel.rollback", "netmodel", "rollback"),
    ("netmodel.clone", "netmodel", "SubstrateNetwork.clone"),
    ("embedder.embed", "embedder", "embed"),
    ("embedder.rank", "embedder", "rank_channels"),
    ("embedder.select", "embedder", "select_max_pdr"),
    ("embedder.select", "embedder", "select_min_links"),
    ("windowing.window", "windowing", "process_window"),
    ("windowing.rank", "windowing", "request_quality_revenue"),
    ("metrics.report", "metrics", "metrics_report"),
    ("scenario.generate", "scenario", "generate_request"),
    # aggregation is inline in run_simulation, so it is that span's self time
    ("scenario.aggregate", "scenario", "run_simulation"),
    ("cli.write", "cli", "write_results"),
]
COUNTED = [("netmodel.natural_key", "netmodel", "natural_key")]
PACKAGE = "anypath_vne"

# (metric, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER = [
    ("anypath.filter.calls", "count"), ("anypath.filter.self_s", "s"),
    ("anypath.unicast.calls", "count"), ("anypath.unicast.self_s", "s"),
    ("anypath.prune.self_s", "s"),
    ("anypath.sweep.calls", "count"), ("anypath.sweep.self_s", "s"),
    ("anypath.linkcount.self_s", "s"), ("anypath.closure.self_s", "s"),
    ("anypath.route.repeat_ratio", "ratio"),
    ("netmodel.natural_key.calls", "count"),
    ("netmodel.suitable.self_s", "s"),
    ("netmodel.reserve.calls", "count"), ("netmodel.reserve.self_s", "s"),
    ("netmodel.rollback.calls", "count"), ("netmodel.rollback.self_s", "s"),
    ("netmodel.clone.self_s", "s"),
    ("embedder.embed.self_s", "s"), ("embedder.rank.self_s", "s"),
    ("embedder.select.self_s", "s"),
    ("embedder.blocked.no_node", "count"), ("embedder.blocked.no_path", "count"),
    ("embedder.wasted_route_ratio", "ratio"),
    ("windowing.window.self_s", "s"), ("windowing.rank.self_s", "s"),
    ("metrics.report.calls", "count"), ("metrics.report.self_s", "s"),
    ("scenario.generate.self_s", "s"), ("scenario.aggregate.self_s", "s"),
    ("cli.write.self_s", "s"),
    ("gc.gen2.collections", "count"), ("gc.pause_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Wraps library functions during ``op`` calls; collects spans and counters."""

    def __init__(self):
        # spans live in typed arrays, which the garbage collector does not
        # traverse, so a long trace does not slow later collections
        self.names = []                  # span name by name id
        self.span_name = array("H")      # name id
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")    # index of the parent span, -1 at the root
        self.span_op = array("l")        # operation id
        self.stack = []        # [span index, child seconds] of open spans
        self.stats = {}        # name -> [calls, self seconds]
        self.counts = {}       # name -> [calls] for count-only targets
        self.op_id = -1
        self.routes = 0
        self.repeats = 0
        self.wasted_routes = 0
        self.blocked = {"no_node": 0, "no_path": 0}
        self.gc_gen2 = 0
        self.gc_pause = 0.0
        self._gc_start = 0.0
        self._seen_routes = set()
        self._rebinds = []     # (owner, attribute, original, wrapper)
        self.stats["bench.op"] = [0, 0.0]
        self._root = self._span("bench.op", lambda fn: fn())
        self._prepare()

    # --- installation -------------------------------------------------------

    def _plan(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Queue the rebinding of one target; False when the library lacks it."""
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        if home is None:
            return False
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name, None)
            original = getattr(owner, meth, None)
            if original is None:
                return False
            self._rebinds.append((owner, meth, original, make_wrapper(original)))
            return True
        original = getattr(home, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        prefix = PACKAGE + "."
        for name, module in sorted(sys.modules.items()):
            if ((name == PACKAGE or name.startswith(prefix))
                    and getattr(module, attr, None) is original):
                self._rebinds.append((module, attr, original, wrapper))
        return True

    def _prepare(self) -> None:
        embedder = sys.modules[f"{PACKAGE}.embedder"]
        hooks = {
            "embedder.embed": lambda fn: self._embed_hook(fn, embedder),
            "anypath.sweep": self._route_hook,
        }
        for name, module_name, attr in TARGETS:
            self.stats.setdefault(name, [0, 0.0])
            hook = hooks.get(name)
            if hook is None:
                make = lambda fn, name=name: self._span(name, fn)
            else:
                # the hook sits outside the span, so its bookkeeping is not
                # charged to the traced layer
                make = lambda fn, name=name, hook=hook: hook(self._span(name, fn))
            if not self._plan(module_name, attr, make):
                print(f"trace: {module_name}.{attr} not found; {name} stays 0",
                      file=sys.stderr)
        for name, module_name, attr in COUNTED:
            cell = self.counts.setdefault(name, [0])
            if not self._plan(module_name, attr, lambda fn, c=cell: _counted(fn, c)):
                print(f"trace: {module_name}.{attr} not found; {name} stays 0",
                      file=sys.stderr)

    def _install(self) -> None:
        for owner, attr, _, wrapper in self._rebinds:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original, _ in reversed(self._rebinds):
            setattr(owner, attr, original)

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        stack, stat = self.stack, self.stats[name]
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op_id)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration - frame[1]

        return traced

    def _embed_hook(self, fn, embedder):
        def embed(*args, **kwargs):
            routes_before = self.routes
            try:
                return fn(*args, **kwargs)
            except embedder.EmbeddingError as exc:
                self.wasted_routes += self.routes - routes_before
                if isinstance(exc, embedder.NoSuitableNodeError):
                    self.blocked["no_node"] += 1
                elif isinstance(exc, embedder.NoFeasiblePathError):
                    self.blocked["no_path"] += 1
                raise

        return embed

    def _route_hook(self, fn):
        def anypath_routes(dag, dst, *args, **kwargs):
            # a route table depends only on its destination and eligible links
            key = (dst, frozenset(edge.link_id for edge in dag.edges))
            self.routes += 1
            if key in self._seen_routes:
                self.repeats += 1
            else:
                self._seen_routes.add(key)
            return fn(dag, dst, *args, **kwargs)

        return anypath_routes

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.gc_pause += perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # --- operations and results ---------------------------------------------

    def op(self, op_id: int, fn):
        """Run fn traced, as operation op_id under a root span; (seconds, result).

        The wrappers are installed only for the call, so the benchmark's own
        checks between operations are not traced.
        """
        self.op_id = op_id
        self._install()
        try:
            start = perf_counter()
            result = self._root(fn)
            return perf_counter() - start, result
        finally:
            self._uninstall()

    def metrics(self, overhead_ratio: float) -> dict:
        values = {}
        for metric, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if layer in self.stats:
                calls, self_s = self.stats[layer]
                values[metric] = calls if field == "calls" else self_s
            elif layer in self.counts:
                values[metric] = self.counts[layer][0]
        values["anypath.route.repeat_ratio"] = self.repeats / max(self.routes, 1)
        values["embedder.blocked.no_node"] = self.blocked["no_node"]
        values["embedder.blocked.no_path"] = self.blocked["no_path"]
        values["embedder.wasted_route_ratio"] = self.wasted_routes / max(self.routes, 1)
        values["gc.gen2.collections"] = self.gc_gen2
        values["gc.pause_s"] = self.gc_pause
        values["trace.overhead_ratio"] = overhead_ratio
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit in PER_LAYER}

    def write(self, path) -> None:
        """Write the spans as JSON lines: [name, start, end, parent, op]."""
        with open(path, "w") as handle:
            for i, name_id in enumerate(self.span_name):
                handle.write(f'["{self.names[name_id]}",{self.span_start[i]:.9f},'
                             f'{self.span_end[i]:.9f},{self.span_parent[i]},'
                             f'{self.span_op[i]}]\n')


def _counted(fn, cell):
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted
