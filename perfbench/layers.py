"""Per-layer tracing from outside the program.

A :class:`Tracer` wraps the public functions of each layer (and three
internal boundaries, listed in ``README.md``) in place: every call
records a span — name, start, end, parent span, thread, and for serving
requests a request id — kept in memory and written out as JSON lines
when the run ends.  Counters come from the program's own ``*Stats``
objects, collected as they are constructed and differenced against a
snapshot taken when the timed phase starts, plus two call counts
(``robust_solve`` and ``CompiledCircuit.linearize``) no stats type
holds.

A layer's time is the *self* time of its spans: span duration minus the
time its direct child spans cover, so layer times add up without double
counting.  Nothing under ``src/`` changes; ``uninstall`` restores every
patched attribute, and wrappers left in modules imported while tracing
pass straight through once the tracer is disabled.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager

from common import metric_units, now

#: (module, attribute path, span name) of every traced boundary.
SPANS = (
    ("repro.macros.registry", "get_macro", "macros.build"),
    ("repro.scenarios.families", "TopologyVariant.build_macro",
     "macros.build"),
    ("repro.faults.ifa", "ifa_fault_dictionary", "faults.derive"),
    ("repro.faults.dictionary", "exhaustive_fault_dictionary",
     "faults.derive"),
    ("repro.macros.base", "Macro.fault_dictionary", "faults.derive"),
    ("repro.scenarios.families", "DictionarySpec.derive", "faults.derive"),
    ("repro.lint.runner", "lint_scenario", "lint.scenario"),
    ("repro.analysis.mna", "CompiledCircuit.__init__", "analysis.compile"),
    ("repro.analysis.backend", "DenseLU.__init__", "analysis.factorize"),
    ("repro.analysis.backend", "SparseLU.__init__", "analysis.factorize"),
    ("repro.analysis.batched", "BatchedOverlaySolver.screen",
     "analysis.screen"),
    ("repro.analysis.engine", "SimulationEngine.screen_faults",
     "analysis.engine_screen"),
    ("repro.analysis.engine", "SimulationEngine.simulate_fault",
     "analysis.simulate"),
    ("repro.analysis.engine", "SimulationEngine.simulate_nominal",
     "analysis.simulate"),
    ("repro.testgen.execution", "TestExecutor.screen_faults",
     "testgen.screen"),
    ("repro.testgen.execution", "TestExecutor.boxes", "testgen.boxes"),
    ("repro.testgen.execution", "TestExecutor.sensitivity",
     "testgen.sensitivity"),
    ("repro.testgen.generator", "generate_tests", "testgen.generate"),
    ("repro.testgen.generator", "generate_test_for_fault",
     "testgen.generate"),
    ("repro.testgen.sharding", "screen_dictionary_sharded",
     "testgen.shard_screen"),
    ("repro.optimize.brent", "brent_minimize", "optimize.search"),
    ("repro.optimize.powell", "powell_minimize", "optimize.search"),
    ("repro.compaction.collapse", "collapse_test_set",
     "compaction.collapse"),
    ("repro.compaction.collapse", "_screen_group",
     "compaction.group_screen"),
    ("repro.compaction.coverage", "evaluate_coverage",
     "compaction.coverage"),
    ("repro.tolerance.montecarlo", "screen_dictionary_montecarlo",
     "tolerance.mc_screen"),
    ("repro.tolerance.corners", "ProcessCorner.apply",
     "tolerance.corner_apply"),
    ("repro.serve.pool", "EnginePool.entry", "serve.pool_entry"),
    ("repro.serve.frontdoor", "BatchingFrontDoor._serve_batch",
     "serve.batch"),
    ("repro.serve.frontdoor", "BatchingFrontDoor.screen", "serve.request"),
    ("repro.serve.cache", "VerdictCache.get", "serve.cache"),
    ("repro.serve.cache", "VerdictCache.put", "serve.cache"),
    ("repro.hashing", "verdict_key", "hashing.key"),
    ("repro.hashing", "netlist_digest", "hashing.key"),
    ("repro.scenarios.spec", "load_spec", "scenarios.expand"),
    ("repro.scenarios.spec", "CampaignSpec.cells", "scenarios.expand"),
    ("repro.scenarios.campaign", "run_cell", "scenarios.cell"),
)

#: Calls counted without a span (too frequent to time one by one).
COUNTS = (
    ("repro.analysis.newton", "robust_solve", "analysis.scalar_solves"),
    ("repro.analysis.mna", "CompiledCircuit.linearize",
     "analysis.linearize_calls"),
)

#: Constructors whose ``self.stats`` the tracer collects, by stats kind.
STATS = (
    ("repro.analysis.engine", "SimulationEngine", "engine"),
    ("repro.testgen.execution", "TestExecutor", "executor"),
    ("repro.serve.frontdoor", "BatchingFrontDoor", "serve"),
    ("repro.serve.pool", "EnginePool", "pool"),
    ("repro.serve.cache", "VerdictCache", "cache"),
)

#: Per-layer time metrics: metric -> span names whose self time it sums.
LAYER_TIMES = {
    "macros.build_s": ("macros.build",),
    "faults.derive_s": ("faults.derive",),
    "lint.scenario_s": ("lint.scenario",),
    "analysis.compile_s": ("analysis.compile",),
    "analysis.factorize_s": ("analysis.factorize",),
    "analysis.screen_s": ("analysis.screen", "analysis.engine_screen"),
    "analysis.fallback_s": ("analysis.fallback",),
    "analysis.simulate_s": ("analysis.simulate",),
    "testgen.screen_s": ("testgen.screen",),
    "testgen.boxes_s": ("testgen.boxes",),
    "testgen.sensitivity_s": ("testgen.sensitivity",),
    "testgen.generate_s": ("testgen.generate",),
    "testgen.shard_screen_s": ("testgen.shard_screen",),
    "optimize.search_s": ("optimize.search",),
    "compaction.collapse_s": ("compaction.collapse",),
    "compaction.coverage_s": ("compaction.coverage",),
    "tolerance.mc_screen_s": ("tolerance.mc_screen",),
    "tolerance.corner_apply_s": ("tolerance.corner_apply",),
    "serve.pool_build_s": ("serve.pool_entry",),
    "serve.batch_s": ("serve.batch",),
    "hashing.key_s": ("hashing.key",),
    "scenarios.expand_s": ("scenarios.expand",),
    "scenarios.cell_s": ("scenarios.cell",),
}

#: Per-layer span counts: metric -> span name.
LAYER_CALLS = {
    "macros.builds": "macros.build",
    "lint.scenarios": "lint.scenario",
    "testgen.sensitivity_evals": "testgen.sensitivity",
    "compaction.group_screens": "compaction.group_screen",
    "scenarios.cells": "scenarios.cell",
}

#: Span names that make up a serving batch's solver time.
SOLVER_SPANS = ("testgen.boxes", "testgen.screen", "serve.cache")


def _resolve(module_name: str, path: str):
    owner = sys.modules.get(module_name) or __import__(
        module_name, fromlist=["_"])
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _numbers(stats) -> dict[str, float]:
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), (int, float))}


class Tracer:
    """In-memory span recorder over the program's layer boundaries."""

    active = True

    def __init__(self) -> None:
        # [name, start, end, parent index, thread id, attrs]
        self.spans: list[list] = []
        self.enabled = False
        self.mark_index = 0
        self.mark_time = None
        self.timed_end = None
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._names: dict[object, str] = {}
        self.stats: dict[str, list] = defaultdict(list)
        self._snapshots: dict[int, dict[str, float]] = {}
        self.mc_stats: list = []
        self.nfev = 0
        self._request_ids = 0

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            self._thread_counts.append(counts)
        return counts

    def _open(self, name: str, attrs=None, nested: bool = True) -> list:
        stack = self._stack()
        parent = stack[-1] if (stack and nested) else -1
        span = [name, now(), None, parent, threading.get_ident(), attrs]
        self.spans.append(span)
        if nested:
            stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: list, nested: bool = True) -> None:
        span[2] = now()
        if nested:
            self._stack().pop()

    def _span_wrapper(self, fn, name: str):
        tracer = self
        describe = _DESCRIBE.get(name)

        if inspect.iscoroutinefunction(fn):
            # Requests interleave on the event loop: no parent stack.
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                tracer._request_ids += 1
                attrs = describe(args, kwargs) if describe else {}
                attrs["request"] = tracer._request_ids
                span = tracer._open(name, attrs, nested=False)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(span, nested=False)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "analysis.simulate" and tracer._in_screen(args):
                span_name = "analysis.fallback"
            attrs = describe(args, kwargs) if describe else None
            span = tracer._open(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._on_result(name, result)
            return result
        return traced

    def _in_screen(self, args) -> bool:
        """A per-fault solve inside a batched screen is its fallback."""
        stack = self._stack()
        if not stack or self.spans[stack[-1]][0] != "analysis.engine_screen":
            return False
        procedure = args[1] if len(args) > 1 else None
        return bool(getattr(procedure, "supports_screening", False))

    def _on_result(self, name: str, result) -> None:
        if name == "tolerance.mc_screen":
            self.mc_stats.append((len(self.spans), result.stats))
        elif name == "optimize.search" and self.mark_time is not None:
            self.nfev += int(result.nfev)

    def _count_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer._counts()[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _stats_wrapper(self, init, kind: str):
        tracer = self

        @functools.wraps(init)
        def collecting(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.enabled:
                tracer.stats[kind].append(obj.stats)
        return collecting

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        if isinstance(owner, type):
            # Subclasses that override the method (macro dictionaries).
            for sub in owner.__subclasses__():
                if attr in sub.__dict__:
                    self._patch(sub, attr, self._span_wrapper(
                        sub.__dict__[attr], self._names[replacement]))
        else:
            # Name-imported copies (``from m import f``) in loaded
            # modules of the program.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (name.startswith("repro") and module is not owner
                        and getattr(module, attr, None) is original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every boundary and start recording."""
        for module_name, path, name in SPANS:
            owner, attr = _resolve(module_name, path)
            wrapper = self._span_wrapper(getattr(owner, attr), name)
            self._names[wrapper] = name
            self._patch(owner, attr, wrapper)
        for module_name, path, name in COUNTS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._count_wrapper(
                getattr(owner, attr), name))
        for module_name, cls_name, kind in STATS:
            owner, _ = _resolve(module_name, cls_name + ".__init__")
            self._patch(owner, "__init__",
                        self._stats_wrapper(owner.__init__, kind))
        self.enabled = True

    def uninstall(self) -> None:
        """Stop recording and restore every patched attribute."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- phases ----------------------------------------------------------
    def mark(self) -> None:
        """The timed phase starts: later spans and stat deltas count."""
        self.mark_index = len(self.spans)
        self.mark_time = now()
        for objects in self.stats.values():
            for stats in objects:
                self._snapshots[id(stats)] = _numbers(stats)
        for counts in self._thread_counts:
            counts.clear()

    def timed_done(self) -> None:
        self.timed_end = now()

    @contextmanager
    def paused(self):
        """Run a block untraced (e.g. the parallel campaign round)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- reading ---------------------------------------------------------
    def timed_spans(self) -> list[list]:
        return [s for s in self.spans[self.mark_index:] if s[2] is not None]

    def self_times(self) -> dict[int, float]:
        """Self time of every timed span, by span index."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0 and span[2] is not None:
                covered[span[3]] += span[2] - span[1]
        return {i: (s[2] - s[1]) - covered[i]
                for i, s in enumerate(self.spans)
                if i >= self.mark_index and s[2] is not None}

    def stat_total(self, kind: str, field: str) -> float:
        total = 0.0
        for stats in self.stats[kind]:
            before = self._snapshots.get(id(stats), {}).get(field, 0)
            total += getattr(stats, field) - before
        return total

    def count(self, name: str) -> int:
        return sum(counts.get(name, 0) for counts in self._thread_counts)

    def write(self, path) -> None:
        """Spans as JSON lines (times relative to the timed-phase start)."""
        origin = self.mark_time or 0.0
        with open(path, "w", encoding="utf-8") as sink:
            for index, (name, start, end, parent, thread, attrs) in \
                    enumerate(self.spans):
                sink.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": None if end is None else end - origin,
                    "parent": parent, "thread": thread,
                    "attrs": attrs}, default=repr) + "\n")


def _request_attrs(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return {"key": [request.macro, request.configuration,
                    [float(v) for v in request.vector or ()]]}


def _batch_attrs(args, kwargs):
    entry, vector = args[1], args[3]
    return {"key": [entry.macro, entry.configuration,
                    [float(v) for v in vector]]}


_DESCRIBE = {"serve.request": _request_attrs, "serve.batch": _batch_attrs}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _tail_ms(latencies) -> float:
    """Latency with exactly ten samples beyond it (0 below 40 samples)."""
    if len(latencies) < 40:
        return 0.0
    return 1e3 * sorted(latencies)[-11]


def _queue_waits(tracer: Tracer) -> list[float]:
    """Per request: latency minus the solver time of its batch."""
    spans = tracer.spans
    solver_time: dict[int, float] = defaultdict(float)
    batches: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[0] == "serve.batch" and index >= tracer.mark_index:
            batches[repr(span[5]["key"])].append(index)
        parent = span[3]
        if (span[0] in SOLVER_SPANS and parent >= 0
                and spans[parent][0] == "serve.batch"):
            solver_time[parent] += span[2] - span[1]
    waits = []
    for span in tracer.timed_spans():
        if span[0] != "serve.request":
            continue
        mine = [b for b in batches[repr(span[5]["key"])]
                if spans[b][1] >= span[1] and spans[b][2] <= span[2]]
        if mine:
            batch = max(mine, key=lambda b: spans[b][2])
            spans[batch][5].setdefault("requests", []).append(
                span[5]["request"])
            waits.append(span[2] - span[1] - solver_time[batch])
    return waits


def per_layer_metrics(tracer: Tracer, workload: str, state, run) -> dict:
    """Every per-layer metric (0 where the layer did no work)."""
    units = metric_units("per_layer")
    values: dict[str, float] = dict.fromkeys(units, 0.0)
    self_times = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, seconds in self_times.items():
        name = tracer.spans[index][0]
        by_name[name] += seconds
        calls[name] += 1
    for metric, names in LAYER_TIMES.items():
        values[metric] = sum(by_name[n] for n in names)
    for metric, name in LAYER_CALLS.items():
        values[metric] = calls[name]

    engine = functools.partial(tracer.stat_total, "engine")
    screened = (engine("screened_simulations")
                + engine("screen_newton_confirms"))
    values.update({
        "analysis.compilations": engine("compilations"),
        "analysis.factorizations": engine("factorizations"),
        "analysis.sparse_factorizations": engine("sparse_factorizations"),
        "analysis.factorization_reuses": engine("factorization_reuses"),
        "analysis.screened_faults": screened + engine("screen_fallbacks"),
        "analysis.newton_confirms": engine("screen_newton_confirms"),
        "analysis.fallbacks": engine("screen_fallbacks"),
        "analysis.certified_ratio": _ratio(
            screened, screened + engine("screen_fallbacks")),
        "analysis.scalar_solves": tracer.count("analysis.scalar_solves"),
        "analysis.linearize_calls": tracer.count("analysis.linearize_calls"),
    })
    executor = functools.partial(tracer.stat_total, "executor")
    hits = executor("nominal_cache_hits")
    values["testgen.nominal_hit_ratio"] = _ratio(
        hits, hits + executor("nominal_simulations"))
    values["testgen.simulations"] = (executor("nominal_simulations")
                                     + executor("faulty_simulations"))
    values["optimize.evaluations"] = tracer.nfev
    for index, stats in tracer.mc_stats:
        if index > tracer.mark_index:
            values["tolerance.mc_columns"] += (stats.columns_screened
                                               + stats.columns_confirmed
                                               + stats.columns_failed)
            values["tolerance.mc_columns_failed"] += stats.columns_failed
            values["tolerance.mc_scalar_solves"] += stats.scalar_solves

    serve = functools.partial(tracer.stat_total, "serve")
    cache_hits, cache_misses = serve("cache_hits"), serve("cache_misses")
    values.update({
        "serve.pool_builds": tracer.stat_total("pool", "constructions"),
        "serve.batches": serve("batches"),
        "serve.coalesce_ratio": _ratio(
            serve("requests") - serve("batches"), serve("requests")),
        "serve.cache_hits": cache_hits,
        "serve.cache_misses": cache_misses,
        "serve.cache_hit_ratio": _ratio(cache_hits,
                                        cache_hits + cache_misses),
        "serve.queue_wait_ms": _median_ms(_queue_waits(tracer)),
    })
    if workload == "serve-stream":
        values["serve.hit_p50_ms"] = _median_ms(
            [s.latency_s for s in state["served"] if s.hit])
        values["serve.miss_p50_ms"] = _median_ms(
            [s.latency_s for s in state["served"] if not s.hit])
        values["serve.request_tail_ms"] = _tail_ms(
            [s.latency_s for s in state["served"]])
    if workload == "campaign-sweep":
        cell_time = sum(s[2] - s[1] for s in tracer.timed_spans()
                        if s[0] == "scenarios.cell")
        values["scenarios.fanout_s"] = (
            state["fanout_wall_s"] - cell_time / len(state["rounds"]) / 2)

    timed = (tracer.timed_end or now()) - tracer.mark_time
    values["trace.timed_s"] = timed
    values["trace.unattributed_s"] = timed - sum(
        values[m] for m in LAYER_TIMES)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}
