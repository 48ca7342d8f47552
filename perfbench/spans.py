"""Layer-attributed span recorder, installed from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(the table in ``DESIGN.md``) with timing wrappers.  Methods are patched
on their classes and functions in every ``repro`` module that holds a
reference to them, so every caller goes through the wrapper.

Spans are kept per thread: each thread has its own span stack (gateway
shards run sessions on executor threads) and its own aggregate of
``[calls, total seconds, self seconds]`` per span name.  A span's self
time is its duration minus the time its child spans cover.  Nothing is
written while the program runs; :meth:`Tracer.mark` closes a phase by
moving the aggregates into an in-memory list, and the owner writes that
list out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

#: (layer, dotted owner, attribute names).  The owner is a class, or a
#: module for plain functions.
SPANS = (
    ("serve", "repro.serve.protocol", ("parse_optimize_request",)),
    ("service", "repro.service.session.OptimizerSession",
     ("optimize", "optimize_iter", "map")),
    ("service", "repro.service.signature", ("query_signature",)),
    ("service", "repro.service.cache.WarmStartCache",
     ("get", "get_entry", "load", "put")),
    ("store", "repro.store.store.PlanSetStore", ("get", "put", "nearest")),
    ("core", "repro.core.run.OptimizationRun", ("step",)),
    ("core", "repro.core.serialize",
     ("decode_plan_set", "encode_plan_set", "encode_result")),
    ("cost", "repro.core.pwl_backend.PWLBackend",
     ("accumulate", "dominance", "dominance_many", "dominance_many_rev")),
    ("cost", "repro.cost.vector.MultiObjectivePWL",
     ("add", "dominance_polytopes")),
    ("cost", "repro.cost.vector", ("batch_dominance_aligned",)),
    ("geometry", "repro.geometry.polytope.ConvexPolytope",
     ("__init__", "chebyshev", "has_interior", "is_empty")),
    ("geometry", "repro.geometry.region.RelevanceRegion",
     ("is_empty", "subtract")),
    ("geometry", "repro.geometry.region", ("regions_empty_many",)),
    ("geometry", "repro.geometry.difference",
     ("subtract_polytope", "subtract_polytope_many", "subtract_polytopes")),
    ("lp", "repro.lp.solver.LinearProgramSolver",
     ("solve", "solve_many", "feasible")),
)

LAYERS = ("serve", "service", "store", "core", "cost", "geometry", "lp")


def _resolve(dotted: str):
    """Import ``a.b.C`` as the class ``C`` of module ``a.b`` (or a module)."""
    import importlib
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _purpose(args, kwargs, default: str) -> str:
    purpose = kwargs.get("purpose", default)
    if isinstance(purpose, str):
        return purpose
    tags = set(purpose)
    return tags.pop() if len(tags) == 1 else "mixed"


class Tracer:
    """Span and counter recorder.  See the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        #: ``[label, {key: [calls, total_s, self_s]}]`` per closed phase.
        self.phases: list[list] = []
        #: Parse-end clock readings keyed by the parsed request's id,
        #: consumed when the request reaches its shard thread.
        self._parsed: dict[int, float] = {}
        self.installed = False

    # -- per-thread state ----------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.agg
        except AttributeError:
            local.stack = []
            local.agg = {}
            with self._lock:
                self._threads.append(local.agg)
            return local.stack, local.agg

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a counter (kept with the spans, in the ``calls`` slot)."""
        __, agg = self._state()
        record = agg.get(key)
        if record is None:
            record = agg[key] = [0, 0.0, 0.0]
        record[0] += amount

    def _record(self, agg, key: str, duration: float,
                self_time: float) -> None:
        record = agg.get(key)
        if record is None:
            record = agg[key] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += self_time

    # -- wrappers -------------------------------------------------------

    def wrap(self, func, key: str, key_of=None):
        """Time ``func`` as span ``key`` (or ``key_of(args, kwargs)``)."""
        clock = time.perf_counter
        state = self._state
        record = self._record

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                # Each resume is one span segment; the consumer's work
                # between resumes is not charged to this span.
                gen = func(*args, **kwargs)
                try:
                    while True:
                        stack, agg = state()
                        frame = [0.0]
                        stack.append(frame)
                        started = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            duration = clock() - started
                            stack.pop()
                            if stack:
                                stack[-1][0] += duration
                            record(agg, key, duration,
                                   duration - frame[0])
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack, agg = state()
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                record(agg, key if key_of is None
                       else key_of(args, kwargs), duration,
                       duration - frame[0])
        return wrapper

    # -- phases ---------------------------------------------------------

    def mark(self, label: str) -> None:
        """Close the current phase under ``label``.

        Call it while the program is idle: other threads' aggregates
        are read and cleared without stopping them.
        """
        with self._lock:
            merged = merge(*self._threads)
            for agg in self._threads:
                agg.clear()
        self.phases.append([label, merged])

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every span site and counter site; idempotent."""
        if self.installed:
            return
        self.installed = True
        import repro.serve.gateway  # noqa: F401  (load every layer)
        import repro.api  # noqa: F401
        for layer, dotted, names in SPANS:
            owner = _resolve(dotted)
            for name in names:
                key = f"{layer}:{owner.__name__.rpartition('.')[2]}.{name}"
                key_of = None
                if layer == "lp":
                    default = "feasibility" if name == "feasible" \
                        else "generic"
                    prefix = f"lp:{name}:"
                    key_of = (lambda args, kwargs, p=prefix, d=default:
                              p + _purpose(args, kwargs, d))
                self._patch(owner, name, key, key_of)
        self._install_counters()

    def _patch(self, owner, name: str, key: str, key_of) -> None:
        if inspect.ismodule(owner):
            original = getattr(owner, name)
            wrapped = self.wrap(original, key, key_of)
            # Rebind the function everywhere it was imported by name.
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
            return
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(owner, name,
                    staticmethod(self.wrap(raw.__func__, key, key_of)))
        else:
            setattr(owner, name, self.wrap(raw, key, key_of))

    def _install_counters(self) -> None:
        from repro.core.run import OptimizationRun
        from repro.lp.counters import LPStats
        from repro.serve.gateway import ServingGateway
        from repro.serve import protocol
        from repro.service.cache import WarmStartCache
        tracer = self

        record = LPStats.record
        hit = LPStats.record_cache_hit
        batch = LPStats.record_batch

        def lp_record(stats, **kwargs):
            tracer.count("#lp.solved")
            return record(stats, **kwargs)

        def lp_hit(stats):
            tracer.count("#lp.memo_hits")
            return hit(stats)

        def lp_batch(stats, **kwargs):
            tracer.count("#lp.stacked", kwargs.get("solved", 0))
            tracer.count("#lp.fallbacks", kwargs.get("fallbacks", 0))
            return batch(stats, **kwargs)

        LPStats.record = lp_record
        LPStats.record_cache_hit = lp_hit
        LPStats.record_batch = lp_batch

        complete = OptimizationRun._complete_rung

        def complete_rung(run):
            complete(run)
            stats = run.completed[-1].result.stats
            tracer.count("#core.rungs")
            tracer.count("#core.plans_created", stats.plans_created)
            tracer.count("#core.pruning_comparisons",
                         stats.pruning_comparisons)
            # Emptiness counters are cumulative per backend: charge the
            # delta since this run's previous rung.
            backend_stats = getattr(run.backend, "stats", None)
            if backend_stats is not None:
                seen = getattr(run, "_perfbench_seen", (0, 0))
                now = (backend_stats.emptiness_checks,
                       backend_stats.emptiness_checks_skipped)
                tracer.count("#geometry.emptiness_checks", now[0] - seen[0])
                tracer.count("#geometry.emptiness_skipped",
                             now[1] - seen[1])
                run._perfbench_seen = now

        OptimizationRun._complete_rung = complete_rung

        cache_get = WarmStartCache.get  # already span-wrapped

        def counted_get(cache, *args, **kwargs):
            doc = cache_get(cache, *args, **kwargs)
            tracer.count("#cache.hits" if doc is not None
                         else "#cache.misses")
            return doc

        WarmStartCache.get = counted_get

        # Queue wait: from the end of request parsing on the event loop
        # to the request's arrival on its shard thread.
        parse = protocol.parse_optimize_request  # already span-wrapped
        parsed = self._parsed

        def parse_and_stamp(body):
            request = parse(body)
            parsed[id(request)] = time.perf_counter()
            return request

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not None:
                if vars(module).get("parse_optimize_request") is parse:
                    module.parse_optimize_request = parse_and_stamp

        for name in ("_optimize_on_shard", "_stream_on_shard"):
            original = getattr(ServingGateway, name)

            def on_shard(gateway, shard, request, *rest,
                         _original=original):
                stamp = parsed.pop(id(request), None)
                if stamp is not None:
                    tracer.count("#serve.queue_wait_s",
                                 time.perf_counter() - stamp)
                return _original(gateway, shard, request, *rest)

            setattr(ServingGateway, name, on_shard)


# ----------------------------------------------------------------------
# Reduction of a phase aggregate to the per-layer metrics
# ----------------------------------------------------------------------

def layer_self(agg: dict) -> dict[str, float]:
    """Self seconds per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for key, (__, __, self_time) in agg.items():
        if key.startswith("#"):
            continue
        layer = key.split(":", 1)[0]
        out[layer] += self_time
    return out


def total(agg: dict, *keys: str) -> float:
    """Inclusive seconds of the named spans."""
    return sum(agg[key][1] for key in keys if key in agg)


def calls(agg: dict, *keys: str) -> float:
    """Calls of the named spans, or the value of the named counters."""
    return sum(agg[key][0] for key in keys if key in agg)


def self_with_prefix(agg: dict, prefix: str) -> float:
    return sum(record[2] for key, record in agg.items()
               if key.startswith(prefix))


def calls_with_prefix(agg: dict, prefix: str) -> float:
    return sum(record[0] for key, record in agg.items()
               if key.startswith(prefix))


def merge(*aggs: dict) -> dict:
    """Sum span aggregates key by key."""
    out: dict[str, list] = {}
    for agg in aggs:
        for key, record in agg.items():
            slot = out.setdefault(key, [0, 0.0, 0.0])
            for index in range(3):
                slot[index] += record[index]
    return out
