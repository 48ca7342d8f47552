"""OptimizerSession: the unified front door for all MPQ optimization.

One session owns everything a serving process needs across many
optimization calls:

* a **persistent worker pool** — spawned lazily on the first pooled call
  and reused across batches (the legacy batch engine tore its pool down
  per batch, paying worker start-up every time).  Per-call deadlines do
  not stall the call: overdue items are reported ``"timeout"``, queued
  tasks are cancelled, and only when a worker is still *executing* an
  overdue task is the pool recycled (the stuck worker terminated, a
  fresh pool spawned lazily on the next call) — otherwise the pool
  survives untouched, and results arriving just past the deadline still
  feed the warm-start cache;
* **session-scoped shared state** — the :class:`WarmStartCache` of
  serialized Pareto plan sets and an LP-result memo
  (:class:`repro.lp.LPResultCache`).  The LP memo is installed
  process-wide around serial runs; each pool worker gets its own memo
  that persists for the pool's lifetime (warm LP hits across batches),
  seeded at spawn time with the parent memo's content — pass a
  populated memo (e.g. from a serial session) via ``lp_memo=`` to start
  workers warm;
* the **scenario registry** — queries are optimized under a named
  scenario (``"cloud"``, ``"approx"``, or anything registered via
  :func:`repro.service.registry.register_scenario`), so new cost-model
  workloads need one registration instead of a new module of glue.

Submission surfaces:

* :meth:`OptimizerSession.submit` — one query, returns a
  :class:`concurrent.futures.Future` resolving to a :class:`BatchItem`;
* :meth:`OptimizerSession.as_completed` — many queries, yields items in
  completion order as they finish (streaming);
* :meth:`OptimizerSession.map` — many queries, returns items in input
  order (the legacy batch contract, with per-query error isolation,
  deadline handling and in-batch deduplication);
* :meth:`OptimizerSession.optimize` — one query; with ``precision=`` /
  ``budget=`` it becomes an *anytime* call that returns the best
  guaranteed plan set the budget allowed (cooperative: budgets are
  enforced inside the run at DP step boundaries, so pooled workers stop
  themselves and the pool survives);
* :meth:`OptimizerSession.optimize_iter` — one query, streams
  :class:`~repro.core.run.ProgressEvent` objects over a precision
  ladder; each ``rung_completed`` event carries a successively tighter
  plan set with its ``(1 + alpha)`` guarantee.

Workers ship *serialized* plan sets (JSON documents) back to the parent,
which both sidesteps pickling optimizer internals and feeds the cache for
free.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from collections.abc import Iterator, Sequence

from ..core import (DEFAULT_SEED_CAP, RUN_COMPLETED, SEED_JUMP_ALPHA, Budget,
                    OptimizerStats, ProgressEvent, PWLRRPAOptions,
                    StoredPlanSet, decode_plan, decode_plan_set,
                    encode_result, ladder_to, trim_ladder_for_seed,
                    validate_ladder)
from .. import config
from ..errors import OptimizationError
from ..faults import failpoint
from ..lp import (LPResultCache, install_shared_lp_cache,
                  shared_lp_cache)
from ..query import Query
from .cache import WarmStartCache
from .registry import ScenarioRegistry, default_registry
from .signature import (family_digest, query_signature,
                        signature_features, statistics_digest)

#: Result statuses a batch item can end in.  ``"partial"`` is the
#: anytime outcome: the budget expired before the target precision, but
#: a coarser rung completed — the plan set is valid with the reported
#: guarantee.
STATUSES = ("ok", "cached", "partial", "error", "timeout")

#: Recorded repair cost (total LPs of the run that produced a stored
#: plan-set document) above which a seeded run adopts the neighbor's
#: *whole* frontier instead of one incumbent per table set — the
#: quadratic seed-installation cost only amortizes against expensive
#: enumerations.  Stored documents carry the cost as ``repair_lps``;
#: entries without it (older documents) stay on the conservative arm.
SEED_ALL_IN_LPS = 10_000.0

#: Most-recently-used LP memo entries shipped to each spawning worker.
#: Bounds the pickled seed (LP results hold numpy arrays) so spawning a
#: pool off a long-lived memo stays cheap.
WORKER_SEED_LIMIT = 4096

#: Most-recently-learned LP memo entries a pooled task ships back to the
#: session per result (the worker -> parent direction of the memo flow).
WORKER_DELTA_LIMIT = 1024


@dataclass
class BatchItem:
    """Outcome of one query submitted to a session.

    Attributes:
        index: Position of the query in the submitted sequence (``0`` for
            single :meth:`OptimizerSession.submit` calls).
        signature: Warm-start cache key of the query.
        status: One of :data:`STATUSES`.
        plan_set: Run-time-selectable Pareto plan set (``None`` unless
            :attr:`ok`).
        stats: Optimizer-stats summary dict (``None`` for cached/failed
            items).
        error: Error description for ``"error"``/``"timeout"`` items.
        seconds: Wall-clock optimization time (0 for cache hits).
        scenario: Name of the scenario the query was optimized under.
        alpha: Approximation tag of the returned plan set: the rung the
            run achieved (``0`` for exact results).
        guarantee: End-to-end multiplicative cost bound of the plan set
            (``1.0`` for exact results): every possible plan is covered
            within this factor on all metrics.
        events: :class:`~repro.core.run.ProgressEvent` trail of anytime
            runs (empty for exact-mode items).
    """

    index: int
    signature: str
    status: str
    plan_set: StoredPlanSet | None = None
    stats: dict | None = None
    error: str | None = None
    seconds: float = 0.0
    scenario: str = "cloud"
    alpha: float = 0.0
    guarantee: float = 1.0
    events: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """``True`` when a plan set is available.

        ``"partial"`` counts: the set is valid, only its guarantee is
        coarser than requested (check :attr:`alpha`/:attr:`guarantee`).
        """
        return self.status in ("ok", "cached", "partial")


def _drain_memo_delta(outcome: dict) -> None:
    """Attach the LP-memo entries this task learned to the outcome.

    Only pool workers install a delta-tracking memo
    (:func:`_worker_init`); in serial runs the installed memo is the
    session memo itself, whose drain is a no-op.
    """
    memo = shared_lp_cache()
    if memo is not None:
        delta = memo.drain_delta(limit=WORKER_DELTA_LIMIT)
        if delta:
            outcome["lp_memo_delta"] = delta


def _optimize_payload(payload: tuple) -> tuple[int, dict, dict, float]:
    """Worker entry point: optimize one query, return serialized output.

    Module-level (not a closure) so process pools can pickle it.  The
    payload carries the :class:`~repro.service.registry.Scenario` object
    itself whenever it pickles (built-in scenarios and any scenario with
    module-level factories do), so workers on spawn-based platforms do
    not depend on fork-inherited registry state.  A ``None`` scenario is
    the fallback for unpicklable registrations and resolves by name from
    the worker's process-global default registry — which then must know
    the name (register it in a module the workers import).

    Returns ``(index, outcome, stats_summary, elapsed)``.  The outcome
    dict carries the encoded plan set (``"doc"``), the achieved
    ``"alpha"``/``"guarantee"``, a ``"status"``, and — for anytime
    payloads — the per-rung documents (``"rungs"``), the progress-event
    trail (``"events"``), and the worker's fresh LP-memo entries
    (``"lp_memo_delta"``), which the session merges back on receipt.
    """
    (index, scenario_name, scenario, query, resolution, options,
     anytime) = payload
    if scenario is None:
        scenario = default_registry().get(scenario_name)
    # Chaos failpoints (inert without a REPRO_FAULTS schedule): a hang
    # exercises the session deadline/recycle path, a crash kills the
    # worker process hard (pool-breaking, exercises pool respawn).
    failpoint("service.worker.hang")
    failpoint("service.worker.crash")
    started = time.perf_counter()
    if anytime is None:
        result = scenario.optimize(query, resolution=resolution,
                                   options=options)
        outcome = {"doc": encode_result(result), "status": "ok",
                   "alpha": result.achieved_alpha,
                   "guarantee": result.guarantee}
        stats = result.stats.summary()
    else:
        outcome, stats = _run_anytime(scenario, query, resolution,
                                      options, anytime)
    elapsed = time.perf_counter() - started
    _drain_memo_delta(outcome)
    if failpoint("service.worker.poison") is not None:
        # Poisoned result: an undecodable document, which the receiving
        # side must classify as an error item (never crash on).
        outcome["doc"] = {"poisoned": True}
    return index, outcome, stats, elapsed


def _live_event_emitter(run, events_queue):
    """Per-event callback shipping the trail live over a result queue.

    Each :class:`~repro.core.run.ProgressEvent` is forwarded the moment
    it is emitted; ``rung_completed`` events additionally carry the
    rung's encoded plan set so the session can attach a decoded set to
    the event it yields (the same payload the serial path builds).  A
    broken queue degrades to the replay-on-completion behavior — the
    session recovers the missing tail from the outcome's event trail.
    """
    def on_event(event) -> None:
        doc = {"event": event.as_dict()}
        if event.kind == "rung_completed" and run.completed:
            outcome = run.completed[-1]
            doc["rung"] = {"doc": encode_result(outcome.result),
                           "alpha": outcome.alpha,
                           "guarantee": outcome.guarantee}
        try:
            events_queue.put(doc)
        except Exception:  # reprolint: disable=REP601
            # Broken queue proxy: degrade to replay-on-completion.
            run.on_event = None
    return on_event


def _tag_repair_cost(doc: dict, lps) -> dict:
    """Record the producing run's LP count on a plan-set document.

    Stored as ``repair_lps`` next to the document's guarantee tags: a
    later near-miss run seeded from this document reads it to choose its
    seeding breadth (see :meth:`OptimizerSession._seed_breadth`).
    Decoders ignore the extra key, so plan-set round-trips are
    unaffected.
    """
    try:
        lps = float(lps)
    except (TypeError, ValueError):
        return doc
    if lps > 0:
        doc["repair_lps"] = lps
    return doc


#: Marker for "the seed spec carried no breadth": keep the run's default.
_SEED_CAP_UNSET = object()


def _decode_seed_spec(spec) -> tuple[list | None, object]:
    """Decode a seed payload into ``(seed_plans, seed_cap)``.

    The spec is either a mapping (``{"plans": [...], "cap": int|None}``,
    what :meth:`OptimizerSession._store_seed` builds) or a bare list of
    plan documents; undecodable plans degrade to an unseeded run.
    """
    seed_cap = _SEED_CAP_UNSET
    if isinstance(spec, dict):
        seed_docs = spec.get("plans")
        seed_cap = spec.get("cap", _SEED_CAP_UNSET)
    else:
        seed_docs = spec
    if not seed_docs:
        return None, seed_cap
    try:
        return [decode_plan(doc) for doc in seed_docs], seed_cap
    except Exception:  # reprolint: disable=REP601
        return None, seed_cap  # unusable seed: run cold


def _run_anytime(scenario, query: Query, resolution: int, options,
                 anytime: dict) -> tuple[dict, dict]:
    """Run an anytime precision ladder to its (cooperative) budget.

    The budget is enforced *inside* the run at step boundaries, so a
    pooled worker returns its best-so-far by itself — no cancellation,
    no pool teardown.  When the payload carries a live-event queue
    (``anytime["events"]``, a manager-queue proxy), every progress event
    is also shipped through it as it happens, closing with a ``None``
    sentinel — this is what makes pooled ``optimize_iter`` stream live
    instead of replaying the trail on completion.
    """
    events_queue = anytime.get("events")
    seed_plans, seed_cap = _decode_seed_spec(anytime.get("seed"))
    run = scenario.start_run(
        query, resolution=resolution, options=options,
        precision_ladder=tuple(anytime["ladder"]),
        seed_plans=seed_plans)
    if seed_plans and seed_cap is not _SEED_CAP_UNSET:
        run.seed_cap = seed_cap
    if events_queue is not None:
        run.on_event = _live_event_emitter(run, events_queue)
    try:
        status = run.run(Budget.from_dict(anytime.get("budget")))
    finally:
        if events_queue is not None:
            try:
                events_queue.put(None)
            except Exception:  # reprolint: disable=REP601
                pass  # consumer recovers the tail from the replay trail
    rungs = [{"doc": encode_result(outcome.result),
              "alpha": outcome.alpha, "guarantee": outcome.guarantee}
             for outcome in run.completed]
    result = run.result()
    if status == RUN_COMPLETED:
        item_status = "ok"
    elif rungs:
        item_status = "partial"
    else:
        item_status = "timeout"
    outcome = {
        "doc": rungs[-1]["doc"] if rungs else None,
        "alpha": run.achieved_alpha if rungs else None,
        "guarantee": run.guarantee if rungs else None,
        "status": item_status,
        "rungs": rungs,
        "events": [event.as_dict() for event in run.events],
        "seeded_plans": run.seeded_plans,
    }
    stats = (result.stats.summary() if result is not None
             else OptimizerStats().summary())
    return outcome, stats


def _worker_init(memo_entries: list, memo_size: int) -> None:
    """Pool-worker initializer: install a seeded process-local LP memo.

    The memo persists for the worker's lifetime — the pool is persistent,
    so LP results accumulate across every batch the session runs.  Delta
    tracking is on: every task result ships the entries the worker
    learned back to the session (:func:`_drain_memo_delta`), closing the
    worker -> parent half of the memo loop (the parent -> worker half is
    the spawn seed).
    """
    memo = LPResultCache(max(memo_size, 1), track_delta=True)
    memo.merge(memo_entries)
    install_shared_lp_cache(memo)


class OptimizerSession:
    """Session façade over the optimizer: pool, caches and scenarios.

    Args:
        scenario: Default scenario name for submitted queries (resolved
            eagerly, so typos fail at construction).
        workers: Worker processes; ``0`` or ``1`` optimizes in-process
            (serial), ``>= 2`` uses the persistent process pool.
        resolution: PWL grid resolution of the scenario cost models.
        options: Backend options forwarded to every optimization.
        timeout_seconds: Per-call deadline for :meth:`map` /
            :meth:`as_completed`, measured from call start (pool mode
            only; a serial run cannot preempt a running optimization).
            Overdue items are reported ``"timeout"``; workers caught
            still executing an overdue task are terminated and the pool
            respawned lazily, so later calls get full capacity instead
            of sharing it with abandoned work.
        warm_start: Consult/populate the warm-start cache.
        cache: Warm-start cache to share; a private one is created when
            omitted.
        registry: Scenario registry; the process-global default when
            omitted.  Scenarios are *shipped* to pooled workers inside
            each task payload whenever they pickle (built-in scenarios
            and any registration with module-level factories do), so
            custom registries work with pooled sessions on both fork- and
            spawn-based platforms.  Unpicklable registrations fall back
            to by-name resolution from the worker's default registry,
            which then must have the name registered in a module the
            workers import.
        mp_context: Optional :mod:`multiprocessing` context for the
            worker pool (e.g. ``multiprocessing.get_context("spawn")``);
            the platform default when omitted.
        lp_memo_size: Capacity of the session-scoped LP-result memo
            (``0`` disables cross-run LP memoization entirely — serial
            runs and pool workers then fall back to the optimizer's
            private per-run memo governed by ``options.lp_cache_size``,
            exactly as before).
        lp_memo: Explicit LP memo to adopt instead of creating a fresh
            one — e.g. a memo populated by an earlier serial session, so
            a pooled session's workers spawn warm.

    The session is a context manager; :meth:`close` is idempotent and is
    also invoked on garbage collection.
    """

    def __init__(self, scenario: str = "cloud", *, workers: int = 0,
                 resolution: int = 2,
                 options: PWLRRPAOptions | None = None,
                 timeout_seconds: float | None = None,
                 warm_start: bool = True,
                 cache: WarmStartCache | None = None,
                 registry: ScenarioRegistry | None = None,
                 mp_context=None,
                 lp_memo_size: int = 65536,
                 lp_memo: LPResultCache | None = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if lp_memo_size < 0:
            raise ValueError("lp_memo_size must be >= 0")
        self.registry = registry if registry is not None else (
            default_registry())
        self.scenario = scenario
        self.registry.get(scenario)  # fail fast on unknown names
        self.workers = workers
        self.resolution = resolution
        self.options = options
        self.timeout_seconds = timeout_seconds
        self.warm_start = warm_start
        self.cache = cache if cache is not None else WarmStartCache()
        if lp_memo is not None:
            self.lp_memo = lp_memo
        else:
            self.lp_memo = (LPResultCache(lp_memo_size)
                            if lp_memo_size > 0 else None)
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._timed_out = False
        #: Lazily started :func:`multiprocessing.Manager` providing the
        #: live-event queues of pooled ``optimize_iter`` calls (``None``
        #: until first use, ``False`` when manager start-up failed and
        #: streaming falls back to replay-on-completion).
        self._manager = None
        #: Executor future of the most recent pooled ``optimize_iter``
        #: (introspection hook: lets callers/tests observe that events
        #: arrive while the worker is still running).
        self._live_stream_future: Future | None = None
        #: Per-name shipping decision, keyed to the scenario instance it
        #: was made for: ``(scenario, scenario-or-None)`` — ``None``
        #: selects the by-name worker fallback for unpicklable entries.
        self._ship_cache: dict[str, tuple] = {}
        #: Times a worker pool was spawned; stays at 1 across any number
        #: of batch calls (the regression the legacy engine had).
        self.pool_spawns = 0
        #: Broken pools (a worker killed hard) replaced with a fresh one
        #: so a single crash does not poison the session.
        self.pool_respawns = 0
        #: Worker LP-memo deltas merged back into the session memo, and
        #: how many of their entries were new to it.  Together with
        #: :attr:`lp_cache_hits_total` this shows the cross-batch
        #: hit-rate gain of the worker -> parent memo flow.
        self.lp_memo_merges = 0
        self.lp_memo_merged_entries = 0
        #: LP memo hits summed over every completed item's stats.
        self.lp_cache_hits_total = 0
        #: Anytime cache misses where the persistent store produced a
        #: similar-query seed, and where it produced none.
        self.store_seed_hits = 0
        self.store_seed_misses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> OptimizerSession:
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # reprolint: disable=REP601
            pass  # interpreter may be tearing down under GC

    def close(self) -> None:
        """Shut the session down (idempotent).

        Waits for in-flight work.  The exception is a deadline miss whose
        handling was cut short (an abandoned ``as_completed`` iterator):
        its overdue workers are terminated outright instead of stalling
        the close.
        """
        if self._closed:
            return
        self._closed = True
        manager, self._manager = self._manager, None
        if manager:
            try:
                manager.shutdown()
            except Exception:  # reprolint: disable=REP601
                pass  # manager already gone; close stays idempotent
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if self._timed_out:
            # Abandoned (timed-out) tasks may still be running; do not
            # stall on them — queued tasks are cancelled and the worker
            # processes terminated outright.
            processes = dict(getattr(pool, "_processes", None) or {})
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes.values():
                process.terminate()
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("OptimizerSession is closed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self.lp_memo is not None:
                # Each worker gets a private memo living for the pool's
                # lifetime, seeded with whatever the session memo holds.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self.mp_context,
                    initializer=_worker_init,
                    initargs=(self.lp_memo.export(
                        limit=WORKER_SEED_LIMIT), self.lp_memo.maxsize))
            else:  # cross-run memoization disabled
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self.mp_context)
            self.pool_spawns += 1
        return self._pool

    def _discard_broken_pool(self) -> None:
        """Drop a broken pool so the next call can respawn one.

        A worker killed hard (OOM, segfault) breaks the whole
        :class:`ProcessPoolExecutor`; unlike the per-batch pools of the
        legacy engine, a persistent pool must recover explicitly or every
        later call would fail forever.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _recycle_pool(self) -> None:
        """Terminate workers stuck on overdue tasks and drop the pool.

        Called after a deadline miss caught tasks still *executing*:
        cancellation cannot stop them, and leaving them running would
        both leak CPU and shrink the capacity every later call sees.  The
        next pooled call respawns a fresh pool lazily.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            process.terminate()

    # ------------------------------------------------------------------
    # Submission plumbing
    # ------------------------------------------------------------------

    def _scenario_name(self, scenario: str | None) -> str:
        name = scenario if scenario is not None else self.scenario
        self.registry.get(name)  # raise early for unknown names
        return name

    def _signature(self, query: Query, scenario_name: str,
                   options: PWLRRPAOptions | None = None) -> str:
        return query_signature(
            query, scenario=scenario_name, resolution=self.resolution,
            options=options if options is not None else self.options)

    def _target_alpha(self) -> float:
        """Alpha the session's configured options optimize to."""
        return (self.options.approximation_factor
                if self.options is not None else 0.0)

    def _anytime_options(self, target: float) -> PWLRRPAOptions:
        """Session options re-targeted to an anytime precision.

        Signatures derive from these, so an anytime run to completion
        shares warm-start entries with a plain session configured at the
        same approximation factor.
        """
        return replace(self.options or PWLRRPAOptions(),
                       approximation_factor=float(target))

    def _shipped_scenario(self, scenario_name: str):
        """Scenario object to embed in pooled payloads (memoized).

        Returns the registry's :class:`Scenario` when it pickles —
        workers then use it directly, independent of their own registry
        state (spawn-safe) — and ``None`` when it does not, selecting the
        worker-side by-name fallback.  The picklability decision is
        memoized per *scenario instance*, so re-registering a name with
        ``replace=True`` mid-session is picked up (the pooled path then
        ships the new scenario exactly as the serial path resolves it).
        """
        scenario = self.registry.get(scenario_name)
        cached = self._ship_cache.get(scenario_name)
        if cached is None or cached[0] is not scenario:
            try:
                pickle.dumps(scenario)
            except Exception:  # reprolint: disable=REP601
                # Unpicklable registration: by-name worker fallback.
                cached = (scenario, None)
            else:
                cached = (scenario, scenario)
            self._ship_cache[scenario_name] = cached
        return cached[1]

    def _cached_item(self, index: int, signature: str,
                     scenario_name: str,
                     max_alpha: float | None = None) -> BatchItem | None:
        """Warm-start lookup; ``None`` on miss or undecodable entry.

        ``max_alpha`` (default: the session's configured approximation
        factor) is the loosest guarantee tag the caller accepts — an
        entry left behind by an interrupted anytime run never serves a
        request for a tighter precision.
        """
        if not self.warm_start:
            return None
        if max_alpha is None:
            max_alpha = self._target_alpha()
        doc = self.cache.get(signature, max_alpha=max_alpha)
        if doc is None:
            return None
        alpha = float(doc.get("alpha", 0.0))
        try:
            plan_set = decode_plan_set(doc)
        except Exception:  # reprolint: disable=REP601
            # Undecodable cache entry (e.g. a document of another
            # format version): fall through and re-optimize.
            return None
        return BatchItem(index=index, signature=signature, status="cached",
                         plan_set=plan_set, scenario=scenario_name,
                         alpha=alpha,
                         guarantee=float(doc.get("guarantee", 1.0)))

    def _store_seed(self, query: Query, signature: str,
                    scenario_name: str, options,
                    ladder: tuple) -> list[dict] | None:
        """Similar-query seed lookup in the persistent store tier.

        Runs on anytime cache misses.  Registers the query's family
        metadata (so the eventual ``cache.put`` write-through can attach
        it to the stored row), then asks the store for the same-family
        entry with the nearest statistics feature vector.  Returns a
        picklable seed spec — the neighbor's plan-tree documents plus
        the chosen seeding breadth (see :meth:`_seed_breadth`), ready to
        embed in a pooled payload — or ``None`` when seeding is disabled
        (``REPRO_STORE_SEED=0``), no store is configured, the ladder has
        no coarse rung to seed, or the store has no neighbor.
        """
        store = getattr(self.cache, "store", None)
        if (store is None or not self.warm_start
                or not ladder or ladder[0] <= 0
                or not config.enabled("REPRO_STORE_SEED")):
            return None
        effective = options if options is not None else self.options
        try:
            family = family_digest(query, scenario=scenario_name,
                                   resolution=self.resolution,
                                   options=effective)
            features = signature_features(query)
            store.register(signature, family=family,
                           scenario=scenario_name,
                           stats_digest=statistics_digest(query),
                           num_tables=query.num_tables,
                           num_params=max(1, query.num_params),
                           features=features)
            rows = store.nearest(family, features, limit=1,
                                 exclude_signature=signature)
        except Exception:  # reprolint: disable=REP601
            return None  # store unavailable: run cold
        if not rows:
            self.store_seed_misses += 1
            return None
        self.store_seed_hits += 1
        document = rows[0]["document"]
        return {"plans": [entry["plan"]
                          for entry in document.get("entries", [])],
                "cap": self._seed_breadth(document)}

    def _seed_breadth(self, document: dict) -> int | None:
        """Per-table-set seed cap for a run seeded from ``document``.

        Seeding breadth is all-or-one (partial breadths measure as the
        worst of both — insertion cost without complete-frontier
        pruning): adopt the neighbor's whole frontier (``None``) when
        its recorded repair cost says the enumeration is expensive
        enough to amortize the quadratic installation, otherwise install
        one near-free incumbent per table set
        (:data:`repro.core.run.DEFAULT_SEED_CAP`).
        ``REPRO_STORE_SEED_BREADTH`` forces ``all`` or ``one``.
        """
        raw = config.value("REPRO_STORE_SEED_BREADTH")
        if raw == "all":
            return None
        if raw == "one":
            return DEFAULT_SEED_CAP
        try:
            repair = float(document.get("repair_lps") or 0.0)
        except (TypeError, ValueError):
            repair = 0.0
        return None if repair >= SEED_ALL_IN_LPS else DEFAULT_SEED_CAP

    def _seed_jump_alpha(self) -> float:
        """Coarsest rung a seeded run still descends through.

        ``REPRO_STORE_SEED_ALPHA`` overrides the default jump point
        (:data:`repro.core.run.SEED_JUMP_ALPHA`); unparseable values
        fall back to the default.
        """
        parsed = config.value("REPRO_STORE_SEED_ALPHA")
        return SEED_JUMP_ALPHA if parsed is None else parsed

    def _seeded_ladder(self, ladder: tuple) -> tuple:
        """Trim a default ladder for a seeded (warm) run.

        With near-optimal incumbents already in the DP table, the coarse
        protective rungs no longer pay for themselves: the seeded run
        jumps straight to the tightest approximate rung and then the
        target.  This is the measured source of the warm-start speedup
        (seeds alone merely break even on LPs) — see
        ``docs/plan-store.md``.  Only applied when the caller did *not*
        pass an explicit ``precision_ladder``.
        """
        return trim_ladder_for_seed(ladder, self._seed_jump_alpha())

    def _merge_memo_delta(self, outcome: dict) -> None:
        """Adopt a worker's freshly learned LP-memo entries.

        Runs on whichever thread delivers the result (the pool's
        collector thread for pooled items); the memo is lock-protected.
        """
        delta = outcome.get("lp_memo_delta")
        if not delta or self.lp_memo is None:
            return
        self.lp_memo_merges += 1
        self.lp_memo_merged_entries += self.lp_memo.merge(delta)

    def _decode_events(self, outcome: dict) -> tuple:
        """Rebuild the progress-event trail of a pooled anytime outcome.

        ``rung_completed`` events get the decoded plan set of their rung
        attached, so :meth:`optimize_iter` consumers see the same event
        payloads on the pooled path as on the live serial path.
        """
        rung_sets: dict[int, StoredPlanSet] = {}
        for rung_index, rung in enumerate(outcome.get("rungs", ())):
            try:
                rung_sets[rung_index] = decode_plan_set(rung["doc"])
            except Exception:  # reprolint: disable=REP601
                continue  # undecodable rung: ship the bare event
        events = []
        for doc in outcome.get("events", ()):
            event = ProgressEvent.from_dict(doc)
            if event.kind == "rung_completed" and event.rung in rung_sets:
                event = replace(event, plan_set=rung_sets[event.rung])
            events.append(event)
        return tuple(events)

    def _ok_item(self, index: int, signature: str, scenario_name: str,
                 outcome: dict, stats: dict,
                 seconds: float) -> BatchItem:
        """Build a result item, feeding the warm-start cache."""
        self._merge_memo_delta(outcome)
        status = outcome.get("status", "ok")
        doc = outcome.get("doc")
        if doc is None:  # anytime run whose budget beat the first rung
            item = self._error_item(
                index, signature, scenario_name, "timeout",
                "budget exhausted before the first ladder rung")
            item.events = self._decode_events(outcome)
            return item
        alpha = float(outcome.get("alpha") or 0.0)
        if self.warm_start:
            _tag_repair_cost(doc, (stats or {}).get("lps_solved"))
            self.cache.put(signature, doc, alpha=alpha)
        if stats:
            self.lp_cache_hits_total += int(
                stats.get("lp_cache_hits", 0))
        return BatchItem(index=index, signature=signature, status=status,
                         plan_set=decode_plan_set(doc), stats=stats,
                         seconds=seconds, scenario=scenario_name,
                         alpha=alpha,
                         guarantee=float(outcome.get("guarantee") or 1.0),
                         events=self._decode_events(outcome))

    def _error_item(self, index: int, signature: str, scenario_name: str,
                    status: str, error: str) -> BatchItem:
        return BatchItem(index=index, signature=signature, status=status,
                         error=error, scenario=scenario_name)

    def _run_serial(self, index: int, signature: str, scenario_name: str,
                    query: Query, options: PWLRRPAOptions | None = None,
                    anytime: dict | None = None) -> BatchItem:
        """Optimize in-process, with the session LP memo installed."""
        previous = None
        if self.lp_memo is not None:
            previous = install_shared_lp_cache(self.lp_memo)
        try:
            # Serial runs pass the session registry's scenario object
            # directly (no pickling involved), so custom registries are
            # honored without any default-registry registration.
            __, outcome, stats, seconds = _optimize_payload(
                (index, scenario_name, self.registry.get(scenario_name),
                 query, self.resolution,
                 options if options is not None else self.options,
                 anytime))
        except Exception as exc:  # reprolint: disable=REP601
            # Error isolation per query: failures become error items.
            return self._error_item(index, signature, scenario_name,
                                    "error", f"{type(exc).__name__}: {exc}")
        finally:
            if self.lp_memo is not None:
                install_shared_lp_cache(previous)
        try:
            return self._ok_item(index, signature, scenario_name,
                                 outcome, stats, seconds)
        except Exception as exc:  # reprolint: disable=REP601
            # Result decoding/caching failure (e.g. a poisoned outcome
            # doc): an error item, mirroring the pooled collector path.
            return self._error_item(index, signature, scenario_name,
                                    "error", f"{type(exc).__name__}: {exc}")

    def _submit_pooled(self, index: int, signature: str,
                       scenario_name: str, query: Query,
                       options: PWLRRPAOptions | None = None,
                       anytime: dict | None = None
                       ) -> tuple[Future, Future | None]:
        """Submit to the persistent pool.

        Returns ``(item_future, raw_future)``; the item future resolves
        to a :class:`BatchItem` (never raises), the raw future is the
        executor handle (``None`` when submission itself failed) kept for
        deadline-driven cancellation.
        """
        item_future: Future = Future()
        payload = (index, scenario_name,
                   self._shipped_scenario(scenario_name), query,
                   self.resolution,
                   options if options is not None else self.options,
                   anytime)
        try:
            raw = self._ensure_pool().submit(_optimize_payload, payload)
        except BrokenProcessPool:
            # A previously crashed worker broke the pool; respawn once
            # and retry so one hard crash does not poison the session.
            self._discard_broken_pool()
            self.pool_respawns += 1
            try:
                raw = self._ensure_pool().submit(_optimize_payload,
                                                 payload)
            except Exception as exc:  # reprolint: disable=REP601
                item_future.set_result(self._error_item(
                    index, signature, scenario_name, "error",
                    f"{type(exc).__name__}: {exc}"))
                return item_future, None
        except Exception as exc:  # reprolint: disable=REP601
            # E.g. an unpicklable query: reported as an error item.
            item_future.set_result(self._error_item(
                index, signature, scenario_name, "error",
                f"{type(exc).__name__}: {exc}"))
            return item_future, None

        def _complete(done: Future) -> None:
            # Runs on the executor's collector thread.  Late results of
            # timed-out items land here too — they still feed the
            # warm-start cache via _ok_item.
            try:
                if done.cancelled():
                    item = self._error_item(
                        index, signature, scenario_name, "timeout",
                        "cancelled before execution")
                else:
                    exc = done.exception()
                    if exc is not None:
                        item = self._error_item(
                            index, signature, scenario_name, "error",
                            f"{type(exc).__name__}: {exc}")
                    else:
                        __, outcome, stats, seconds = done.result()
                        item = self._ok_item(index, signature,
                                             scenario_name, outcome,
                                             stats, seconds)
                item_future.set_result(item)
            except Exception as exc:  # reprolint: disable=REP601
                # Decoding/caching failure: reported as an error item.
                item_future.set_result(self._error_item(
                    index, signature, scenario_name, "error",
                    f"{type(exc).__name__}: {exc}"))

        raw.add_done_callback(_complete)
        return item_future, raw

    # ------------------------------------------------------------------
    # Public submission surface
    # ------------------------------------------------------------------

    def submit(self, query: Query, *, scenario: str | None = None,
               index: int = 0) -> Future:
        """Submit one query; returns a future resolving to a
        :class:`BatchItem`.

        The future never raises for optimization failures — errors are
        reported in the item's ``status``/``error`` fields.  Warm-start
        hits resolve immediately.

        Raises:
            RuntimeError: If the session is closed.
            KeyError: For unknown scenario names.
        """
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        signature = self._signature(query, scenario_name)
        cached = self._cached_item(index, signature, scenario_name)
        if cached is not None:
            future: Future = Future()
            future.set_result(cached)
            return future
        if self.workers > 1:
            item_future, __ = self._submit_pooled(index, signature,
                                                  scenario_name, query)
            return item_future
        future = Future()
        future.set_result(self._run_serial(index, signature, scenario_name,
                                           query))
        return future

    def as_completed(self, queries: Sequence[Query], *,
                     scenario: str | None = None
                     ) -> Iterator[BatchItem]:
        """Optimize ``queries``, yielding items as they finish.

        Duplicate queries (same signature) within the call are optimized
        once; followers are yielded right after their leader as
        ``"cached"`` items.  With a ``timeout_seconds`` deadline, items
        not finished in time are yielded as ``"timeout"`` without tearing
        the pool down.  Every input query yields exactly one item.

        Raises:
            RuntimeError: If the session is closed.
            KeyError: For unknown scenario names.
        """
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        # Plan the batch: warm hits are decoded immediately, one leader is
        # kept per distinct signature, in-batch duplicates become
        # followers of their leader.
        hits: list[BatchItem] = []
        leaders: list[tuple[int, str, Query]] = []
        followers: dict[int, list[int]] = {}
        seen: dict[str, int] = {}
        for index, query in enumerate(queries):
            signature = self._signature(query, scenario_name)
            cached = self._cached_item(index, signature, scenario_name)
            if cached is not None:
                hits.append(cached)
            elif self.warm_start and signature in seen:
                # In-batch duplicate: optimize once, share the result.
                # Gated on warm_start like the cross-batch cache, so
                # warm_start=False keeps forcing every copy to optimize
                # (the legacy contract; benchmarks rely on it).
                followers.setdefault(seen[signature], []).append(index)
            else:
                seen[signature] = index
                leaders.append((index, signature, query))
        # Warm hits are complete already — yield them first.
        yield from hits
        yield from self._drain(leaders, followers, scenario_name)

    def _follower_items(self, item: BatchItem, follower_indexes: list[int],
                        scenario_name: str) -> Iterator[BatchItem]:
        for follower in follower_indexes:
            if item.ok:
                # Plan sets are read-only at run time, so leader and
                # followers can share one decoded instance.
                yield BatchItem(index=follower, signature=item.signature,
                                status="cached", plan_set=item.plan_set,
                                scenario=scenario_name)
            else:
                yield self._error_item(follower, item.signature,
                                       scenario_name, item.status,
                                       item.error or "")

    def _drain(self, leaders: list[tuple], followers: dict,
               scenario_name: str) -> Iterator[BatchItem]:
        """Yield one item per leader (plus its followers), streaming."""
        if self.workers > 1:
            yield from self._drain_pooled(leaders, followers,
                                          scenario_name)
            return
        # Serial: leaders run inline in input order (completion order ==
        # input order).
        for index, signature, query in leaders:
            item = self._run_serial(index, signature, scenario_name, query)
            yield item
            yield from self._follower_items(item, followers.get(index, ()),
                                            scenario_name)

    def _drain_pooled(self, leaders: list[tuple], followers: dict,
                      scenario_name: str) -> Iterator[BatchItem]:
        deadline = (None if self.timeout_seconds is None
                    else time.monotonic() + self.timeout_seconds)
        in_flight: dict[Future, tuple[int, str, Future | None]] = {}
        for index, signature, query in leaders:
            item_future, raw = self._submit_pooled(index, signature,
                                                   scenario_name, query)
            in_flight[item_future] = (index, signature, raw)
        try:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            for done in _futures_as_completed(in_flight,
                                              timeout=remaining):
                index, signature, __ = in_flight.pop(done)
                item = done.result()  # never raises; always a BatchItem
                yield item
                yield from self._follower_items(
                    item, followers.get(index, ()), scenario_name)
        except FutureTimeoutError:
            self._timed_out = True
            still_running = False
            for index, signature, raw in in_flight.values():
                # Unstarted tasks are cancelled to free the pool; a task
                # a worker is already executing cannot be stopped that
                # way and forces a pool recycle below.
                if raw is not None and not raw.cancel() and not raw.done():
                    still_running = True
                item = self._error_item(
                    index, signature, scenario_name, "timeout",
                    f"no result within {self.timeout_seconds}s of call "
                    f"start")
                yield item
                yield from self._follower_items(
                    item, followers.get(index, ()), scenario_name)
            if still_running:
                self._recycle_pool()
            self._timed_out = False

    def map(self, queries: Sequence[Query], *,
            scenario: str | None = None) -> list[BatchItem]:
        """Optimize ``queries``, returning one item per query, in order.

        Deterministic: results are indexed by input position regardless
        of completion order (the legacy ``optimize_batch`` contract).
        """
        items: list[BatchItem | None] = [None] * len(queries)
        for item in self.as_completed(queries, scenario=scenario):
            items[item.index] = item
        return [item for item in items if item is not None]

    def optimize(self, query: Query, *, scenario: str | None = None,
                 precision: float | None = None,
                 budget: Budget | None = None,
                 precision_ladder=None) -> BatchItem:
        """Optimize one query synchronously.

        Without anytime arguments this is sugar for ``map([query])`` —
        the exact-mode contract, bit-identical to the pre-anytime
        engine.  With ``precision`` and/or ``budget`` it becomes an
        *anytime* call:

        * ``precision=alpha`` targets a ``(1 + alpha)``-approximate
          Pareto set (``0.0`` = exact) instead of the session's
          configured approximation factor;
        * ``budget`` bounds the run cooperatively (checked at DP step
          boundaries — workers stop themselves, no pool teardown); when
          it expires, the best *completed* ladder rung is returned as a
          ``"partial"`` item with its achieved ``alpha``/``guarantee``,
          or ``"timeout"`` if no rung completed;
        * ``precision_ladder`` overrides the rung sequence (default:
          :data:`repro.core.run.DEFAULT_PRECISION_LADDER` truncated at
          the target when a budget is set, a single target rung
          otherwise).

        Works identically on the serial and pooled paths.
        """
        if precision is None and budget is None and (
                precision_ladder is None):
            (item,) = self.map([query], scenario=scenario)
            return item
        return self._optimize_anytime(query, scenario, precision,
                                      budget, precision_ladder)

    def _resolve_ladder(self, precision: float | None, budget,
                        precision_ladder) -> tuple[float, ...]:
        """Pick the rung sequence for an anytime call.

        An explicit ladder wins.  Otherwise a budgeted call descends the
        default ladder to the target (coarse rungs first, so a guarantee
        exists as early as possible), while an unbudgeted call jumps
        straight to the target in one rung.
        """
        if precision_ladder is not None:
            ladder = validate_ladder(precision_ladder)
            if precision is not None and ladder[-1] != float(precision):
                raise ValueError(
                    f"precision_ladder must end at precision="
                    f"{precision}, got {ladder}")
            return ladder
        target = float(precision) if precision is not None else 0.0
        if budget is not None:
            return ladder_to(target)
        return (target,)

    def _optimize_anytime(self, query: Query, scenario: str | None,
                          precision: float | None,
                          budget: Budget | None, precision_ladder
                          ) -> BatchItem:
        """Shared anytime path behind ``optimize``/``optimize_iter``."""
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        ladder = self._resolve_ladder(precision, budget, precision_ladder)
        target = ladder[-1]
        options = self._anytime_options(target)
        signature = self._signature(query, scenario_name, options=options)
        cached = self._cached_item(0, signature, scenario_name,
                                   max_alpha=target)
        if cached is not None:
            return cached
        seed = self._store_seed(query, signature, scenario_name, options,
                                ladder)
        if seed and precision_ladder is None:
            ladder = self._seeded_ladder(ladder)
        anytime = {"ladder": ladder,
                   "budget": budget.as_dict() if budget else None}
        if seed:
            anytime["seed"] = seed
        if self.workers > 1:
            item_future, raw = self._submit_pooled(
                0, signature, scenario_name, query, options=options,
                anytime=anytime)
            if self.timeout_seconds is None:
                return item_future.result()
            # The cooperative budget is the primary bound, but the
            # session deadline still backstops a hung worker — same
            # semantics as map(): report "timeout", recycle a worker
            # caught still executing, keep the session usable.
            try:
                return item_future.result(timeout=self.timeout_seconds)
            except FutureTimeoutError:
                if raw is not None and not raw.cancel() and (
                        not raw.done()):
                    self._recycle_pool()
                return self._error_item(
                    0, signature, scenario_name, "timeout",
                    f"no result within {self.timeout_seconds}s of call "
                    f"start")
        return self._run_serial(0, signature, scenario_name, query,
                                options=options, anytime=anytime)

    # ------------------------------------------------------------------
    # Live event streaming (pooled optimize_iter)
    # ------------------------------------------------------------------

    def _event_queue(self):
        """A fresh manager queue for one live-streamed pooled run.

        The manager process is started lazily on the first streaming
        call and lives until :meth:`close`.  Returns ``None`` when the
        manager cannot be started (constrained environments) — pooled
        streaming then degrades to replaying the trail on completion,
        which is the pre-live behavior.
        """
        if self._manager is None:
            try:
                self._manager = multiprocessing.Manager()
            except Exception:  # reprolint: disable=REP601
                # Constrained environment: degrade to replay streaming.
                self._manager = False
        if not self._manager:
            return None
        try:
            return self._manager.Queue()
        except Exception:  # reprolint: disable=REP601
            return None  # manager died: replay-on-completion fallback

    def _decode_live_event(self, doc: dict, signature: str
                           ) -> ProgressEvent:
        """Rebuild one live-streamed event; feed the warm-start cache.

        Mirrors the serial path: every completed rung's plan set goes
        into the cache under its alpha tag the moment it exists, and the
        ``rung_completed`` event carries the decoded set.
        """
        event = ProgressEvent.from_dict(doc["event"])
        rung = doc.get("rung")
        if rung is not None:
            if self.warm_start:
                _tag_repair_cost(rung["doc"], event.lps_solved)
                self.cache.put(signature, rung["doc"],
                               alpha=float(rung["alpha"]))
            try:
                event = replace(event,
                                plan_set=decode_plan_set(rung["doc"]))
            except Exception:  # reprolint: disable=REP601
                pass  # undecodable rung: ship the bare event
        return event

    def _optimize_iter_pooled(self, query: Query, scenario_name: str,
                              ladder, budget: Budget | None, options,
                              signature: str, seed=None
                              ) -> Iterator[ProgressEvent]:
        """Stream a pooled ladder run's events *live*.

        The worker ships every progress event through a per-run manager
        queue as it is emitted (closing with a ``None`` sentinel), so
        consumers see rung plan sets while later rungs are still
        optimizing — previously the pooled path replayed the whole trail
        only after the run finished.  Events the queue could not carry
        (manager unavailable, proxy broken mid-run) are recovered from
        the outcome's replay trail, so the consumer always sees the full
        trail exactly once, in order.
        """
        events_queue = self._event_queue()
        anytime = {"ladder": ladder,
                   "budget": budget.as_dict() if budget else None}
        if seed:
            anytime["seed"] = seed
        if events_queue is not None:
            anytime["events"] = events_queue
        item_future, raw = self._submit_pooled(
            0, signature, scenario_name, query, options=options,
            anytime=anytime)
        self._live_stream_future = raw
        streamed = 0
        if events_queue is not None:
            finished = False
            while not finished:
                try:
                    doc = events_queue.get(timeout=0.05)
                except queue_module.Empty:
                    if item_future.done():
                        break
                    continue
                except Exception:  # reprolint: disable=REP601
                    break  # broken queue: recover from the replay trail
                if doc is None:
                    finished = True
                    break
                yield self._decode_live_event(doc, signature)
                streamed += 1
            # The worker finished (sentinel or resolved future); drain
            # whatever raced in after the last blocking get.
            while not finished:
                try:
                    doc = events_queue.get_nowait()
                except Exception:  # reprolint: disable=REP601
                    break  # empty or broken: the replay trail completes
                if doc is None:
                    break
                yield self._decode_live_event(doc, signature)
                streamed += 1
        item = item_future.result()
        if item.status == "error":
            # The serial path propagates run failures to the consumer;
            # an empty event stream must not masquerade as a (failed)
            # completed ladder on the pooled path either.
            raise OptimizationError(
                f"anytime run failed in worker: {item.error}")
        # Tail not delivered live (queue unavailable or broken mid-run):
        # the replay trail is deterministic and ordered, so the suffix
        # picks up exactly where the live stream stopped.
        yield from item.events[streamed:]

    def optimize_iter(self, query: Query, *,
                      scenario: str | None = None,
                      precision_ladder=None,
                      budget: Budget | None = None
                      ) -> Iterator[ProgressEvent]:
        """Stream an anytime run's progress as it tightens.

        Yields :class:`~repro.core.run.ProgressEvent` objects; every
        ``"rung_completed"`` event carries the rung's decoded plan set
        (``event.plan_set``) with its ``alpha``/``guarantee``, so a
        consumer can start serving from the first (coarsest) rung while
        later rungs refine.  Each rung warm-starts from the previous
        rung's DP work (plan-cost memo + LP memo), so the ladder costs
        far less than independent runs.

        Events stream live on both paths: serial runs yield step by
        step, and a pooled session ships each event from its worker
        through a per-run result queue as it is emitted (same events,
        same order — consumers see coarse rungs while tighter rungs are
        still optimizing).  One ``budget`` window spans the whole
        ladder.

        Args:
            query: The query to optimize.
            scenario: Scenario name override.
            precision_ladder: Strictly decreasing alphas; defaults to
                :data:`repro.core.run.DEFAULT_PRECISION_LADDER`.
            budget: Cooperative budget over the whole iteration.
        """
        self._check_open()
        scenario_name = self._scenario_name(scenario)
        ladder = validate_ladder(
            precision_ladder if precision_ladder is not None
            else ladder_to(self._target_alpha()))
        target = ladder[-1]
        options = self._anytime_options(target)
        signature = self._signature(query, scenario_name, options=options)
        cached = self._cached_item(0, signature, scenario_name,
                                   max_alpha=target)
        if cached is not None:
            # A warm plan set at (or tighter than) the target: the whole
            # ladder collapses to one already-completed rung.
            yield ProgressEvent(
                kind="rung_completed", rung=len(ladder) - 1,
                alpha=cached.alpha, guarantee=cached.guarantee,
                plan_count=len(cached.plan_set.entries),
                units_done=0, units_total=0, lps_solved=0, seconds=0.0,
                plan_set=cached.plan_set)
            return
        seed = self._store_seed(query, signature, scenario_name, options,
                                ladder)
        if seed and precision_ladder is None:
            ladder = self._seeded_ladder(ladder)
        if self.workers > 1:
            yield from self._optimize_iter_pooled(query, scenario_name,
                                                  ladder, budget, options,
                                                  signature, seed=seed)
            return
        yield from self._optimize_iter_serial(query, scenario_name,
                                              ladder, budget, options,
                                              signature, seed=seed)

    def _optimize_iter_serial(self, query: Query, scenario_name: str,
                              ladder, budget: Budget | None, options,
                              signature: str, seed=None
                              ) -> Iterator[ProgressEvent]:
        """Live in-process ladder run behind :meth:`optimize_iter`."""
        seed_plans, seed_cap = _decode_seed_spec(seed)
        run = self.registry.get(scenario_name).start_run(
            query, resolution=self.resolution, options=options,
            precision_ladder=ladder, seed_plans=seed_plans)
        if seed_plans and seed_cap is not _SEED_CAP_UNSET:
            run.seed_cap = seed_cap
        previous = None
        if self.lp_memo is not None:
            previous = install_shared_lp_cache(self.lp_memo)
        try:
            for event in run.iter_run(budget):
                if event.kind == "rung_completed":
                    outcome = run.completed[event.rung]
                    doc = encode_result(outcome.result)
                    if self.warm_start:
                        _tag_repair_cost(doc, event.lps_solved)
                        self.cache.put(signature, doc,
                                       alpha=outcome.alpha)
                    event = replace(event,
                                    plan_set=decode_plan_set(doc))
                yield event
        finally:
            if self.lp_memo is not None:
                install_shared_lp_cache(previous)
