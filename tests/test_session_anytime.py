"""Tests for the session-level anytime API and the LP-memo merge-back.

Covers:

* ``OptimizerSession.optimize(precision=..., budget=...)`` on the serial
  and pooled paths — budget expiry mid-run returns a valid ``"partial"``
  guarantee without tearing the pool down (cooperative cancellation),
  including under the ``spawn`` start method;
* ``OptimizerSession.optimize_iter`` — successively tighter plan sets
  streamed as progress events, with the pooled replay matching the live
  serial trail;
* warm-start alpha tags — a partial (coarse) cache entry never serves an
  exact request, and a tighter entry is never overwritten by a coarser
  one, in memory or in a plan-set store shared by several caches;
* worker LP-memo deltas merged back into the session memo, with the
  session counters showing the cross-batch gain.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import Budget, OptimizerSession, WarmStartCache
from repro.query import QueryGenerator
from repro.store import PlanSetStore


def make_query(seed: int = 0, num_tables: int = 4):
    return QueryGenerator(seed=seed).generate(num_tables, "chain", 1)


#: LP budget that lands mid-ladder for the 4-table chain query above:
#: enough for the coarse rungs, not for the exact one.
MID_LADDER_LPS = 150


def _hung_anytime(payload):
    """Worker stub (module-level: picklable): anytime payloads hang."""
    from repro.service import session as session_module
    if payload[6] is not None:
        import time as _time
        _time.sleep(30.0)
    return session_module._real_optimize_payload(payload)


def _poisoned_anytime(payload):
    """Worker stub (module-level: picklable): anytime payloads raise."""
    from repro.service import session as session_module
    if payload[6] is not None:
        raise RuntimeError("poisoned anytime run")
    return session_module._real_optimize_payload(payload)


class TestAnytimeOptimize:
    def test_serial_budget_expiry_returns_valid_guarantee(self):
        query = make_query(seed=7)
        with OptimizerSession("cloud", warm_start=False) as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            exact = session.optimize(query)
        assert partial.status == "partial"
        assert partial.ok
        assert partial.alpha > 0.0
        assert partial.guarantee > 1.0
        assert partial.plan_set is not None
        assert partial.plan_set.alpha == partial.alpha
        # The guarantee is real: at sample points, the partial set covers
        # the exact frontier within the reported factor on every metric.
        for x in ([0.1], [0.5], [0.9]):
            for metric in ("time", "fees"):
                best_exact = min(e.cost.evaluate(x)[metric]
                                 for e in exact.plan_set.entries)
                best_partial = min(e.cost.evaluate(x)[metric]
                                   for e in partial.plan_set.entries)
                assert (best_partial
                        <= best_exact * partial.guarantee + 1e-9)

    def test_zero_budget_times_out_without_plan_set(self):
        query = make_query(seed=7)
        with OptimizerSession("cloud", warm_start=False) as session:
            item = session.optimize(query, precision=0.0,
                                    budget=Budget(lps=0))
        assert item.status == "timeout"
        assert not item.ok
        assert item.plan_set is None
        assert item.events  # the trail still shows what happened

    def test_unbudgeted_precision_runs_single_rung(self):
        query = make_query(seed=7, num_tables=3)
        with OptimizerSession("cloud", warm_start=False) as session:
            item = session.optimize(query, precision=0.25)
        assert item.status == "ok"
        assert item.alpha == 0.25
        rungs = [e for e in item.events if e.kind == "rung_completed"]
        assert len(rungs) == 1

    def test_precision_ladder_and_precision_must_agree(self):
        query = make_query(seed=7, num_tables=2)
        with OptimizerSession("cloud") as session, \
                pytest.raises(ValueError, match="end at precision"):
            session.optimize(query, precision=0.0,
                             precision_ladder=(0.5, 0.2))

    def test_pooled_budget_expiry_keeps_pool_alive(self):
        """Cooperative cancellation: the worker stops itself, the pool
        survives, and later calls reuse it."""
        query = make_query(seed=7)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            assert partial.status == "partial"
            assert partial.alpha > 0.0
            assert partial.plan_set is not None
            assert session.pool_spawns == 1
            items = session.map([query])
            assert [item.status for item in items] == ["ok"]
            assert session.pool_spawns == 1  # no teardown, no respawn

    def test_spawn_context_budget_expiry(self):
        """Satellite: the cooperative budget works under spawn too."""
        query = make_query(seed=7)
        ctx = multiprocessing.get_context("spawn")
        with OptimizerSession("cloud", workers=2, mp_context=ctx,
                              warm_start=False) as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            assert partial.status == "partial", partial.error
            assert partial.alpha > 0.0
            assert session.pool_spawns == 1

    def test_session_deadline_backstops_hung_anytime_worker(self,
                                                            monkeypatch):
        """timeout_seconds still applies to pooled anytime calls: a hung
        worker yields a 'timeout' item and is recycled, like map()."""
        from repro.service import session as session_module

        real = session_module._optimize_payload
        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            real, raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _hung_anytime)
        query = make_query(seed=7, num_tables=2)
        with OptimizerSession("cloud", workers=2, timeout_seconds=1.0,
                              warm_start=False) as session:
            item = session.optimize(query, precision=0.0,
                                    budget=Budget(seconds=30.0))
            assert item.status == "timeout"
            assert session._pool is None  # stuck worker recycled
            monkeypatch.setattr(session_module, "_optimize_payload",
                                real)
            assert session.map([query])[0].status == "ok"

    def test_pooled_matches_serial_anytime_result(self):
        query = make_query(seed=9, num_tables=3)
        with OptimizerSession("cloud", warm_start=False) as serial:
            a = serial.optimize(query, precision=0.1)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as pooled:
            b = pooled.optimize(query, precision=0.1)
        assert (a.status, a.alpha, a.guarantee) == (b.status, b.alpha,
                                                    b.guarantee)
        assert len(a.plan_set.entries) == len(b.plan_set.entries)


class TestOptimizeIter:
    def test_serial_rungs_tighten(self):
        query = make_query(seed=13)
        with OptimizerSession("cloud", warm_start=False) as session:
            exact = session.optimize(query)
            rungs = [e for e in session.optimize_iter(query)
                     if e.kind == "rung_completed"]
        assert [e.alpha for e in rungs] == [0.5, 0.2, 0.05, 0.0]
        assert all(e.plan_set is not None for e in rungs)
        counts = [e.plan_count for e in rungs]
        assert counts == sorted(counts)
        # The final rung serves the same plan as the exact path.
        weights = {"time": 1.0, "fees": 0.3}
        assert (rungs[-1].plan_set.select([0.4], weights)[1]
                == exact.plan_set.select([0.4], weights)[1])

    def test_pooled_replay_matches_serial_trail(self):
        query = make_query(seed=13, num_tables=3)
        ladder = (0.5, 0.0)
        with OptimizerSession("cloud", warm_start=False) as serial:
            live = list(serial.optimize_iter(query,
                                             precision_ladder=ladder))
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as pooled:
            replay = list(pooled.optimize_iter(query,
                                               precision_ladder=ladder))
        assert [e.kind for e in replay] == [e.kind for e in live]
        live_rungs = [e for e in live if e.kind == "rung_completed"]
        replay_rungs = [e for e in replay if e.kind == "rung_completed"]
        assert ([(e.alpha, e.plan_count) for e in replay_rungs]
                == [(e.alpha, e.plan_count) for e in live_rungs])
        assert all(e.plan_set is not None for e in replay_rungs)

    def test_pooled_events_arrive_before_run_finishes(self):
        """Regression: pooled optimize_iter streams live, not replayed.

        The first events must be delivered while the worker task is
        still executing — before the live-queue fix the whole trail was
        replayed only after the pooled run finished.
        """
        query = make_query(seed=3, num_tables=4)
        ladder = (0.5, 0.2, 0.0)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            iterator = session.optimize_iter(query,
                                             precision_ladder=ladder)
            first = next(iterator)
            assert first.kind == "rung_started"
            raw = session._live_stream_future
            assert raw is not None
            # The run has three rungs of DP work ahead of it; receiving
            # the opening event after completion (the replay behavior)
            # would find the future already resolved here.
            assert not raw.done()
            events = [first]
            in_flight_rung_done = False
            for event in iterator:
                if event.kind == "rung_completed" and not raw.done():
                    in_flight_rung_done = True
                events.append(event)
            # At least one completed rung streamed out mid-run (the
            # coarse rungs finish long before the exact one).
            assert in_flight_rung_done
        # Liveness must not change the trail: same events as serial.
        with OptimizerSession("cloud", warm_start=False) as serial:
            live = list(serial.optimize_iter(query,
                                             precision_ladder=ladder))
        assert [e.kind for e in events] == [e.kind for e in live]
        assert ([(e.rung, e.alpha, e.plan_count) for e in events]
                == [(e.rung, e.alpha, e.plan_count) for e in live])
        pooled_rungs = [e for e in events if e.kind == "rung_completed"]
        assert all(e.plan_set is not None for e in pooled_rungs)

    def test_pooled_live_stream_feeds_warm_start_cache(self):
        """Each completed rung is cached under its alpha tag as it
        streams (the serial contract), not only at run end."""
        query = make_query(seed=3, num_tables=3)
        cache = WarmStartCache()
        with OptimizerSession("cloud", workers=2,
                              cache=cache) as session:
            iterator = session.optimize_iter(query,
                                             precision_ladder=(0.5, 0.0))
            for event in iterator:
                if event.kind == "rung_completed" and event.alpha > 0:
                    break  # abandon mid-stream after the coarse rung
            # The coarse rung made it into the cache (tagged with its
            # alpha) even though the iterator was dropped before the
            # exact rung finished.
            signature = session._signature(
                query, "cloud", options=session._anytime_options(0.0))
            entry = cache.get_entry(signature)
        assert entry is not None
        assert entry[1] == 0.5

    def test_budget_spans_whole_ladder(self):
        query = make_query(seed=13)
        with OptimizerSession("cloud", warm_start=False) as session:
            events = list(session.optimize_iter(
                query, budget=Budget(lps=MID_LADDER_LPS)))
        assert events[-1].kind == "budget_exhausted"
        rungs = [e for e in events if e.kind == "rung_completed"]
        assert rungs  # coarse rungs completed before exhaustion
        assert rungs[-1].alpha > 0.0

    def test_cached_hit_collapses_ladder(self):
        query = make_query(seed=13, num_tables=3)
        with OptimizerSession("cloud") as session:
            list(session.optimize_iter(query))  # populates the cache
            events = list(session.optimize_iter(query))
        assert [e.kind for e in events] == ["rung_completed"]
        assert events[0].alpha == 0.0
        assert events[0].plan_set is not None

    def test_invalid_ladder_rejected(self):
        query = make_query(seed=13, num_tables=2)
        with OptimizerSession("cloud") as session, \
                pytest.raises(ValueError, match="decreasing"):
            list(session.optimize_iter(query,
                                       precision_ladder=(0.1, 0.5)))

    def test_pooled_worker_failure_raises(self, monkeypatch):
        """A worker-side failure must not look like an empty (successful)
        event stream — the serial path raises, so the pooled one must
        too."""
        from repro.errors import OptimizationError
        from repro.service import session as session_module

        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _poisoned_anytime)
        query = make_query(seed=13, num_tables=2)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session, \
                pytest.raises(OptimizationError, match="poisoned"):
            list(session.optimize_iter(query,
                                       precision_ladder=(0.5, 0.0)))


class TestWarmStartAlphaTags:
    def test_partial_entry_does_not_serve_exact_request(self):
        query = make_query(seed=7)
        with OptimizerSession("cloud") as session:
            partial = session.optimize(query, precision=0.0,
                                       budget=Budget(lps=MID_LADDER_LPS))
            assert partial.status == "partial"
            # Same signature, but the cached entry is tagged with the
            # coarse rung alpha: the exact request must re-optimize.
            exact = session.optimize(query, precision=0.0)
            assert exact.status == "ok"
            assert exact.alpha == 0.0
            # Now the exact entry is cached and served.
            again = session.optimize(query, precision=0.0)
            assert again.status == "cached"
            assert again.alpha == 0.0

    def test_coarse_put_never_overwrites_tighter_entry(self):
        cache = WarmStartCache()
        exact_doc = {"version": 1, "alpha": 0.0, "entries": []}
        coarse_doc = {"version": 1, "alpha": 0.5, "entries": []}
        cache.put("sig", exact_doc, alpha=0.0)
        cache.put("sig", coarse_doc, alpha=0.5)
        assert cache.get_entry("sig") == (exact_doc, 0.0)

    def test_get_honors_max_alpha(self):
        cache = WarmStartCache()
        doc = {"version": 1, "entries": []}
        cache.put("sig", doc, alpha=0.2)
        assert cache.get("sig") == doc  # permissive default
        assert cache.get("sig", max_alpha=0.5) == doc
        assert cache.get("sig", max_alpha=0.1) is None
        assert cache.get("sig", max_alpha=0.2) == doc

    def test_disk_tier_preserves_alpha_tag(self, tmp_path):
        """The store is the on-disk tier: a fresh cache over it sees the
        alpha tag another cache wrote."""
        doc = {"version": 1, "alpha": 0.25, "entries": []}
        exact = dict(doc, alpha=0.0)
        coarser = dict(doc, alpha=0.5)
        with PlanSetStore(tmp_path / "store.db") as store:
            writer = WarmStartCache(store=store)
            writer.put("sig", doc, alpha=0.25)
            reader = WarmStartCache(store=store)
            assert reader.get_entry("sig") == (doc, 0.25)
            assert reader.get("sig", max_alpha=0.0) is None
            # A tighter write replaces it; a coarser one afterwards does
            # not.
            writer.put("sig", exact, alpha=0.0)
            writer.put("sig", coarser, alpha=0.5)
            fresh = WarmStartCache(store=store)
            assert fresh.get_entry("sig") == (exact, 0.0)

    def test_shared_store_coherence_across_caches(self, tmp_path):
        """A coarse put never shadows another cache's exact entry, and a
        too-coarse memory entry falls back to the store's tighter one."""
        doc_exact = {"version": 1, "alpha": 0.0, "entries": []}
        doc_coarse = {"version": 1, "alpha": 0.5, "entries": []}
        with PlanSetStore(tmp_path / "store.db") as store:
            first = WarmStartCache(store=store)
            first.put("sig", doc_exact, alpha=0.0)
            # A second cache with a cold memory tier puts its coarse
            # partial result: the store keeps the exact entry, and both
            # caches still serve it to exact requests.
            second = WarmStartCache(store=store)
            second.put("sig", doc_coarse, alpha=0.5)
            assert store.counters.puts_rejected_coarser == 1
            assert first.get("sig", max_alpha=0.0) == doc_exact
            assert second.get("sig", max_alpha=0.0) == doc_exact
            assert WarmStartCache(store=store).get_entry("sig") == (
                doc_exact, 0.0)

    def test_coarse_memory_entry_reads_tighter_store_entry(self,
                                                           tmp_path):
        """A cache holding a too-coarse memory entry answers an exact
        request from the tighter entry another cache stored meanwhile."""
        doc_exact = {"version": 1, "alpha": 0.0, "entries": []}
        doc_coarse = {"version": 1, "alpha": 0.5, "entries": []}
        with PlanSetStore(tmp_path / "store.db") as store:
            late = WarmStartCache(store=store)
            late.put("sig", doc_coarse, alpha=0.5)
            WarmStartCache(store=store).put("sig", doc_exact, alpha=0.0)
            assert late.get_entry("sig") == (doc_coarse, 0.5)
            hits, misses = late.hits, late.misses
            assert late.get("sig", max_alpha=0.0) == doc_exact
            assert (late.hits, late.misses) == (hits + 1, misses)
            # The tighter entry replaced the coarse one in memory.
            assert late.get_entry("sig") == (doc_exact, 0.0)


class TestLpMemoMergeBack:
    def test_pooled_deltas_merge_into_session_memo(self):
        """Satellite: worker LP-memo deltas flow back to the session."""
        queries = [make_query(seed=s, num_tables=3) for s in range(3)]
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            session.map(queries[:2])
            assert session.lp_memo_merges > 0
            merged_first = session.lp_memo_merged_entries
            assert merged_first > 0
            assert len(session.lp_memo) > 0
            hits_first = session.lp_cache_hits_total
            # A later batch ships the (grown) memo nowhere new — the pool
            # is already up — but its results keep merging deltas and the
            # counters keep showing the cross-batch picture.
            session.map(queries[2:])
            assert session.lp_memo_merges > 2
            assert session.lp_memo_merged_entries >= merged_first
            assert session.lp_cache_hits_total >= hits_first

    def test_serial_runs_do_not_echo_the_session_memo(self):
        """In serial mode the installed memo IS the session memo; the
        delta drain must not re-merge (or even track) its own inserts."""
        query = make_query(seed=1, num_tables=3)
        with OptimizerSession("cloud", warm_start=False) as session:
            item = session.optimize(query)
            assert item.status == "ok"
            assert session.lp_memo_merges == 0
            assert len(session.lp_memo) > 0

    def test_delta_tracking_cache_semantics(self):
        from repro.lp import LPResultCache

        plain = LPResultCache(8)
        plain.put(("k1",), "r1")
        assert plain.drain_delta() == []  # tracking off by default

        tracked = LPResultCache(8, track_delta=True)
        assert tracked.merge([(("seed",), "r0")]) == 1
        tracked.put(("k1",), "r1")
        tracked.put(("k2",), "r2")
        delta = tracked.drain_delta()
        # Seeded entries are not deltas; fresh inserts are, once.
        assert delta == [(("k1",), "r1"), (("k2",), "r2")]
        assert tracked.drain_delta() == []
        tracked.put(("k3",), "r3")
        assert tracked.drain_delta(limit=1) == [(("k3",), "r3")]
