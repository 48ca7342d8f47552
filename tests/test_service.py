"""Tests for the batch contract of ``OptimizerSession.map``.

Pins what a batch of queries gets from one session: deterministic
ordering, per-query error isolation and timeouts, and warm-start caching
(in memory and through a persistent plan-set store).  Streaming, pool
lifecycle and scenario behavior are covered in ``test_session.py``.
"""

from __future__ import annotations

import pytest

from repro.api import OptimizerSession, optimize_query
from repro.core import PWLRRPAOptions, PlanSelector
from repro.query import QueryGenerator
from repro.service import WarmStartCache, query_signature
from repro.service import session as session_module
from repro.store import PlanSetStore


def make_queries(count: int, num_tables: int = 3, seed: int = 0):
    return [QueryGenerator(seed=seed + i).generate(num_tables, "chain", 1)
            for i in range(count)]


class TestQuerySignature:
    def test_deterministic_and_regeneration_stable(self):
        a = QueryGenerator(seed=5).generate(3, "chain", 1)
        b = QueryGenerator(seed=5).generate(3, "chain", 1)
        assert query_signature(a) == query_signature(b)

    def test_sensitive_to_workload_and_config(self):
        base = QueryGenerator(seed=5).generate(3, "chain", 1)
        other = QueryGenerator(seed=6).generate(3, "chain", 1)
        assert query_signature(base) != query_signature(other)
        assert (query_signature(base, resolution=2)
                != query_signature(base, resolution=3))
        assert (query_signature(base)
                != query_signature(base, options=PWLRRPAOptions(
                    approximation_factor=0.1)))


class TestBatchOrderingAndResults:
    def test_results_in_input_order(self):
        queries = make_queries(4)
        with OptimizerSession("cloud") as session:
            items = session.map(queries)
        assert [item.index for item in items] == [0, 1, 2, 3]
        assert all(item.status == "ok" for item in items)
        assert all(item.plan_set.entries for item in items)

    def test_plan_sets_match_direct_optimization(self):
        (query,) = make_queries(1)
        with OptimizerSession("cloud") as session:
            (item,) = session.map([query])
        direct = optimize_query(query, "cloud", resolution=2)
        x = [0.5]
        plan, cost = item.plan_set.select(x, {"time": 1.0, "fees": 0.5})
        picked = PlanSelector(direct).by_weighted_sum(
            x, {"time": 1.0, "fees": 0.5})
        assert repr(plan) == repr(picked.plan)
        assert cost == pytest.approx(picked.cost)

    def test_process_pool_matches_serial(self):
        queries = make_queries(3, num_tables=2)
        with OptimizerSession("cloud") as serial:
            a = serial.map(queries)
        with OptimizerSession("cloud", workers=2) as pooled:
            b = pooled.map(queries)
        assert [i.index for i in b] == [0, 1, 2]
        for x, y in zip(a, b):
            assert y.status == "ok"
            assert len(x.plan_set.entries) == len(y.plan_set.entries)
            assert (x.plan_set.select([0.3], {"time": 1.0, "fees": 0.2})
                    == y.plan_set.select([0.3], {"time": 1.0, "fees": 0.2}))


class TestErrorIsolation:
    def test_one_failure_does_not_poison_the_batch(self, monkeypatch):
        queries = make_queries(3)
        real = session_module._optimize_payload

        def flaky(payload):
            if payload[0] == 1:
                raise RuntimeError("injected worker failure")
            return real(payload)

        monkeypatch.setattr(session_module, "_optimize_payload", flaky)
        with OptimizerSession("cloud") as session:
            items = session.map(queries)
        assert [item.status for item in items] == ["ok", "error", "ok"]
        assert "injected worker failure" in items[1].error
        assert items[1].plan_set is None
        assert items[0].ok and items[2].ok


def _sleepy_leader(payload):
    """Worker stub: query 0 stalls far past any test deadline.

    Module-level so the process pool can pickle it (the forked workers
    inherit the monkeypatched module state).
    """
    if payload[0] == 0:
        import time as _time
        _time.sleep(5.0)
    return session_module._real_optimize_payload(payload)


class TestTimeouts:
    def test_deadline_isolates_slow_queries(self, monkeypatch):
        import time

        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _sleepy_leader)
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", workers=2,
                              timeout_seconds=1.0) as session:
            started = time.monotonic()
            items = session.map(queries)
            elapsed = time.monotonic() - started
        assert items[0].status == "timeout"
        assert items[0].plan_set is None
        assert items[1].status == "ok"
        # The batch returns at the deadline instead of stalling on the
        # abandoned worker (which keeps sleeping in the background; the
        # session's close() terminates it).
        assert elapsed < 4.0


class TestWarmStartCache:
    def test_hit_and_miss_accounting(self):
        queries = make_queries(2)
        with OptimizerSession("cloud") as session:
            first = session.map(queries)
            assert [i.status for i in first] == ["ok", "ok"]
            assert session.cache.hits == 0
            second = session.map(queries)
            assert [i.status for i in second] == ["cached", "cached"]
            assert session.cache.hits == 2
        # Cached plan sets select identically to fresh ones.
        for a, b in zip(first, second):
            assert (a.plan_set.select([0.4], {"time": 1.0})[1]
                    == b.plan_set.select([0.4], {"time": 1.0})[1])

    def test_duplicates_within_one_batch_share_work(self):
        (query,) = make_queries(1)
        same = QueryGenerator(seed=0).generate(3, "chain", 1)
        with OptimizerSession("cloud") as session:
            items = session.map([query, same])
        assert [i.status for i in items] == ["ok", "cached"]
        assert items[1].ok

    def test_warm_start_disabled(self):
        queries = make_queries(1)
        with OptimizerSession("cloud", warm_start=False) as session:
            session.map(queries)
            items = session.map(queries)
            assert items[0].status == "ok"
            assert len(session.cache) == 0

    def test_lru_bound(self):
        cache = WarmStartCache(maxsize=2)
        for i in range(4):
            cache.put(f"sig{i}", {"version": 1, "entries": []})
        assert len(cache) == 2
        assert cache.get("sig0") is None
        assert cache.get("sig3") is not None

    def test_undecodable_memory_entry_reoptimizes(self):
        queries = make_queries(1)
        with OptimizerSession("cloud") as session:
            session.cache.put(query_signature(queries[0]), {"version": 999})
            items = session.map(queries)
        assert items[0].status == "ok"

    def test_store_persistence(self, tmp_path):
        queries = make_queries(1)
        path = tmp_path / "store.db"
        with PlanSetStore(path) as store, OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as first:
            assert first.map(queries)[0].status == "ok"
        # A fresh process/cache instance warm-starts from the store file.
        with PlanSetStore(path) as store, OptimizerSession(
                "cloud", cache=WarmStartCache(store=store)) as second:
            assert second.map(queries)[0].status == "cached"
