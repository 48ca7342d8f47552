"""Tests for the unified session API (repro.api / repro.service.session).

Covers the tentpole guarantees of the OptimizerSession redesign:

* lifecycle — context-manager close is idempotent, submit after close
  raises cleanly;
* persistent pool — workers are spawned once across consecutive batches
  (the legacy engine respawned per batch);
* streaming — ``as_completed`` yields error-isolated items, ``map``
  stays deterministic;
* scenario registry — built-in ``"cloud"``/``"approx"`` resolve and
  custom registrations work.
"""

from __future__ import annotations

import os

import pytest

from repro.api import (OptimizerSession, available_scenarios, get_scenario,
                       query_signature, register_scenario)
from repro.core import encode_result
from repro.cost import CLOUD_METRICS
from repro.query import QueryGenerator
from repro.service import session as session_module
from repro.service.registry import ScenarioRegistry, default_registry


def make_queries(count: int, num_tables: int = 3, seed: int = 0):
    return [QueryGenerator(seed=seed + i).generate(num_tables, "chain", 1)
            for i in range(count)]


class TestLifecycle:
    def test_context_manager_and_idempotent_close(self):
        session = OptimizerSession("cloud")
        with session as s:
            assert s is session
            assert not s.closed
        assert session.closed
        session.close()  # idempotent
        session.close()
        assert session.closed

    def test_submit_after_close_raises(self):
        session = OptimizerSession("cloud")
        session.close()
        (query,) = make_queries(1)
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(query)
        with pytest.raises(RuntimeError, match="closed"):
            list(session.as_completed([query]))
        with pytest.raises(RuntimeError, match="closed"), session:
            pass

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError, match="available"):
            OptimizerSession("no-such-scenario")
        with OptimizerSession("cloud") as session, \
                pytest.raises(KeyError, match="available"):
            session.map(make_queries(1), scenario="no-such-scenario")

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerSession("cloud", workers=-1)
        with pytest.raises(ValueError):
            OptimizerSession("cloud", timeout_seconds=0)


def _pid_stamped(payload):
    """Worker stub recording the optimizing process id in the stats."""
    index, doc, stats, seconds = session_module._real_optimize_payload(
        payload)
    stats["pid"] = os.getpid()
    return index, doc, stats, seconds


class TestPersistentPool:
    def test_pool_spawned_once_across_two_batches(self, monkeypatch):
        """Regression: the legacy engine respawned its pool per batch."""
        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _pid_stamped)
        first_batch = make_queries(2, num_tables=2, seed=0)
        second_batch = make_queries(2, num_tables=2, seed=10)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            first = session.map(first_batch)
            second = session.map(second_batch)
            assert session.pool_spawns == 1
            first_pids = {item.stats["pid"] for item in first}
            second_pids = {item.stats["pid"] for item in second}
            # Same worker processes served both batches.
            assert second_pids <= first_pids

    def test_pool_results_match_serial(self):
        queries = make_queries(3, num_tables=2)
        with OptimizerSession("cloud", warm_start=False) as serial:
            a = serial.map(queries)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as pooled:
            b = pooled.map(queries)
        assert [i.index for i in b] == [0, 1, 2]
        for x, y in zip(a, b):
            assert y.status == "ok"
            assert len(x.plan_set.entries) == len(y.plan_set.entries)

    def test_lp_memo_accumulates_at_session_scope(self):
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", warm_start=False) as session:
            session.map(queries)
            assert session.lp_memo is not None and len(session.lp_memo) > 0

    def test_lp_memo_handoff_seeds_pooled_session(self):
        """A serial session's memo can spawn a pooled session's workers
        warm."""
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", warm_start=False) as serial:
            serial.map(queries)
            memo = serial.lp_memo
        assert len(memo.export()) > 0
        with OptimizerSession("cloud", workers=2, warm_start=False,
                              lp_memo=memo) as pooled:
            assert pooled.lp_memo is memo
            items = pooled.map(queries)
        assert all(item.ok for item in items)

    def test_broken_pool_recovers(self):
        """A hard worker crash must not poison the persistent pool."""
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", workers=2,
                              warm_start=False) as session:
            assert all(item.ok for item in session.map(queries))
            for process in list(session._pool._processes.values()):
                process.kill()
            # The crash may surface as error items once (isolation);
            # the session must respawn the pool and recover.
            for __ in range(3):
                items = session.map(queries)
                if all(item.ok for item in items):
                    break
            assert all(item.ok for item in items)
            assert session.pool_spawns >= 2


def _slow_leader(payload):
    """Worker stub: query 0 stalls far past any test deadline."""
    if payload[0] == 0:
        import time as _time
        _time.sleep(30.0)
    return session_module._real_optimize_payload(payload)


class TestDeadlines:
    def test_deadline_recycles_stuck_workers(self, monkeypatch):
        """A missed deadline must not leave workers burning CPU: the
        stuck worker is terminated and the pool respawns lazily."""
        monkeypatch.setattr(session_module, "_real_optimize_payload",
                            session_module._optimize_payload,
                            raising=False)
        monkeypatch.setattr(session_module, "_optimize_payload",
                            _slow_leader)
        queries = make_queries(2, num_tables=2)
        with OptimizerSession("cloud", workers=2, timeout_seconds=1.0,
                              warm_start=False) as session:
            items = session.map(queries)
            assert items[0].status == "timeout"
            assert items[1].status == "ok"
            # The stuck worker was terminated and the pool discarded.
            assert session._pool is None
            monkeypatch.setattr(session_module, "_optimize_payload",
                                session_module._real_optimize_payload)
            again = session.map(queries)
            assert [item.status for item in again] == ["ok", "ok"]
            assert session.pool_spawns == 2


class TestStreaming:
    def test_as_completed_yields_every_query(self):
        queries = make_queries(3)
        with OptimizerSession("cloud") as session:
            items = list(session.as_completed(queries))
        assert sorted(item.index for item in items) == [0, 1, 2]
        assert all(item.ok for item in items)

    def test_as_completed_error_isolated_poisoned_query(self, monkeypatch):
        real = session_module._optimize_payload

        def poisoned(payload):
            if payload[0] == 1:
                raise RuntimeError("poisoned query")
            return real(payload)

        monkeypatch.setattr(session_module, "_optimize_payload", poisoned)
        queries = make_queries(3)
        with OptimizerSession("cloud") as session:
            items = sorted(session.as_completed(queries),
                           key=lambda item: item.index)
        assert [item.status for item in items] == ["ok", "error", "ok"]
        assert "poisoned query" in items[1].error
        assert items[1].plan_set is None

    def test_submit_future_resolves_to_item(self):
        (query,) = make_queries(1)
        with OptimizerSession("cloud") as session:
            item = session.submit(query).result(timeout=60)
            assert item.status == "ok"
            assert item.plan_set.entries
            # A second submit of the same query warm-starts.
            again = session.submit(query).result(timeout=60)
            assert again.status == "cached"

    def test_map_deterministic_and_warm(self):
        queries = make_queries(3)
        with OptimizerSession("cloud") as session:
            first = session.map(queries)
            assert [item.index for item in first] == [0, 1, 2]
            assert [item.status for item in first] == ["ok"] * 3
            second = session.map(queries)
            assert [item.status for item in second] == ["cached"] * 3
            for a, b in zip(first, second):
                assert (a.plan_set.select([0.4], {"time": 1.0})[1]
                        == b.plan_set.select([0.4], {"time": 1.0})[1])

    def test_in_batch_duplicates_share_work(self):
        (query,) = make_queries(1)
        same = QueryGenerator(seed=0).generate(3, "chain", 1)
        with OptimizerSession("cloud") as session:
            items = session.map([query, same])
        assert [item.status for item in items] == ["ok", "cached"]
        assert items[1].plan_set is items[0].plan_set

    def test_warm_start_off_reoptimizes_duplicates(self):
        """warm_start=False forces every copy to optimize (legacy
        contract; throughput benchmarks rely on it)."""
        (query,) = make_queries(1)
        same = QueryGenerator(seed=0).generate(3, "chain", 1)
        with OptimizerSession("cloud", warm_start=False) as session:
            items = session.map([query, same])
        assert [item.status for item in items] == ["ok", "ok"]
        assert all(item.stats is not None for item in items)


class TestScenarioRegistry:
    def test_builtins_resolve(self):
        names = available_scenarios()
        assert "cloud" in names and "approx" in names
        assert get_scenario("cloud").metric_names == ("time", "fees")
        assert get_scenario("approx").metric_names == ("time",
                                                       "precision_loss")

    def test_approx_scenario_end_to_end(self):
        (query,) = make_queries(1)
        with OptimizerSession("approx") as session:
            item = session.optimize(query)
        assert item.ok and item.scenario == "approx"
        cost = item.plan_set.entries[0].cost.evaluate([0.5])
        assert set(cost) == {"time", "precision_loss"}

    def test_scenarios_key_the_warm_cache_separately(self):
        (query,) = make_queries(1)
        assert (query_signature(query, scenario="cloud")
                != query_signature(query, scenario="approx"))
        with OptimizerSession("cloud") as session:
            a = session.optimize(query)
            b = session.optimize(query, scenario="approx")
        assert a.status == "ok" and b.status == "ok"  # no cross-hit
        assert a.signature != b.signature

    def test_register_custom_scenario(self):
        registry = ScenarioRegistry()

        def factory(query, resolution):
            from repro.cloud import CloudCostModel
            return CloudCostModel(query, resolution=resolution)

        registry.register("custom-cloud", factory, CLOUD_METRICS,
                          description="test registration")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("custom-cloud", factory, CLOUD_METRICS)
        registry.register("custom-cloud", factory, CLOUD_METRICS,
                          replace=True)
        (query,) = make_queries(1)
        result = registry.get("custom-cloud").optimize(query)
        assert encode_result(result) == encode_result(
            get_scenario("cloud").optimize(query))

    def test_register_scenario_in_default_registry(self):
        def factory(query, resolution):
            from repro.cloud import CloudCostModel
            return CloudCostModel(query, resolution=resolution)

        name = "test-default-registration"
        register_scenario(name, factory, CLOUD_METRICS, replace=True)
        try:
            assert name in available_scenarios()
            (query,) = make_queries(1)
            with OptimizerSession(name) as session:
                assert session.optimize(query).ok
        finally:
            default_registry()._scenarios.pop(name, None)

