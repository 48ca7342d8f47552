"""Tests for the execution engine: data generation and plan execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import optimize_query
from repro.cloud import CloudCostModel
from repro.engine import (Executor, generate_database,
                          threshold_for_selectivity)
from repro.errors import PlanError
from repro.plans import (FULL_SCAN, INDEX_SEEK, PARALLEL_HASH_JOIN,
                         SINGLE_NODE_HASH_JOIN, ScanPlan, combine)
from repro.query import QueryGenerator


@pytest.fixture(scope="module")
def query():
    return QueryGenerator(seed=61).generate(3, "chain", 1)


@pytest.fixture(scope="module")
def database(query):
    return generate_database(query.catalog, seed=1)


@pytest.fixture(scope="module")
def executor(query, database):
    return Executor(query, database)


class TestDataGeneration:
    def test_cardinalities_match_catalog(self, query, database):
        for name in query.tables:
            assert database.table(name).num_rows == \
                query.catalog.table(name).cardinality

    def test_column_domains_match(self, query, database):
        for name in query.tables:
            table = query.catalog.table(name)
            for col in table.columns:
                values = database.table(name).column(col.name)
                assert values.min() >= 0
                assert values.max() < col.distinct_values

    def test_deterministic(self, query):
        a = generate_database(query.catalog, seed=5)
        b = generate_database(query.catalog, seed=5)
        for name in query.tables:
            for col in query.catalog.table(name).columns:
                assert np.array_equal(a.table(name).column(col.name),
                                      b.table(name).column(col.name))

    def test_threshold_realizes_selectivity(self, query, database):
        pred = query.parametric_predicates[0]
        for target in (0.1, 0.5, 0.9):
            threshold = threshold_for_selectivity(
                database, pred.table, pred.column, target)
            values = database.table(pred.table).column(pred.column)
            actual = float(np.mean(values < threshold))
            assert actual == pytest.approx(target, abs=0.15)

    def test_threshold_extremes(self, query, database):
        pred = query.parametric_predicates[0]
        values = database.table(pred.table).column(pred.column)
        t0 = threshold_for_selectivity(database, pred.table, pred.column,
                                       0.0)
        t1 = threshold_for_selectivity(database, pred.table, pred.column,
                                       1.0)
        assert float(np.mean(values < t0)) <= 0.05
        assert float(np.mean(values < t1)) == 1.0


class TestExecutor:
    def test_scan_row_counts(self, query, executor, database):
        pred = query.parametric_predicates[0]
        plan = ScanPlan(table=pred.table, operator=FULL_SCAN)
        result = executor.execute(plan, [0.5])
        raw = database.table(pred.table).num_rows
        assert 0 < result.num_rows <= raw
        assert result.time_hours > 0

    def test_seek_equals_scan_rows(self, query, executor):
        pred = query.parametric_predicates[0]
        scan = executor.execute(
            ScanPlan(table=pred.table, operator=FULL_SCAN), [0.4])
        seek = executor.execute(
            ScanPlan(table=pred.table, operator=INDEX_SEEK), [0.4])
        assert scan.num_rows == seek.num_rows

    def test_seek_cheaper_when_selective(self, query, executor):
        pred = query.parametric_predicates[0]
        scan = executor.execute(
            ScanPlan(table=pred.table, operator=FULL_SCAN), [0.02])
        seek = executor.execute(
            ScanPlan(table=pred.table, operator=INDEX_SEEK), [0.02])
        assert seek.time_hours < scan.time_hours

    def test_seek_without_predicate_rejected(self, query, executor):
        other = next(t for t in query.tables
                     if query.parametric_predicate_of(t) is None)
        with pytest.raises(PlanError):
            executor.execute(ScanPlan(table=other, operator=INDEX_SEEK),
                             [0.5])

    def test_join_result_semantics(self, query, executor, database):
        """Hash join output must equal the brute-force predicate join."""
        t0, t1 = query.tables[0], query.tables[1]
        plan = combine(ScanPlan(table=t0, operator=FULL_SCAN),
                       ScanPlan(table=t1, operator=FULL_SCAN),
                       SINGLE_NODE_HASH_JOIN)
        result = executor.execute(plan, [1.0])
        preds = query.join_graph.predicates_between(
            frozenset((t0,)), frozenset((t1,)))
        assert preds
        pred = preds[0]
        left_vals = database.table(pred.left_table).column(
            pred.left_column)
        right_vals = database.table(pred.right_table).column(
            pred.right_column)
        expected = sum(
            int(np.sum(right_vals == v)) for v in left_vals.tolist())
        assert result.num_rows == expected

    def test_parallel_join_same_rows_more_fees(self, query, executor):
        t0, t1 = query.tables[0], query.tables[1]
        scans = (ScanPlan(table=t0, operator=FULL_SCAN),
                 ScanPlan(table=t1, operator=FULL_SCAN))
        single = executor.execute(
            combine(*scans, SINGLE_NODE_HASH_JOIN), [0.7])
        parallel = executor.execute(
            combine(*scans, PARALLEL_HASH_JOIN), [0.7])
        assert single.num_rows == parallel.num_rows
        assert parallel.fees_usd > single.fees_usd

    def test_equivalent_plans_same_result_size(self, query, executor):
        """All Pareto plans of the query produce identical result sizes."""
        result = optimize_query(query, "cloud", resolution=2)
        sizes = set()
        for entry in result.entries[:4]:
            sizes.add(executor.execute(entry.plan, [0.5]).num_rows)
        assert len(sizes) == 1


class TestCostModelAgreement:
    def test_simulated_cost_tracks_model_estimate(self, query, executor):
        """At accurate cardinalities, the simulated execution cost must be
        close to the cost model's polynomial estimate."""
        model = CloudCostModel(query, resolution=2)
        pred = query.parametric_predicates[0]
        plan = ScanPlan(table=pred.table, operator=INDEX_SEEK)
        x = [0.5]
        executed = executor.execute(plan, x)
        estimated = model.scan_cost_polynomials(plan)["time"].evaluate(x)
        assert executed.time_hours == pytest.approx(estimated, rel=0.3)

    def test_plan_ordering_preserved_for_clear_winners(self, query,
                                                       executor):
        """Where the model predicts a big gap, execution agrees on the
        direction."""
        model = CloudCostModel(query, resolution=2)
        t0, t1 = query.tables[0], query.tables[1]
        scans = (ScanPlan(table=t0, operator=FULL_SCAN),
                 ScanPlan(table=t1, operator=FULL_SCAN))
        single = combine(*scans, SINGLE_NODE_HASH_JOIN)
        parallel = combine(*scans, PARALLEL_HASH_JOIN)
        x = [0.5]
        est_gap = (model.plan_cost_polynomials(parallel)["fees"].evaluate(x)
                   - model.plan_cost_polynomials(single)["fees"].evaluate(x))
        assert est_gap > 0
        run_single = executor.execute(single, x)
        run_parallel = executor.execute(parallel, x)
        assert run_parallel.fees_usd > run_single.fees_usd
