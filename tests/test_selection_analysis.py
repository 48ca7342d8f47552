"""Tests for run-time plan selection and the Section 4 analysis module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (all_examples, check_m1_on,
                            check_m2_nonconvex_pareto_region, check_m3b,
                            check_s1_single_metric,
                            check_theorem2_dominance_convex, figure4,
                            figure5, figure6, pareto_plans_at,
                            pvi_pareto_count, theorem6_observation)
from repro.api import optimize_query
from repro.core import PlanSelector
from repro.cost import PiecewiseLinearFunction
from repro.errors import OptimizationError
from repro.geometry import ConvexPolytope
from repro.query import QueryGenerator


@pytest.fixture(scope="module")
def result():
    query = QueryGenerator(seed=17).generate(4, "chain", 1)
    return optimize_query(query, "cloud", resolution=2)


class TestPlanSelector:
    def test_weighted_sum_picks_minimum(self, result):
        selector = PlanSelector(result)
        x = [0.5]
        pick = selector.by_weighted_sum(x, {"time": 1.0, "fees": 1.0})
        for entry in result.plans_for(x):
            cost = entry.cost.evaluate(x)
            assert pick.score <= cost["time"] + cost["fees"] + 1e-9

    def test_extreme_weights_pick_extremes(self, result):
        selector = PlanSelector(result)
        x = [0.5]
        fastest = selector.by_weighted_sum(x, {"time": 1.0})
        cheapest = selector.by_weighted_sum(x, {"fees": 1.0})
        assert fastest.cost["time"] <= cheapest.cost["time"] + 1e-12
        assert cheapest.cost["fees"] <= fastest.cost["fees"] + 1e-12

    def test_negative_weights_rejected(self, result):
        with pytest.raises(ValueError):
            PlanSelector(result).by_weighted_sum([0.5], {"time": -1.0})

    def test_bounded_metric(self, result):
        selector = PlanSelector(result)
        x = [0.5]
        cheapest = selector.by_weighted_sum(x, {"fees": 1.0})
        budget = cheapest.cost["fees"] * 1.5
        pick = selector.by_bounded_metric(x, minimize="time",
                                          bounds={"fees": budget})
        assert pick.cost["fees"] <= budget + 1e-9
        # No relevant plan under budget is faster.
        for entry in result.plans_for(x):
            cost = entry.cost.evaluate(x)
            if cost["fees"] <= budget + 1e-12:
                assert pick.cost["time"] <= cost["time"] + 1e-9

    def test_impossible_bound_raises(self, result):
        selector = PlanSelector(result)
        with pytest.raises(OptimizationError):
            selector.by_bounded_metric([0.5], minimize="time",
                                       bounds={"fees": 0.0})

    def test_frontier_matches_result(self, result):
        selector = PlanSelector(result)
        x = [0.3]
        assert selector.frontier(x) == result.frontier_at(x)

    def test_candidates_cached(self, result):
        selector = PlanSelector(result)
        selector.by_weighted_sum([0.25], {"time": 1.0})
        assert len(selector._cache) == 1
        selector.by_weighted_sum([0.25], {"fees": 1.0})
        assert len(selector._cache) == 1

    def test_candidates_cache_bounded(self, result):
        selector = PlanSelector(result, cache_size=4)
        for x in np.linspace(0.05, 0.95, 20):
            selector.by_weighted_sum([x], {"time": 1.0})
        assert len(selector._cache) == 4
        # The most recent point is retained and served from cache.
        assert tuple(np.asarray([0.95]).tolist()) in selector._cache

    def test_cache_can_be_disabled(self, result):
        selector = PlanSelector(result, cache_size=0)
        a = selector.by_weighted_sum([0.25], {"time": 1.0})
        b = selector.by_weighted_sum([0.25], {"time": 1.0})
        assert len(selector._cache) == 0
        assert a.cost == b.cost

    def test_impossible_bound_reports_per_metric_best(self, result):
        selector = PlanSelector(result)
        x = [0.5]
        best_time = min(e.cost.evaluate(x)["time"]
                        for e in result.plans_for(x))
        best_fees = min(e.cost.evaluate(x)["fees"]
                        for e in result.plans_for(x))
        with pytest.raises(OptimizationError) as excinfo:
            selector.by_bounded_metric(x, minimize="time",
                                       bounds={"fees": 0.0,
                                               "time": best_time * 2})
        # Each bounded metric reports its own best-achievable value, not
        # a minimum mixed across all bounded metrics.
        message = str(excinfo.value)
        assert f"fees: best achievable {best_fees:.4g}" in message
        assert f"time: best achievable {best_time:.4g}" in message


class TestCounterExamples:
    def test_figure4_pareto_sets(self):
        ex = figure4()
        # Plan 2 Pareto-optimal at the extremes, dominated in the middle.
        assert "plan2" in pareto_plans_at(ex, [0.2])
        assert "plan2" not in pareto_plans_at(ex, [1.5])
        assert "plan2" in pareto_plans_at(ex, [2.8])
        # Plan 1 Pareto-optimal everywhere.
        for x in np.linspace(0, 3, 13):
            assert "plan1" in pareto_plans_at(ex, [x])

    def test_figure5_dominance_square(self):
        ex = figure5()
        assert "plan2" not in pareto_plans_at(ex, [0.5, 0.5])
        assert "plan2" in pareto_plans_at(ex, [1.5, 0.5])
        assert "plan2" in pareto_plans_at(ex, [0.5, 1.5])

    def test_figure6_interior_only(self):
        ex = figure6()
        assert "plan3" not in pareto_plans_at(ex, [0.0])
        assert "plan3" not in pareto_plans_at(ex, [2.0])
        assert "plan3" in pareto_plans_at(ex, [1.0])
        for x in np.linspace(0, 2, 21):
            assert "plan1" in pareto_plans_at(ex, [x])
            assert "plan2" in pareto_plans_at(ex, [x])

    def test_all_examples_enumerable(self):
        examples = all_examples()
        assert [e.name for e in examples] == ["figure4", "figure5",
                                              "figure6"]


class TestTableOneStatements:
    def test_s1_holds_for_single_metric(self):
        space = ConvexPolytope.box([0.0], [1.0])
        costs = [PiecewiseLinearFunction.affine(space, [1.0], 0.0),
                 PiecewiseLinearFunction.affine(space, [-1.0], 1.0),
                 PiecewiseLinearFunction.constant(space, 0.75)]
        assert check_s1_single_metric(space, costs)

    def test_m1_fails_for_multi_metric(self):
        assert check_m1_on(figure4())

    def test_m2_nonconvex(self):
        assert check_m2_nonconvex_pareto_region(figure5())

    def test_m3b_interior_pareto(self):
        assert check_m3b(figure6())

    def test_theorem2_dominance_convex(self, solver):
        assert check_theorem2_dominance_convex(solver, trials=10)


class TestTheorem6:
    def test_pvi_count_bounded_for_small_samples(self):
        # The 2^((nX+1)nM) bound holds for the expectation at moderate
        # sample sizes (for i.i.d. uniform points the count grows like
        # (ln n)^3/6 and would exceed it for very large n).
        obs = theorem6_observation(num_plans=15, num_params=1,
                                   num_metrics=2, trials=5)
        assert obs.bound == 16.0
        assert obs.observed <= obs.bound

    def test_bound_grows_with_dimensions(self):
        small = theorem6_observation(30, num_params=1, num_metrics=1)
        large = theorem6_observation(30, num_params=2, num_metrics=2)
        assert large.bound > small.bound

    def test_pvi_deterministic(self):
        a = pvi_pareto_count(100, 1, 2, seed=3)
        b = pvi_pareto_count(100, 1, 2, seed=3)
        assert a == b

    def test_single_metric_no_params_single_winner_tendency(self):
        """With l=1 (one metric, no parameters) only the minimum survives."""
        assert pvi_pareto_count(200, 0, 1, seed=1) == 1
