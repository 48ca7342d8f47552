"""Core optimizer tests: enumeration, grid backend, PWL-RRPA behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import optimize_query
from repro.cloud import CloudCostModel
from repro.core import (GridBackend, PWLRRPA, PWLRRPAOptions, RRPA,
                        count_considered_splits, make_grid,
                        splits, subsets_in_size_order)
from repro.plans import ScanPlan
from repro.query import QueryGenerator

from tests.helpers import enumerate_all_plans


class TestEnumeration:
    def test_chain_subsets_are_contiguous(self):
        q = QueryGenerator(seed=1).generate(4, "chain", 1)
        subsets = list(subsets_in_size_order(q))
        # Chain of 4: contiguous runs only -> 3 + 2 + 1 = 6 subsets.
        assert len(subsets) == 6
        sizes = [len(s) for s in subsets]
        assert sizes == sorted(sizes)

    def test_star_subsets_contain_hub(self):
        q = QueryGenerator(seed=1).generate(4, "star", 1)
        hub = q.tables[0]
        for subset in subsets_in_size_order(q):
            if len(subset) >= 2:
                assert hub in subset

    def test_splits_are_connected_for_chain(self):
        q = QueryGenerator(seed=1).generate(4, "chain", 1)
        for subset in subsets_in_size_order(q):
            for left, right in splits(q, subset):
                assert left | right == subset
                assert not (left & right)
                assert q.join_graph.split_is_connected(left, right)

    def test_splits_unordered_unique(self):
        q = QueryGenerator(seed=1).generate(5, "chain", 1)
        for subset in subsets_in_size_order(q):
            seen = set()
            for left, right in splits(q, subset):
                key = frozenset((left, right))
                assert key not in seen
                seen.add(key)

    def test_split_counts_star_vs_chain(self):
        chain = QueryGenerator(seed=1).generate(6, "chain", 1)
        star = QueryGenerator(seed=1).generate(6, "star", 1)
        # Star queries admit far more connected subsets/splits (Ono-Lohman).
        assert count_considered_splits(star) > count_considered_splits(
            chain)


class TestGridBackend:
    def optimize(self, query, points_per_axis=5):
        model = CloudCostModel(query, resolution=2)
        backend = GridBackend(query, model,
                              points=make_grid(max(1, query.num_params),
                                               points_per_axis))
        return RRPA(backend).optimize(query), model, backend

    def test_pareto_set_complete_on_grid(self):
        """Theorem 3 on the finite grid: every plan is dominated by a
        kept plan at every grid point."""
        query = QueryGenerator(seed=2).generate(3, "chain", 1)
        result, model, backend = self.optimize(query)
        all_plans = enumerate_all_plans(query, model)
        kept_costs = [entry.cost for entry in result.entries]
        for plan in all_plans:
            polys = model.plan_cost_polynomials(plan)
            for idx, x in enumerate(backend.points):
                this_cost = {m: p.evaluate(x) for m, p in polys.items()}
                assert any(
                    all(kc.values[m][idx] <= this_cost[m] + 1e-9
                        for m in this_cost)
                    for kc in kept_costs), (
                    f"no dominating plan at grid point {x}")

    def test_relevance_mapping_property_on_grid(self):
        """Entries whose RR contains x must dominate all plans at x."""
        query = QueryGenerator(seed=3).generate(3, "chain", 1)
        result, model, backend = self.optimize(query)
        all_plans = enumerate_all_plans(query, model)
        for idx, x in enumerate(backend.points):
            relevant = [e for e in result.entries if e.region.mask[idx]]
            assert relevant, f"no relevant plan at {x}"
            for plan in all_plans:
                polys = model.plan_cost_polynomials(plan)
                cost = {m: p.evaluate(x) for m, p in polys.items()}
                assert any(
                    all(e.cost.values[m][idx] <= cost[m] + 1e-9
                        for m in cost) for e in relevant)

    def test_single_point_grid_is_mq(self):
        """With one grid point the grid backend degenerates to MQ."""
        query = QueryGenerator(seed=4).generate(3, "chain", 1)
        model = CloudCostModel(query, resolution=2)
        backend = GridBackend(query, model,
                              points=np.array([[0.5]]))
        result = RRPA(backend).optimize(query)
        # At a single point, kept plans must be mutually non-dominating.
        for i, a in enumerate(result.entries):
            for j, b in enumerate(result.entries):
                if i == j:
                    continue
                a_vals = a.cost.evaluate_index(0)
                b_vals = b.cost.evaluate_index(0)
                strictly = (all(a_vals[m] <= b_vals[m] + 1e-12
                                for m in a_vals)
                            and any(a_vals[m] < b_vals[m] - 1e-12
                                    for m in a_vals))
                assert not strictly

    def test_single_table_query(self):
        query = QueryGenerator(seed=5).generate(1, "chain", 1)
        result, model, backend = self.optimize(query)
        assert result.entries
        assert all(isinstance(e.plan, ScanPlan) for e in result.entries)


class TestPWLRRPA:
    def test_stats_populated(self):
        query = QueryGenerator(seed=6).generate(3, "chain", 1)
        result = optimize_query(query, "cloud", resolution=2)
        stats = result.stats
        assert stats.plans_created > 0
        assert stats.plans_inserted >= len(result.entries)
        assert stats.lps_solved > 0
        assert stats.optimization_seconds > 0
        assert stats.plans_created == (stats.plans_inserted
                                       + stats.plans_discarded_new)

    def test_pareto_entries_have_nonempty_regions(self):
        query = QueryGenerator(seed=7).generate(3, "chain", 1)
        result = optimize_query(query, "cloud", resolution=2)
        xs = np.linspace(0.02, 0.98, 49)
        for entry in result.entries:
            assert any(entry.region.contains_point([x]) for x in xs), \
                "kept plan has an empty-looking relevance region"

    def test_every_point_has_relevant_plan(self):
        query = QueryGenerator(seed=8).generate(3, "chain", 1)
        result = optimize_query(query, "cloud", resolution=2)
        for x in np.linspace(0.0, 1.0, 21):
            assert result.plans_for([x])

    def test_frontier_nonempty_and_mutually_nondominating(self):
        query = QueryGenerator(seed=9).generate(4, "chain", 1)
        result = optimize_query(query, "cloud", resolution=2)
        for x in (0.1, 0.5, 0.9):
            frontier = result.frontier_at([x])
            assert frontier
            for i, (__, a) in enumerate(frontier):
                for j, (__, b) in enumerate(frontier):
                    if i == j:
                        continue
                    assert not (all(a[m] <= b[m] for m in a)
                                and any(a[m] < b[m] for m in a))

    def test_dp_table_has_all_connected_subsets(self):
        query = QueryGenerator(seed=10).generate(4, "chain", 1)
        result = optimize_query(query, "cloud", resolution=2)
        for subset in subsets_in_size_order(query):
            assert subset in result.dp_table
            assert result.dp_table[subset]

    def test_factoryless_optimizer_rejects(self):
        with pytest.raises(ValueError):
            PWLRRPA().optimize(
                QueryGenerator(seed=1).generate(2, "chain", 1))

    def test_options_respected(self):
        query = QueryGenerator(seed=11).generate(3, "chain", 1)
        with_points = optimize_query(
            query, "cloud", resolution=2,
            options=PWLRRPAOptions(use_relevance_points=True))
        without_points = optimize_query(
            query, "cloud", resolution=2,
            options=PWLRRPAOptions(use_relevance_points=False))
        assert with_points.stats.emptiness_checks_skipped > 0
        assert without_points.stats.emptiness_checks_skipped == 0
        # Same final plan count either way (the refinement is semantic-
        # preserving).
        assert len(with_points.entries) == len(without_points.entries)

    def test_convexity_strategy_sound(self):
        """Algorithm 2's convexity-based emptiness keeps a superset."""
        query = QueryGenerator(seed=12).generate(3, "chain", 1)
        difference = optimize_query(
            query, "cloud", resolution=2,
            options=PWLRRPAOptions(emptiness_strategy="difference"))
        convexity = optimize_query(
            query, "cloud", resolution=2,
            options=PWLRRPAOptions(emptiness_strategy="convexity"))
        diff_sigs = {e.plan.signature() for e in difference.entries}
        conv_sigs = {e.plan.signature() for e in convexity.entries}
        assert diff_sigs <= conv_sigs
