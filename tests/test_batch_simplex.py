"""Stacked-tableau batch simplex: oracle equivalence and accounting.

The kernel promises answers bit-identical to the scalar
:func:`repro.lp.solve_simplex` (same pivot trajectories on the same
floats) with stragglers flagged for the per-problem fallback.  These
property-style tests drive randomized LP batches — optimal, degenerate,
infeasible and unbounded instances — through the stacked kernel, the
scalar simplex and scipy, compare exact float representations, and pin
down the ``solve_many`` accounting contract (solved/cache counters
unchanged, per-group wall-time attribution, batch counters populated).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.lp.solver as solver_mod
from repro.core import encode_result
from repro.lp import (LinearProgramSolver, LPStats, make_solver,
                      solve_simplex)
from repro.lp.batch_simplex import (is_stackable, solve_simplex_batch,
                                    standard_form)
from repro.query import QueryGenerator
from repro.service.registry import get_scenario


def _random_problems(n: int, m: int, count: int, seed: int) -> list[tuple]:
    """Random LPs of one shape: optimal, infeasible, unbounded, degenerate."""
    rng = np.random.default_rng(seed)
    problems = []
    for index in range(count):
        a = rng.normal(size=(m, n))
        kind = index % 4
        if kind == 0:  # feasible around a known interior point
            anchor = rng.uniform(-1, 1, size=n)
            b = a @ anchor + rng.uniform(0.1, 2.0, size=m)
            c = rng.normal(size=n)
        elif kind == 1:  # infeasible: d @ x <= -1 and -d @ x <= -1
            direction = rng.normal(size=n)
            a[0], a[1] = direction, -direction
            b = rng.uniform(0.1, 1.0, size=m)
            b[0] = b[1] = -1.0
            c = rng.normal(size=n)
        elif kind == 2:  # unbounded: all-positive rows, min sum(x)
            a = np.abs(a)
            b = rng.uniform(0.5, 2.0, size=m)
            c = np.ones(n)
        else:  # degenerate: duplicated constraint rows
            anchor = rng.uniform(-1, 1, size=n)
            b = a @ anchor + rng.uniform(0.0, 1.0, size=m)
            a[m // 2] = a[0]
            b[m // 2] = b[0]
            c = rng.normal(size=n)
        problems.append((c, a, b, None))
    return problems


def _exactly_equal(got, want) -> bool:
    if got.status != want.status:
        return False
    if got.status != "optimal":
        return True
    return bool((got.x == want.x).all()) and got.objective == want.objective


class TestKernelOracle:
    """solve_simplex_batch vs. the scalar simplex and scipy."""

    @pytest.mark.parametrize("n,m,seed", [
        (1, 4, 0), (2, 8, 1), (3, 12, 2), (5, 20, 3), (2, 8, 4),
        (3, 12, 5),
    ])
    def test_bit_identical_to_scalar(self, n, m, seed):
        solver = LinearProgramSolver(stats=LPStats(), backend="simplex")
        problems = [solver._prepare(*problem)
                    for problem in _random_problems(n, m, 24, seed)]
        forms = [standard_form(*problem) for problem in problems]
        groups: dict[tuple, list[int]] = {}
        for index, form in enumerate(forms):
            groups.setdefault(form.signature, []).append(index)
        checked = 0
        for members in groups.values():
            report = solve_simplex_batch([forms[i] for i in members])
            assert report.rounds > 0
            assert report.round_slots == report.rounds * len(members)
            for position, index in enumerate(members):
                result = report.results[position]
                if result is None:
                    continue  # flagged straggler: scalar path solves it
                reference = solve_simplex(*problems[index])
                assert _exactly_equal(result, reference)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_scipy_on_feasible(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n, m = 3, 10
        problems = []
        for __ in range(8):
            a = rng.normal(size=(m, n))
            anchor = rng.uniform(-1, 1, size=n)
            # Positive right-hand sides (the region contains the
            # origin), so every problem shares one zero-artificial
            # stacking signature.
            b = np.abs(a @ anchor) + rng.uniform(0.1, 2.0, size=m)
            box = np.vstack([a, -np.eye(n), np.eye(n)])
            rhs = np.concatenate([b, 5.0 * np.ones(2 * n)])
            problems.append((rng.normal(size=n), box, rhs, None))
        solver = LinearProgramSolver(stats=LPStats(), backend="simplex")
        prepared = [solver._prepare(*problem) for problem in problems]
        forms = [standard_form(*problem) for problem in prepared]
        assert len({form.signature for form in forms}) == 1
        report = solve_simplex_batch(forms)
        scipy_solver = make_solver(backend="scipy")
        for problem, result in zip(problems, report.results):
            assert result is not None
            reference = scipy_solver.solve(*problem)
            assert result.status == reference.status == "optimal"
            assert result.objective == pytest.approx(reference.objective,
                                                     abs=1e-6)

    def test_signature_mismatch_rejected(self):
        solver = LinearProgramSolver(stats=LPStats(), backend="simplex")
        small = standard_form(*solver._prepare(
            [1.0], [[-1.0]], [0.0], None))
        large = standard_form(*solver._prepare(
            [1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], None))
        with pytest.raises(ValueError):
            solve_simplex_batch([small, large])

    def test_unstackable_signature(self):
        solver = LinearProgramSolver(stats=LPStats(), backend="simplex")
        form = standard_form(*solver._prepare([1.0, -2.0], None, None,
                                              None))
        assert not is_stackable(form.signature)


class TestSolveManyStacked:
    """The solve_many seam: grouping, accounting, fallback, dedupe."""

    def _problems(self, count=12, seed=7):
        return _random_problems(3, 10, count, seed)

    def test_results_and_counters_match_scalar_path(self, monkeypatch):
        problems = self._problems()
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 2)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar_solver = LinearProgramSolver(stats=LPStats())
        scalar = scalar_solver.solve_many(problems, purpose="unit")
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        stacked_solver = LinearProgramSolver(stats=LPStats())
        stacked = stacked_solver.solve_many(problems, purpose="unit")
        for got, want in zip(stacked, scalar):
            assert _exactly_equal(got, want)
        assert stacked_solver.stats.solved == scalar_solver.stats.solved
        assert stacked_solver.stats.infeasible == scalar_solver.stats.infeasible
        assert stacked_solver.stats.unbounded == scalar_solver.stats.unbounded
        assert stacked_solver.stats.by_purpose() == \
            scalar_solver.stats.by_purpose()
        assert stacked_solver.stats.batch_solves > 0
        assert stacked_solver.stats.batch_rounds > 0
        assert 0.0 < stacked_solver.stats.batch_occupancy() <= 1.0
        assert scalar_solver.stats.batch_solves == 0

    def test_scalar_kernels_env_disables_stacking(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 2)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        solver = LinearProgramSolver(stats=LPStats())
        solver.solve_many(self._problems(), purpose="unit")
        assert solver.stats.batch_groups == 0

    def test_in_batch_duplicates_stay_cache_hits(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 2)
        problems = self._problems(count=8)
        duplicated = problems + problems[:3]
        for env in ("1", ""):
            monkeypatch.setenv("REPRO_SCALAR_KERNELS", env)
            solver = LinearProgramSolver(stats=LPStats(), cache_size=64)
            results = solver.solve_many(duplicated, purpose="unit")
            assert solver.stats.solved == len(problems)
            assert solver.stats.cache_hits == 3
            for original, duplicate in zip(results[:3], results[-3:]):
                assert original is duplicate

    def test_per_problem_purposes_attributed_per_group(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 2)
        problems = self._problems(count=10)
        purposes = ["alpha" if i % 2 == 0 else "beta"
                    for i in range(len(problems))]
        solver = LinearProgramSolver(stats=LPStats())
        solver.solve_many(problems, purpose=purposes)
        assert solver.stats.by_purpose() == {"alpha": 5, "beta": 5}
        seconds = solver.stats.seconds_by_purpose()
        # Every purpose of a stacked group gets its own share of the
        # group's wall clock (the misattribution fix).
        assert seconds["alpha"] > 0.0
        assert seconds["beta"] > 0.0
        assert solver.stats.seconds == pytest.approx(
            seconds["alpha"] + seconds["beta"])

    def test_purpose_count_mismatch_rejected(self):
        solver = LinearProgramSolver(stats=LPStats())
        from repro.errors import SolverError
        with pytest.raises(SolverError):
            solver.solve_many(self._problems(count=4),
                              purpose=["only-one"])

    def test_flagged_stragglers_fall_back_to_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 2)
        problems = self._problems(count=8)
        real_batch = solver_mod.solve_simplex_batch

        def flag_first(forms):
            report = real_batch(forms)
            results = list(report.results)
            flagged = 1 if results[0] is not None else 0
            results[0] = None
            return type(report)(
                results=results, rounds=report.rounds,
                active_rounds=report.active_rounds,
                round_slots=report.round_slots,
                problem_rounds=report.problem_rounds,
                fallbacks=report.fallbacks + flagged,
                seconds=report.seconds)

        monkeypatch.setattr(solver_mod, "solve_simplex_batch", flag_first)
        solver = LinearProgramSolver(stats=LPStats())
        stacked = solver.solve_many(problems, purpose="unit")
        assert solver.stats.batch_fallbacks >= 1
        assert solver.stats.solved == len(problems)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        reference_solver = LinearProgramSolver(stats=LPStats())
        reference = reference_solver.solve_many(problems, purpose="unit")
        for got, want in zip(stacked, reference):
            assert _exactly_equal(got, want)


class TestBatchCounters:
    def test_merge_and_reset(self):
        one, two = LPStats(), LPStats()
        one.record_batch(group_size=4, solved=4, rounds=6,
                         active_rounds=20, fallbacks=0)
        two.record_batch(group_size=8, solved=7, rounds=5,
                         active_rounds=30, fallbacks=1)
        one.merge(two)
        assert one.batch_groups == 2
        assert one.batch_solves == 11
        assert one.batch_rounds == 11
        assert one.batch_fallbacks == 1
        assert one.batch_round_slots == 4 * 6 + 8 * 5
        assert one.batch_occupancy() == pytest.approx(50 / 64)
        one.reset()
        assert one.batch_groups == 0
        assert one.batch_occupancy() == 0.0

    def test_median_stacked_group_size(self):
        stats = LPStats()
        assert stats.median_stacked_group_size() == 0.0
        stats.record_batch(group_size=8, solved=8, rounds=3,
                           active_rounds=20, fallbacks=0)
        stats.record_batch(group_size=24, solved=24, rounds=5,
                           active_rounds=100, fallbacks=0)
        # 8 LPs at size 8, 24 LPs at size 24: the median LP rides a 24.
        assert stats.median_stacked_group_size() == 24.0
        assert stats.stacked_group_size_histogram() == {8: 1, 24: 1}
        other = LPStats()
        other.merge(stats)
        assert other.stacked_group_size_histogram() == {8: 1, 24: 1}
        other.reset()
        assert other.median_stacked_group_size() == 0.0

    def test_add_seconds_has_no_solve_side_effects(self):
        stats = LPStats()
        stats.add_seconds("emptiness", 0.25)
        assert stats.solved == 0
        assert stats.seconds == pytest.approx(0.25)
        assert stats.seconds_by_purpose() == {"emptiness": 0.25}

    def test_optimizer_stats_summary_exposes_batch_counters(self):
        from repro.core.stats import OptimizerStats
        stats = OptimizerStats()
        stats.lp_stats.record_batch(group_size=4, solved=4, rounds=3,
                                    active_rounds=10, fallbacks=0)
        summary = stats.summary()
        assert summary["batch_lp_rounds"] == 3
        assert summary["batch_lp_solves"] == 4
        assert summary["batch_lp_fallbacks"] == 0
        assert summary["batch_lp_occupancy"] == pytest.approx(10 / 12)
        assert summary["lp_median_stacked_group_size"] == 4.0


class TestFullRunEquivalence:
    """Whole optimizations: stacked kernel forced on vs. both baselines."""

    @pytest.mark.parametrize("scenario,seed,num_tables,shape", [
        ("cloud", 0, 4, "chain"),
        ("cloud", 1, 3, "star"),
        ("approx", 2, 4, "chain"),
    ])
    def test_plan_sets_bit_identical(self, monkeypatch, scenario, seed,
                                     num_tables, shape):
        query = QueryGenerator(seed=seed).generate(num_tables, shape, 1)
        # Baseline 1: fully scalar geometry loops (plan-set oracle; its
        # LP *count* legitimately differs — the batched region
        # difference drops the scalar prefix-emptiness LPs).
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        scalar = get_scenario(scenario).optimize(query)
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        # Baseline 2: batched geometry with per-problem pivoting only
        # (stacking disabled via an unreachable threshold) — the exact
        # path the stacked kernel replaces, counter for counter.
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 10 ** 9)
        per_lp = get_scenario(scenario).optimize(query)
        # Force even tiny miss groups through the stacked kernel so the
        # whole run's LPs exercise it, not just the occasional wide
        # batch.
        monkeypatch.setattr(solver_mod, "MIN_STACK_GROUP", 2)
        stacked = get_scenario(scenario).optimize(query)
        stacked_doc = json.dumps(encode_result(stacked), sort_keys=True)
        assert stacked_doc == json.dumps(encode_result(scalar),
                                         sort_keys=True)
        assert stacked_doc == json.dumps(encode_result(per_lp),
                                         sort_keys=True)
        assert stacked.stats.lps_solved == per_lp.stats.lps_solved
        assert (stacked.stats.lp_stats.by_purpose()
                == per_lp.stats.lp_stats.by_purpose())
        assert stacked.stats.batch_lp_solves > 0
        assert stacked.stats.batch_lp_fallbacks == 0
        assert per_lp.stats.batch_lp_solves == 0
        for counter in ("plans_created", "plans_inserted",
                        "plans_discarded_new", "plans_displaced_old"):
            assert (getattr(stacked.stats, counter)
                    == getattr(scalar.stats, counter)), counter
            assert (getattr(stacked.stats, counter)
                    == getattr(per_lp.stats, counter)), counter
