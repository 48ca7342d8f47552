"""Unit tests for the LP layer: both backends, counters, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp import (LinearProgramSolver, LPStats, default_stats,
                      solve_simplex)


class TestSimplexCore:
    def test_simple_bounded_minimum(self):
        # min x0 + x1 s.t. x0 >= 1, x1 >= 2 (via -x <= -bound).
        res = solve_simplex([1.0, 1.0],
                            a_ub=[[-1, 0], [0, -1]], b_ub=[-1, -2])
        assert res.is_optimal
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([1.0, 2.0])

    def test_infeasible(self):
        # x <= 0 and x >= 1 simultaneously.
        res = solve_simplex([1.0], a_ub=[[1], [-1]], b_ub=[0, -1])
        assert res.status == "infeasible"

    def test_unbounded(self):
        # min -x with x >= 0 only.
        res = solve_simplex([-1.0], a_ub=[[-1]], b_ub=[0])
        assert res.status == "unbounded"

    def test_bounds_handled(self):
        res = solve_simplex([-1.0, -1.0], a_ub=[[1, 1]], b_ub=[10],
                            bounds=[(0, 4), (0, 3)])
        assert res.is_optimal
        assert res.objective == pytest.approx(-7.0)

    def test_negative_lower_bounds(self):
        res = solve_simplex([1.0], bounds=[(-5, 5)])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(-5.0)

    def test_free_variables_via_split(self):
        # min x s.t. x >= -3 expressed through constraints (x free).
        res = solve_simplex([1.0], a_ub=[[-1]], b_ub=[3])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(-3.0)

    def test_degenerate_constraints(self):
        # Redundant duplicated rows should not break the pivot rules.
        res = solve_simplex([1.0, 0.0],
                            a_ub=[[-1, 0], [-1, 0], [0, 1], [0, 1]],
                            b_ub=[-1, -1, 5, 5])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(1.0)


class TestBackendAgreement:
    """Both backends must agree on random feasible LPs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 3, 8
        a = rng.normal(size=(m, n))
        # Make the region non-empty and bounded around a known point.
        x0 = rng.uniform(-1, 1, size=n)
        b = a @ x0 + rng.uniform(0.1, 2.0, size=m)
        box = [(-5.0, 5.0)] * n
        c = rng.normal(size=n)
        scipy_solver = LinearProgramSolver(backend="scipy")
        simplex_solver = LinearProgramSolver(backend="simplex")
        r1 = scipy_solver.solve(c, a, b, box)
        r2 = simplex_solver.solve(c, a, b, box)
        assert r1.status == r2.status == "optimal"
        assert r1.objective == pytest.approx(r2.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_infeasible_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 2
        direction = rng.normal(size=n)
        # direction @ x <= -1 and -direction @ x <= -1 cannot both hold.
        a = np.vstack([direction, -direction])
        b = np.array([-1.0, -1.0])
        for backend in ("scipy", "simplex"):
            res = LinearProgramSolver(backend=backend).solve(
                np.zeros(n), a, b, [(-10, 10)] * n)
            assert res.is_infeasible


class TestBasisSolve:
    """The fast basis-solve substrate mirrors np.linalg.solve's contract."""

    def test_matches_wrapper_bitwise(self):
        from repro.lp.simplex import _basis_solve
        rng = np.random.default_rng(3)
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=9)
        assert (_basis_solve(a, b) == np.linalg.solve(a, b)).all()

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_singular_raises_linalgerror(self, action):
        # Under warnings-promoted-to-errors (common downstream) the
        # gufunc's invalid-value warning must still surface as the
        # wrapper's LinAlgError so the hybrid scipy fallback engages.
        import warnings
        from repro.lp.simplex import _basis_solve
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(np.linalg.LinAlgError):
                _basis_solve(np.zeros((2, 2)), np.ones(2))

    def test_masked_stack_isolates_singular_slice(self):
        import warnings
        from repro.lp.simplex import _basis_solve_masked
        mats = np.stack([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)])
        vecs = np.ones((3, 2))
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                out = _basis_solve_masked(mats, vecs)
            assert (out[0] == np.ones(2)).all()
            assert np.isnan(out[1]).all()
            assert (out[2] == 0.5 * np.ones(2)).all()


class TestLinearProgramSolver:
    def test_counts_recorded(self):
        stats = LPStats()
        s = LinearProgramSolver(stats=stats)
        s.solve([1.0], [[-1.0]], [0.0], [(None, None)], purpose="unit")
        assert stats.solved == 1
        assert stats.by_purpose() == {"unit": 1}

    def test_feasibility_counted_separately(self):
        stats = LPStats()
        s = LinearProgramSolver(stats=stats)
        s.solve(np.zeros(2), [[1.0, 0.0]], [1.0])
        assert stats.feasibility_checks == 1
        assert stats.optimizations == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            LinearProgramSolver(backend="cplex")

    def test_default_stats_shared(self):
        s = LinearProgramSolver()
        assert s.stats is default_stats()

    def test_inconsistent_shapes_raise(self):
        s = LinearProgramSolver(backend="scipy")
        with pytest.raises(SolverError):
            s.solve([1.0, 1.0], [[1.0, 0.0]], [1.0, 2.0])

    def test_hybrid_backend_solves(self):
        s = LinearProgramSolver(backend="hybrid")
        res = s.solve([1.0], [[-1.0]], [-2.0])
        assert res.is_optimal
        assert res.x[0] == pytest.approx(2.0)


#: A thin sliver with no interior (HiGHS: Chebyshev radius -0.00276) on
#: which the hand-written simplex reports an "optimal" radius of +0.0113
#: at a point that breaks a row by 0.018.
SLIVER_A = np.array([
    [0.0, 1.0], [0.7071067811865476, -0.7071067811865476], [-1.0, 0.0],
    [0.9932025939535459, -0.11639848523046935],
    [0.9999711989837005, -0.007589545645205183],
    [0.9960088021502914, -0.08925506170039657],
    [-0.9999999813081482, -0.00019334865747623159],
    [-0.9999999335189679, -0.0003646396301716154]])
SLIVER_B = np.array([
    1.0, -0.3535533905932738, 0.0, 0.0578402988874718,
    -0.0033050746345227124, -0.08412211130704735,
    -0.0008919727925669243, -0.010199709934870349])


def highs_chebyshev(a, b):
    from scipy.optimize import linprog

    a_ext = np.hstack([a, np.ones((a.shape[0], 1))])
    res = linprog([0.0, 0.0, -1.0], A_ub=a_ext, b_ub=b,
                  bounds=[(None, None)] * 3, method="highs")
    assert res.status == 0
    return res.x[:2], float(res.x[-1])


class TestSimplexResidualCheck:
    """A simplex "optimum" that breaks a row is never returned."""

    def test_chebyshev_agrees_with_highs(self):
        from repro.geometry import ConvexPolytope

        poly = ConvexPolytope(2, rows=(SLIVER_A, SLIVER_B))
        solver = LinearProgramSolver(stats=LPStats())
        center, radius = poly.chebyshev(solver)
        ref_center, ref_radius = highs_chebyshev(SLIVER_A, SLIVER_B)
        assert radius == pytest.approx(ref_radius, abs=1e-7)
        assert center == pytest.approx(ref_center, abs=1e-6)
        assert not poly.has_interior(solver)

    def test_simplex_backend_raises(self):
        a_ext = np.hstack([SLIVER_A, np.ones((8, 1))])
        solver = LinearProgramSolver(stats=LPStats(), backend="simplex")
        with pytest.raises(SolverError):
            solver.solve([0.0, 0.0, -1.0], a_ext, SLIVER_B)

    def test_stacked_answer_becomes_a_straggler(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        from repro.lp.solver import MIN_STACK_GROUP

        a_ext = np.hstack([SLIVER_A, np.ones((8, 1))])
        stats = LPStats()
        solver = LinearProgramSolver(stats=stats)
        results = solver.solve_many(
            [([0.0, 0.0, -1.0], a_ext, SLIVER_B, None)] * MIN_STACK_GROUP,
            purpose="chebyshev")
        __, ref_radius = highs_chebyshev(SLIVER_A, SLIVER_B)
        for result in results:
            assert result.x[-1] == pytest.approx(ref_radius, abs=1e-7)
        assert stats.batch_fallbacks == MIN_STACK_GROUP
        assert stats.solved == MIN_STACK_GROUP


class TestLPStats:
    def test_merge(self):
        a, b = LPStats(), LPStats()
        a.record(purpose="p1")
        b.record(purpose="p1", feasible=False)
        b.record(purpose="p2", objective=False)
        a.merge(b)
        assert a.solved == 3
        assert a.infeasible == 1
        assert a.feasibility_checks == 1
        assert a.by_purpose() == {"p1": 2, "p2": 1}

    def test_reset(self):
        s = LPStats()
        s.record()
        s.reset()
        assert s.solved == 0
        assert s.by_purpose() == {}
