"""Micro-benchmarks of the elementary geometric operations.

PWL-RRPA's run time decomposes into the elementary operations of
Algorithms 2 and 3; these benches measure each in isolation so regressions
in the geometry layer are visible independently of the optimizer.

Run with::

    pytest benchmarks/bench_geometry_ops.py --benchmark-only
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import optimize_query
from repro.bench import SweepPoint, queries_for_point
from repro.core import decode_plan_set, encode_result
from repro.cost import ParamPolynomial, SharedPartition
from repro.geometry import (ConvexPolytope, LinearConstraint, RelevanceRegion,
                            subtract_polytopes, union_as_polytope)
from repro.lp import LinearProgramSolver, LPStats


@pytest.fixture
def solver():
    return LinearProgramSolver(stats=LPStats())


def test_polytope_emptiness(benchmark, solver):
    def run():
        p = ConvexPolytope.box([0.1, 0.1], [0.9, 0.9])
        return p.is_empty(solver)
    assert benchmark(run) is False


def test_chebyshev_center(benchmark, solver):
    def run():
        p = ConvexPolytope.box([0.0, 0.0], [1.0, 0.5])
        return p.chebyshev(solver)
    __, radius = benchmark(run)
    assert radius == pytest.approx(0.25)


def test_region_difference(benchmark, solver):
    base = ConvexPolytope.unit_box(2)
    cuts = [ConvexPolytope.box([0.0, 0.0], [0.5, 0.5]),
            ConvexPolytope.box([0.5, 0.5], [1.0, 1.0])]

    def run():
        return subtract_polytopes(base, cuts, solver)

    pieces = benchmark(run)
    assert len(pieces) >= 2


def test_prefix_chain_construction(benchmark):
    # The candidate pieces subtract_polytope_many builds for one base and
    # an 8-row cut: piece k adds the complement of cut row k to the
    # prefix, and the prefix adds the row itself.  LP-free: this times
    # polytope construction alone.
    base = ConvexPolytope.unit_box(2)
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    cut = [LinearConstraint.make([np.cos(t), np.sin(t)], 0.3)
           for t in angles]
    halves = [(c, c.negation()) for c in cut]

    def run():
        pieces = []
        prefix = base
        for row, negation in halves:
            pieces.append(prefix.with_constraint(negation))
            prefix = prefix.with_constraint(row)
        return pieces

    pieces = benchmark(run)
    assert pieces[-1].num_constraints == 4 + 8


def test_decode_stored_plan_set(benchmark):
    # Reloading a stored 4-table plan set: one polytope per PWL piece
    # region and per relevance-region cutout, no LPs.
    query = queries_for_point(SweepPoint(4, "star", 1), count=1)[0]
    doc = encode_result(optimize_query(query, "cloud"))

    stored = benchmark(decode_plan_set, doc)
    assert len(stored.entries) == len(doc["entries"])


def test_union_convexity_recognition(benchmark, solver):
    left = ConvexPolytope.box([0.0, 0.0], [0.5, 1.0])
    right = ConvexPolytope.box([0.5, 0.0], [1.0, 1.0])

    def run():
        return union_as_polytope([left, right], solver)

    assert benchmark(run) is not None


def test_relevance_region_lifecycle(benchmark, solver):
    # Ten disjoint cutouts leaving 0.02-wide gaps: region stays non-empty.
    cuts = [ConvexPolytope.box([0.1 * i], [0.1 * i + 0.08])
            for i in range(10)]

    def run():
        rr = RelevanceRegion(ConvexPolytope.unit_box(1))
        for cut in cuts:
            rr.subtract(cut)
        return rr.is_empty(solver)

    assert benchmark(run) is False


def test_dominance_on_shared_partition(benchmark, solver):
    part = SharedPartition([0.0], [1.0], 4)
    x = ParamPolynomial.variable(1, 0)
    c1 = part.vector_from_polynomials({"time": x * 2.0,
                                       "fees": x * 0 + 3.0})
    c2 = part.vector_from_polynomials({"time": x + 0.5,
                                       "fees": x * 0 + 2.0})

    def run():
        return c2.dominance_polytopes(c1, solver)

    polys = benchmark(run)
    assert polys


def test_pwl_accumulation_aligned(benchmark):
    part = SharedPartition([0.0, 0.0], [1.0, 1.0], 2)
    x0 = ParamPolynomial.variable(2, 0)
    x1 = ParamPolynomial.variable(2, 1)
    f = part.from_polynomial(x0 * x1 * 100.0)
    g = part.from_polynomial(x0 * 3.0 + 1.0)

    def run():
        return f.add(g)

    h = benchmark(run)
    assert h.num_pieces == f.num_pieces
