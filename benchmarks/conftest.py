"""Shared fixtures and helpers for the benchmark suite.

Every benchmark records the paper's Figure 12 measurements (plans created,
LPs solved, Pareto set size) in ``benchmark.extra_info`` so a benchmark
run regenerates the full data behind the figure, not just timings.
"""

from __future__ import annotations

import pytest

from repro.bench import SweepPoint, queries_for_point
from repro.core import PWLRRPAOptions


def optimize_and_record(benchmark, point: SweepPoint,
                        options: PWLRRPAOptions | None = None,
                        seed: int = 0):
    """Benchmark one sweep point and attach the Figure 12 counters."""
    from repro.bench import run_query_measurement

    query = queries_for_point(point, 1, base_seed=seed)[0]

    def run():
        return run_query_measurement(query, point, options=options)

    measurement = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "tables": point.num_tables,
        "shape": point.shape,
        "params": point.num_params,
        "plans_created": measurement.plans_created,
        "lps_solved": measurement.lps_solved,
        "pareto_plans": measurement.pareto_plans,
        "lp_seconds": measurement.lp_seconds,
        "emptiness_lp_seconds": measurement.emptiness_lp_seconds,
        "batch_lp_rounds": measurement.batch_lp_rounds,
        "batch_lp_solves": measurement.batch_lp_solves,
        "batch_lp_fallbacks": measurement.batch_lp_fallbacks,
        "batch_lp_occupancy": measurement.batch_lp_occupancy,
    })
    return measurement


@pytest.fixture
def record_point():
    """Fixture exposing :func:`optimize_and_record`."""
    return optimize_and_record
