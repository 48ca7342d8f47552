"""Stacked-tableau vs. per-LP simplex: the LP-kernel microbenchmark.

Sweeps the stacked simplex kernel (:mod:`repro.lp.batch_simplex`)
against the scalar :func:`repro.lp.solve_simplex` across LP shapes and
batch sizes, asserting bit-identical answers at every point.  Three
numbers per point are deterministic (stable CRC-seeded LPs) and join the
gated CI perf baseline via ``bench_compare.py --lpkernels``:

* ``rounds`` — lockstep pivot rounds one kernel call executes (grows
  when pivot trajectories regress),
* ``occupancy`` — mean fraction of the batch still pivoting per round
  (erodes when finished problems stop freezing),
* ``fallbacks`` — problems flagged back to the scalar path (should stay
  at zero; any growth means the kernel stopped handling its workload).

The per-LP timings and the speedup column are informational — they show
the kernel's crossover point (the product routes only miss groups of
``repro.lp.solver.MIN_STACK_GROUP`` or more through the kernel).

Run under pytest-benchmark::

    pytest benchmarks/bench_lp_kernels.py --benchmark-only

or standalone (prints the table, optionally dumps JSON)::

    python benchmarks/bench_lp_kernels.py
    python benchmarks/bench_lp_kernels.py --batches 1,4,16,64 --json out.json
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.bench import format_lp_kernel_table, run_lp_kernel_sweep

#: Shapes swept by the pytest entry point (CI smoke friendly).
SMOKE_SHAPES = ((3, 8), (4, 14), (6, 24))
SMOKE_BATCHES = (1, 2, 4, 8, 16, 64)


@pytest.mark.parametrize("shape", SMOKE_SHAPES)
def test_lp_kernel_sweep(benchmark, shape):
    def run():
        return run_lp_kernel_sweep(shapes=(shape,),
                                   batch_sizes=SMOKE_BATCHES)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(point.fallbacks == 0 for point in points)
    # Occupancy can only be <= 1 and the sweep must keep the kernel busy.
    assert all(0.0 < point.occupancy <= 1.0 for point in points)
    benchmark.extra_info["lp_kernels"] = [point.as_dict()
                                          for point in points]


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Stacked vs. per-LP simplex microbenchmark")
    parser.add_argument("--batches", type=_int_tuple,
                        default=SMOKE_BATCHES,
                        help="comma-separated batch sizes")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per point")
    parser.add_argument("--json", default=None,
                        help="write the point list to this JSON file")
    args = parser.parse_args()

    points = run_lp_kernel_sweep(shapes=SMOKE_SHAPES,
                                 batch_sizes=args.batches,
                                 repeats=args.repeats)
    print(format_lp_kernel_table(points))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"lp_kernels": [point.as_dict()
                                      for point in points]},
                      handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
