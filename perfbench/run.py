"""End-to-end and layer-attributed benchmark of the MPQ optimizer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-optimize --seed 1 \\
        --seconds 15 --trace 0

Prints a table of every metric by name and unit (plus the requests
sent, succeeded and failed in each phase), then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics of a traced run.  Exits 1
when any output differs from its reference digest, and 2 when the
optimizer sources are not in the checkout.  See ``DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: End-to-end metrics and their units, as in BENCHMARK.json.
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_qps": "1/s",
         "latency_ms": "ms", "tail_latency_ms": "ms"}

#: Per-layer metrics of the traced run and their units.
LAYER_UNITS = {
    "serve.self_ms": "ms", "serve.parse_ms": "ms",
    "serve.queue_wait_ms": "ms", "serve.rejected": "count",
    "serve.sticky_ratio": "ratio", "serve.shard_skew": "ratio",
    "service.self_ms": "ms", "service.signature_ms": "ms",
    "cache.get_ms": "ms", "cache.put_ms": "ms", "cache.hit_ratio": "ratio",
    "store.get_ms": "ms", "store.put_ms": "ms", "store.nearest_ms": "ms",
    "store.seed_hit_ratio": "ratio", "store.puts_rejected_coarser": "count",
    "core.self_s": "s", "core.rungs_run": "count",
    "core.plans_created": "count", "core.pruning_comparisons": "count",
    "core.decode_ms": "ms", "core.encode_ms": "ms",
    "cost.self_s": "s", "cost.calls": "count",
    "geometry.self_s": "s", "geometry.polytopes_built": "count",
    "geometry.emptiness_checks": "count",
    "geometry.emptiness_skip_ratio": "ratio",
    "lp.self_s": "s", "lp.self_s.chebyshev": "s", "lp.self_s.emptiness": "s",
    "lp.solved": "count", "lp.memo_hit_ratio": "ratio",
    "lp.stacked_share": "ratio", "lp.fallbacks": "count",
    "trace.unattributed_share": "ratio", "trace.overhead": "ratio",
    "loadgen.lag_p50_ms": "ms", "loadgen.lag_max_ms": "ms",
}


def report(workload: str, seed: int, trace: bool, result) -> dict:
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    for phase in result.phases:
        print(f"  phase {phase.name:<22} sent {phase.sent:5d}  "
              f"ok {phase.ok:5d}  failed {phase.failed:4d}  "
              f"wrong {phase.wrong:4d}")
    for label, text in result.rows:
        print(f"  {label:<32} {text}")
    attempted = max(1, result.attempted)
    named = dict(result.named)
    named["error_rate"] = (result.failed / attempted, "ratio",
                           f"{result.failed}/{attempted}")
    named["wrong_results"] = (result.wrong, "count",
                              "vs reference digests")
    for name, (value, unit, note) in named.items():
        print(f"  {name:<32} {value:12.4f} {unit:<6} {note}")
    values, units = ((result.layers, LAYER_UNITS) if trace
                     else (result.metrics, UNITS))
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(values)} != {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:12.4f} {metric['unit']}")
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            raise ValueError(f"non-finite metric in {metrics}")
    return {"correct": result.wrong == 0, "attempted": attempted,
            "failed": result.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no optimizer sources at {common.SRC}",
              file=sys.stderr)
        return 2
    common.use_source_tree()
    import workloads
    result = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))
    summary = report(args.workload, args.seed, bool(args.trace), result)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
