"""Inputs, reference digests and statistics shared by the benchmark files.

Everything here is deterministic in the ``--seed`` argument: the query
sets are CRC-seeded (``queries_for_point``, ``stable_seed``,
``drift_statistics``), and the seed only perturbs table statistics by
:data:`SEED_DRIFT`.  That keeps a workload's cost nearly the same from
seed to seed, while every seed still has plan sets of its own, so the
output check cannot pass on remembered answers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")
#: Run-time scratch space inside the checkout (listed in .gitignore):
#: the per-seed reference cache, store files and child-process logs.
RUN_DIR = os.path.join(ROOT, ".perfbench")

#: Seed whose reference digests are committed under ``references/``.
DEFAULT_SEED = 1

#: Relative statistics perturbation applied per seed (see module doc).
SEED_DRIFT = 0.005

#: Significant digits kept when costs are digested.
DIGEST_DIGITS = 6

WORKLOADS = ("cold-optimize", "serve-hits", "recurring-drift")

#: cold-optimize: (scenario, shape, num_params, num_tables).  One query
#: per row, generator base seed 0.  Mixes both scenarios, both graph
#: shapes, p=1 and p=2, and 3-5 tables, at about 4 s per serial pass.
COLD_SET = (
    ("cloud", "chain", 1, 3),
    ("cloud", "star", 1, 3),
    ("cloud", "star", 1, 4),
    ("cloud", "chain", 2, 3),
    ("approx", "chain", 1, 4),
    ("approx", "chain", 1, 5),
    ("approx", "star", 2, 3),
    ("approx", "chain", 2, 3),
    ("approx", "star", 1, 4),
    ("approx", "star", 2, 4),
)

#: serve-hits: the warm mix.  Plan sets of 3 to 13 entries, p=1 and
#: p=2, so one hit decodes anything from a few dozen to a few hundred
#: polytopes (about 2 to 12 ms of server time each, in-process).
SERVE_MIX = (
    ("approx", "star", 1, 4),
    ("approx", "chain", 1, 3),
    ("cloud", "chain", 1, 3),
    ("cloud", "star", 1, 3),
    ("cloud", "star", 1, 4),
    ("approx", "chain", 2, 3),
    ("approx", "chain", 1, 5),
)

#: recurring-drift: query families (scenario, shape, params, tables)
#: and the drifted variants each one recurs with.
DRIFT_FAMILIES = (
    ("cloud", "star", 1, 4),
    ("cloud", "chain", 1, 3),
    ("approx", "chain", 1, 5),
    ("approx", "star", 2, 3),
)
DRIFT_VARIANTS = 2

#: A two-table query optimized once at start-up so lazy imports and
#: first-call costs are paid inside set-up, never inside a timed request.
WARMUP_POINT = ("cloud", "chain", 1, 2)


def use_source_tree() -> None:
    """Make ``import repro`` resolve to the checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(**extra: str) -> dict:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _base_query(shape: str, num_params: int, num_tables: int):
    from repro.bench import SweepPoint, queries_for_point
    return queries_for_point(SweepPoint(num_tables, shape, num_params),
                             count=1, base_seed=0)[0]


def _perturb(query, seed: int, tag: str):
    from repro.bench import drift_statistics, stable_seed
    return drift_statistics(query, stable_seed(f"perfbench:{tag}:{seed}"),
                            magnitude=SEED_DRIFT)


def _tag(row: tuple) -> str:
    scenario, shape, num_params, num_tables = row
    return f"{scenario}.{shape}.p{num_params}.t{num_tables}"


def point_queries(rows, seed: int, prefix: str) -> list[tuple]:
    """``(qid, scenario, query)`` for each row, perturbed by ``seed``."""
    out = []
    for index, row in enumerate(rows):
        qid = f"{prefix}{index:02d}.{_tag(row)}"
        query = _perturb(_base_query(*row[1:]), seed, qid)
        out.append((qid, row[0], query))
    return out


def drift_queries(seed: int) -> list[dict]:
    """Recurring families: a base query plus drifted variants each.

    The variants' drift (the default 15 %) is fixed per family, so the
    near-miss structure is the same for every seed; the seed perturbs
    bases and variants alike by :data:`SEED_DRIFT`.
    """
    from repro.bench import drift_statistics, stable_seed
    families = []
    for index, row in enumerate(DRIFT_FAMILIES):
        fid = f"f{index}.{_tag(row)}"
        base = _base_query(*row[1:])
        members = [(f"{fid}.base", base)]
        for variant in range(DRIFT_VARIANTS):
            drifted = drift_statistics(
                base, seed=stable_seed(f"perfbench:{fid}:v{variant}"))
            members.append((f"{fid}.v{variant}", drifted))
        families.append({
            "family": fid, "scenario": row[0],
            "members": [(qid, _perturb(query, seed, qid))
                        for qid, query in members]})
    return families


def workload_queries(workload: str, seed: int) -> list[tuple]:
    """Every ``(qid, scenario, query)`` whose output a workload checks."""
    if workload == "cold-optimize":
        return point_queries(COLD_SET, seed, "c")
    if workload == "serve-hits":
        return point_queries(SERVE_MIX, seed, "s")
    if workload == "recurring-drift":
        return [(qid, family["scenario"], query)
                for family in drift_queries(seed)
                for qid, query in family["members"]]
    raise ValueError(f"unknown workload {workload!r}")


def stable_seed_of(tag: str) -> int:
    from repro.bench import stable_seed
    return stable_seed(f"perfbench:{tag}")


def warmup_query():
    return _base_query(*WARMUP_POINT[1:])


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------

def _round(value: float) -> float:
    rounded = float(f"{float(value):.{DIGEST_DIGITS}g}")
    return 0.0 if rounded == 0.0 else rounded  # fold -0.0


def _canonical_pwl(doc: dict) -> list:
    pieces = []
    for piece in doc["pieces"]:
        region = sorted([[_round(a) for a in c["a"]], _round(c["b"])]
                        for c in piece["region"]["constraints"])
        pieces.append([region, [_round(w) for w in piece["w"]],
                       _round(piece["b"])])
    return sorted(pieces)


def plan_set_digest(doc: dict) -> str:
    """Digest of a plan-set document's canonical form.

    The canonical form is the set of plans, each with its cost
    functions (piece regions, weights and offsets) rounded to
    :data:`DIGEST_DIGITS` significant digits, plus the guarantee tag.
    Relevance-region cutouts are left out: they record how the
    optimizer pruned, not which plans and costs it returns.
    """
    entries = []
    for entry in doc["entries"]:
        plan = json.dumps(entry["plan"], sort_keys=True,
                          separators=(",", ":"))
        cost = [[metric, _canonical_pwl(fn)]
                for metric, fn in sorted(entry["cost"].items())]
        entries.append([plan, cost])
    entries.sort(key=lambda item: json.dumps(item))
    canonical = {"alpha": _round(doc.get("alpha", 0.0)),
                 "entries": entries}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def reference_path(workload: str, seed: int) -> str:
    if seed == DEFAULT_SEED:
        return os.path.join(REFERENCE_DIR, f"{workload}.seed{seed}.json")
    return os.path.join(RUN_DIR, "references",
                        f"{workload}.seed{seed}.json")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``; the value is the
    sample at rank ``n - beyond`` (1-based), so exactly ``beyond``
    samples lie beyond it.  With fewer than ``beyond + 1`` samples the
    maximum is returned.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return float("nan"), 0.0, 0
    rank = max(1, count - beyond)
    return ordered[rank - 1], 100.0 * rank / count, count


def geomean(values) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values)
                    / len(values))


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------

#: The reference task: CALIBRATION_SOLVES HiGHS solves of one fixed
#: 12x6 LP through ``scipy.optimize.linprog`` (Python wrapper plus C++
#: solver, like the optimizer's own mix).  It uses no ``repro`` code,
#: so no change to the optimizer moves it.
CALIBRATION_SOLVES = 15
#: Seconds the reference task takes on the nominal host.  A time
#: measured next to a reference task that took ``c`` seconds is
#: reported as ``time * CALIBRATION_NOMINAL_S / c``.
CALIBRATION_NOMINAL_S = 0.030

_calibration_lp = None


def calibration_seconds() -> float:
    """Wall time of one run of the reference task, on this host, now."""
    global _calibration_lp
    import numpy as np
    from scipy.optimize import linprog
    if _calibration_lp is None:
        rows = np.arange(72, dtype=float).reshape(12, 6)
        _calibration_lp = (np.ones(6), np.sin(rows * 1.7) - 0.1,
                           np.ones(12))
    cost, a_ub, b_ub = _calibration_lp
    started = time.perf_counter()
    for __ in range(CALIBRATION_SOLVES):
        linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(-5.0, 5.0)] * 6,
                method="highs")
    return time.perf_counter() - started


def nominal(seconds: float, calibration: float) -> float:
    """``seconds`` measured next to ``calibration``, on the nominal host."""
    return seconds * CALIBRATION_NOMINAL_S / calibration


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")
