"""The three workloads.  Each returns a :class:`Result`.

The optimizing process is always a child (``worker.py``), so set-up
time and peak memory belong to it alone, and the load generator of the
two gateway workloads never shares an interpreter lock with the
gateway.  Reference digests are fetched before any set-up starts, so
computing them for a new seed never counts in ``setup_s``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

import common
import harness
import spans

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Reference tasks run on either side of each set-up; their median
#: normalizes it.  One 30 ms task is too short a sample next to a
#: set-up of seconds.
SETUP_CALIBRATIONS = 3

#: serve-hits: open-loop rates (requests/s) and the share of
#: ``--seconds`` spent at each.  The latency metrics are taken at
#: STATED_RATE, well below saturation.
FIXED_RATES = ((20.0, 0.45), (40.0, 0.1))
STATED_RATE = 20.0
#: serve-hits: capacity search.  A closed loop (one request in flight
#: per connection) first measures saturation throughput over
#: SATURATION_SHARE of ``--seconds``; then fixed open-loop rates at
#: falling fractions of it run for TRIAL_S each, until one meets the
#: tail-latency limit without a growing backlog.
TAIL_LIMIT_MS = 60.0
SATURATION_SHARE = 0.2
TRIAL_FRACTIONS = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.6, 0.5, 0.4)
TRIAL_S = 1.5

#: cold-optimize: ``tail_latency_ms`` is the geometric mean of the
#: per-query medians of this many slowest queries of the set.
TAIL_QUERIES = 3

#: recurring-drift: one budget for every anytime request, far beyond
#: any run here, so each stream descends the whole default ladder.
DRIFT_BUDGET = {"seconds": 1e6}


@dataclass
class Phase:
    name: str
    sent: int = 0
    ok: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, ok: bool, wrong: bool) -> None:
        self.sent += 1
        self.ok += int(ok)
        self.failed += int(not ok)
        self.wrong += int(wrong)


@dataclass
class Result:
    """What one run of a workload measured."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: Workload-specific metrics by name: ``name -> (value, unit, note)``.
    named: dict = field(default_factory=dict)
    phases: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(phase.sent for phase in self.phases)

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases)

    @property
    def wrong(self) -> int:
        return sum(phase.wrong for phase in self.phases)


# ----------------------------------------------------------------------
# Per-layer reduction
# ----------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def gateway_delta(before: dict, after: dict) -> dict:
    """Serving and store counters accumulated between two /metrics."""
    def totals(doc):
        return doc["totals"]
    rejected = sum(
        totals(after)[key] - totals(before)[key]
        for key in ("rejected_rate", "rejected_capacity",
                    "rejected_draining"))
    routed = after["routing"]["requests"] - before["routing"]["requests"]
    sticky = (after["routing"]["sticky_hits"]
              - before["routing"]["sticky_hits"])
    shard_hits = [a - b for a, b in zip(after["routing"]["shard_hits"],
                                        before["routing"]["shard_hits"])]
    mean_hits = sum(shard_hits) / max(1, len(shard_hits))
    seed_hits = sum(s["store_seed_hits"] for s in after["shards"]) - sum(
        s["store_seed_hits"] for s in before["shards"])
    seed_misses = sum(s["store_seed_misses"] for s in after["shards"]) \
        - sum(s["store_seed_misses"] for s in before["shards"])
    coarser = (after.get("store", {}).get("puts_rejected_coarser", 0)
               - before.get("store", {}).get("puts_rejected_coarser", 0))
    return {"serve.rejected": rejected,
            "serve.sticky_ratio": _ratio(sticky, routed),
            "serve.shard_skew": _ratio(max(shard_hits, default=0),
                                       mean_hits),
            "store.seed_hit_ratio": _ratio(seed_hits,
                                           seed_hits + seed_misses),
            "store.puts_rejected_coarser": coarser}


def layer_metrics(agg: dict, *, requests: int, wall: float,
                  overhead: float, client_total: float | None = None,
                  counters: dict | None = None, lags=()) -> dict:
    """The per-layer metrics of one traced phase.

    ``*_ms`` metrics are milliseconds per request (inclusive span time
    for named calls, self time for whole layers); ``*.self_s`` metrics
    are seconds of self time over the phase.  On the gateway workloads
    the serve layer's self time is the client-observed time minus the
    time every other layer's spans account for, so it includes HTTP,
    admission, routing and queueing.
    """
    selfs = spans.layer_self(agg)
    if client_total is not None:
        selfs["serve"] = client_total - sum(
            value for layer, value in selfs.items() if layer != "serve")
        wall = client_total
    per_request = 1000.0 / max(1, requests)
    counter = lambda key: spans.calls(agg, key)  # noqa: E731
    lp_solved = counter("#lp.solved")
    checks = counter("#geometry.emptiness_checks")
    skipped = counter("#geometry.emptiness_skipped")
    hits, misses = counter("#cache.hits"), counter("#cache.misses")
    metrics = {
        "serve.self_ms": selfs["serve"] * per_request,
        "serve.parse_ms": spans.total(
            agg, "serve:protocol.parse_optimize_request") * per_request,
        "serve.queue_wait_ms": counter("#serve.queue_wait_s") * per_request,
        "serve.rejected": 0, "serve.sticky_ratio": 0.0,
        "serve.shard_skew": 0.0,
        "service.self_ms": selfs["service"] * per_request,
        "service.signature_ms": spans.total(
            agg, "service:signature.query_signature") * per_request,
        "cache.get_ms": spans.total(
            agg, "service:WarmStartCache.get") * per_request,
        "cache.put_ms": spans.total(
            agg, "service:WarmStartCache.put") * per_request,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "store.get_ms": spans.total(agg, "store:PlanSetStore.get")
        * per_request,
        "store.put_ms": spans.total(agg, "store:PlanSetStore.put")
        * per_request,
        "store.nearest_ms": spans.total(agg, "store:PlanSetStore.nearest")
        * per_request,
        "store.seed_hit_ratio": 0.0, "store.puts_rejected_coarser": 0,
        "core.self_s": selfs["core"],
        "core.rungs_run": counter("#core.rungs"),
        "core.plans_created": counter("#core.plans_created"),
        "core.pruning_comparisons": counter("#core.pruning_comparisons"),
        "core.decode_ms": spans.total(
            agg, "core:serialize.decode_plan_set") * per_request,
        "core.encode_ms": spans.total(
            agg, "core:serialize.encode_plan_set",
            "core:serialize.encode_result") * per_request,
        "cost.self_s": selfs["cost"],
        "cost.calls": spans.calls_with_prefix(agg, "cost:"),
        "geometry.self_s": selfs["geometry"],
        "geometry.polytopes_built": spans.calls(
            agg, "geometry:ConvexPolytope.__init__"),
        "geometry.emptiness_checks": checks,
        "geometry.emptiness_skip_ratio": _ratio(skipped, checks + skipped),
        "lp.self_s": selfs["lp"],
        "lp.self_s.chebyshev": sum(
            spans.self_with_prefix(agg, f"lp:{name}:chebyshev")
            for name in ("solve", "solve_many", "feasible")),
        "lp.self_s.emptiness": sum(
            spans.self_with_prefix(agg, f"lp:{name}:emptiness")
            for name in ("solve", "solve_many", "feasible")),
        "lp.solved": lp_solved,
        "lp.memo_hit_ratio": _ratio(counter("#lp.memo_hits"),
                                    counter("#lp.memo_hits") + lp_solved),
        "lp.stacked_share": _ratio(counter("#lp.stacked"), lp_solved),
        "lp.fallbacks": counter("#lp.fallbacks"),
        "trace.unattributed_share": _ratio(
            wall - sum(selfs.values()), wall),
        "trace.overhead": overhead,
        "loadgen.lag_p50_ms": 1000.0 * common.median(lags) if lags else 0.0,
        "loadgen.lag_max_ms": 1000.0 * max(lags, default=0.0),
    }
    if counters:
        metrics.update(counters)
    return metrics


def traced_phase(dump: dict, label: str = "measure") -> dict:
    return spans.merge(*(agg for name, agg in dump["phases"]
                         if name == label))


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------

def host_slowness(calibrations) -> float:
    """The median reference task over its nominal time (1 = nominal)."""
    return common.median(calibrations) / common.CALIBRATION_NOMINAL_S


class Setups:
    """Set-up times, each normalized by reference tasks around it.

    The reference tasks run in this process, before the set-up starts
    (:meth:`calibrate`) and after it ends (:meth:`end`), never while
    the child sets up.
    """

    def __init__(self) -> None:
        common.calibration_seconds()  # first-call costs, untimed
        self.walls: list[float] = []
        self.nominals: list[float] = []

    @staticmethod
    def calibrate() -> float:
        return common.median(common.calibration_seconds()
                             for __ in range(SETUP_CALIBRATIONS))

    def end(self, wall: float, calibration: float) -> None:
        after = self.calibrate()
        self.walls.append(wall)
        self.nominals.append(common.nominal(wall,
                                            0.5 * (calibration + after)))

    def median(self) -> float:
        return common.median(self.nominals)

    def named(self) -> dict:
        return {"setup_s_wall": (common.median(self.walls), "s",
                                 "wall clock, not normalized")}


# ----------------------------------------------------------------------
# cold-optimize
# ----------------------------------------------------------------------

def cold_optimize(seed: int, seconds: float, trace: bool) -> Result:
    reference = harness.references("cold-optimize", seed)
    setups, child = Setups(), None
    for rep in range(SETUP_REPS):
        calibration = setups.calibrate()
        candidate = harness.Child("cold", "--seed", str(seed))
        setups.end(candidate.ready_at - candidate.started, calibration)
        if rep < SETUP_REPS - 1:
            candidate.close()
        else:
            child = candidate
    result = Result()
    try:
        measures = []
        for traced, share in (((False, 0.5), (True, 0.5)) if trace
                              else ((False, 1.0),)):
            measures.append(child.request(
                {"cmd": "measure", "seconds": seconds * share,
                 "trace": traced, "label": "measure"},
                timeout=seconds + 150.0))
        dump = child.request({"cmd": "dump"})
    finally:
        child.close()

    phase = Phase("optimize")
    for measure in measures:
        for record in measure["passes"]:
            for qid in measure["qids"]:
                digest = record["digests"][qid]
                phase.add(not digest.startswith("status:"),
                          digest != reference[qid])
    result.phases.append(phase)

    def query_medians(measure, raw: bool = False) -> dict:
        """Each query's median time over the passes of ``measure``.

        Nominal-host seconds, or wall seconds when ``raw``.
        """
        times: dict[str, list[float]] = {}
        for record in measure["passes"]:
            for qid, secs, calibration in zip(
                    measure["qids"], record["seconds"],
                    record["calibration"]):
                times.setdefault(qid, []).append(
                    secs if raw else common.nominal(secs, calibration))
        return {qid: common.median(v) for qid, v in times.items()}

    base = measures[0]
    medians = query_medians(base)
    walls = query_medians(base, raw=True)
    qps = len(medians) / sum(medians.values())
    typical_ms = 1000.0 * common.geomean(medians.values())
    slowest = sorted(medians, key=medians.get)[-TAIL_QUERIES:]
    tail_ms = 1000.0 * common.geomean(medians[qid] for qid in slowest)
    result.metrics = {
        "setup_s": setups.median(),
        "peak_rss_mb": dump["rss_mb"],
        "throughput_qps": qps,
        "latency_ms": typical_ms,
        "tail_latency_ms": tail_ms,
    }
    result.named = {
        "optimize_qps": (qps, "1/s", f"{len(medians)} queries, "
                         f"{len(base['passes'])} passes"),
        "query_latency_gm_ms": (typical_ms, "ms",
                                "geomean of per-query medians"),
        "slowest_queries_gm_ms": (tail_ms, "ms",
                                  "geomean of the medians of "
                                  + ", ".join(q[:3] for q in slowest)),
        "optimize_qps_wall": (len(walls) / sum(walls.values()), "1/s",
                              "wall clock, not normalized"),
        "host_slowness": (host_slowness(
            c for record in base["passes"]
            for c in record["calibration"]), "ratio",
            "reference task / nominal"),
        **setups.named(),
    }
    result.rows = [(qid, f"{1000.0 * medians[qid]:.1f} ms nominal, "
                    f"{1000.0 * walls[qid]:.1f} ms wall")
                   for qid in base["qids"]]
    if trace:
        traced = measures[1]
        traced_time = sum(s for record in traced["passes"]
                          for s in record["seconds"])
        result.layers = layer_metrics(
            traced_phase(dump),
            requests=sum(len(r["seconds"]) for r in traced["passes"]),
            wall=traced_time,
            overhead=(sum(query_medians(traced).values())
                      / sum(medians.values()) - 1.0))
    return result


# ----------------------------------------------------------------------
# serve-hits
# ----------------------------------------------------------------------

def _hit_bodies(seed: int) -> dict:
    from repro.serve.protocol import query_to_doc
    return {qid: harness.optimize_body(query_to_doc(query),
                                       scenario=scenario)
            for qid, scenario, query in common.workload_queries(
                "serve-hits", seed)}


def _warmup(port: int, bodies: dict, checker, phase: Phase) -> None:
    """Optimize each mix query once (cold, exact) through the gateway."""
    for qid, body in bodies.items():
        try:
            status, raw = harness.post(port, body)
        except OSError:
            phase.add(False, False)
            continue
        if status != 200:
            phase.add(False, False)
            continue
        matches, served = checker.check(qid, raw)
        phase.add(served == "ok", not matches)


def _mix(rng: random.Random, bodies: dict, count: int) -> list[str]:
    """``count`` query ids in shuffled rounds of the whole mix.

    Every round holds each query once, so the mix's proportions, and
    with them the latency distribution's modes, are the same for every
    seed; the seed only orders the requests.
    """
    qids = sorted(bodies)
    picked: list[str] = []
    while len(picked) < count:
        round_ = list(qids)
        rng.shuffle(round_)
        picked.extend(round_)
    return picked[:count]


def _schedule(rng: random.Random, bodies: dict, rate: float,
              seconds: float) -> list:
    count = len(bodies) * max(1, round(rate * seconds / len(bodies)))
    return [(index / rate, qid, bodies[qid])
            for index, qid in enumerate(_mix(rng, bodies, count))]


def _step_tail(outcomes) -> tuple[float, float]:
    """Tail latency and the last request's latency of one trial (ms).

    A failed request counts as infinitely late.
    """
    latencies = [1000.0 * o.latency if o.ok and not o.wrong
                 else float("inf") for o in outcomes]
    return common.tail(latencies)[0], latencies[-1]


def serve_hits(seed: int, seconds: float, trace: bool) -> Result:
    reference = harness.references("serve-hits", seed)
    bodies = _hit_bodies(seed)
    checker = harness.ResponseChecker(reference)
    rng = random.Random(common.stable_seed_of(f"serve-hits:{seed}"))
    result = Result()
    warm = Phase("warmup")
    setups, server = Setups(), None
    try:
        for rep in range(SETUP_REPS):
            calibration = setups.calibrate()
            candidate = harness.Child("server")
            server = candidate
            _warmup(candidate.ready["port"], bodies, checker, warm)
            setups.end(time.perf_counter() - candidate.started,
                       calibration)
            if rep < SETUP_REPS - 1:
                candidate.close({"cmd": "stop"})
        port = server.ready["port"]
        result.phases.append(warm)

        def measure(name: str, schedule) -> list:
            outcomes = harness.open_loop(port, schedule, checker)
            phase = Phase(name)
            for outcome in outcomes:
                phase.add(outcome.ok, outcome.wrong)
            result.phases.append(phase)
            return outcomes

        if trace:
            schedule = _schedule(rng, bodies, STATED_RATE, seconds / 2)
            plain = measure(f"untraced@{STATED_RATE:g}", schedule)
            server.request({"cmd": "trace"})
            server.request({"cmd": "mark", "label": "warmup"})
            before = harness.get_metrics(port)
            traced = measure(f"traced@{STATED_RATE:g}", schedule)
            after = harness.get_metrics(port)
            server.request({"cmd": "mark", "label": "measure"})
            dump = server.request({"cmd": "dump"})
            mean = lambda outs: sum(  # noqa: E731
                o.done - o.sent for o in outs) / len(outs)
            result.layers = layer_metrics(
                traced_phase(dump), requests=len(traced), wall=0.0,
                overhead=mean(traced) / mean(plain) - 1.0,
                client_total=sum(o.done - o.sent for o in traced),
                counters=gateway_delta(before, after),
                lags=[o.lag for o in traced])
            return result

        stated = None
        for rate, share in FIXED_RATES:
            outcomes = measure(f"fixed@{rate:g}", _schedule(
                rng, bodies, rate, seconds * share))
            if rate == STATED_RATE:
                stated = outcomes
        saturation, max_qps, steps = _capacity(
            port, measure, rng, bodies, checker, result,
            seconds * SATURATION_SHARE)
        dump = server.request({"cmd": "dump"})
    finally:
        if server is not None:
            server.close({"cmd": "stop"})

    latencies = [1000.0 * o.latency for o in stated]
    p50 = common.median(latencies)
    tail_ms, tail_pct, tail_n = common.tail(latencies)
    lags = [o.lag for o in stated]
    result.metrics = {
        "setup_s": setups.median(),
        "peak_rss_mb": dump["rss_mb"],
        "throughput_qps": max_qps,
        "latency_ms": p50,
        "tail_latency_ms": tail_ms,
    }
    result.named = {
        "hit_p50_ms": (p50, "ms", f"at {STATED_RATE:g}/s, n={tail_n}"),
        "hit_tail_ms": (tail_ms, "ms",
                        f"p{tail_pct:.1f} at {STATED_RATE:g}/s, "
                        f"n={tail_n}"),
        "hit_max_qps": (max_qps, "1/s",
                        f"tail <= {TAIL_LIMIT_MS:g} ms, {TRIAL_S:g} s "
                        f"per rate"),
        "hit_saturation_qps": (saturation, "1/s",
                               "closed loop, 2 connections"),
        "loadgen_lag_p50_ms": (1000.0 * common.median(lags), "ms", ""),
        "loadgen_lag_max_ms": (1000.0 * max(lags), "ms", ""),
        **setups.named(),
    }
    result.rows = steps
    return result


def _capacity(port, measure, rng, bodies, checker, result,
              seconds: float):
    """Saturation throughput, then the highest rate meeting the limit.

    A rate passes when its tail latency is within :data:`TAIL_LIMIT_MS`
    (a failed request counts as beyond it) and its last request
    finished within the limit of its due time.  The reported rate
    interpolates the tail linearly between the passing rate and the
    failing rate tried just before it.
    """
    sequence = [(qid, bodies[qid]) for qid in _mix(rng, bodies, 100_000)]
    outcomes, elapsed = harness.closed_loop(port, sequence, checker,
                                            seconds)
    phase = Phase("saturation")
    for outcome in outcomes:
        phase.add(outcome.ok, outcome.wrong)
    result.phases.append(phase)
    saturation = len(outcomes) / elapsed
    steps = [("saturation", f"{saturation:.1f}/s closed loop")]
    failed = None
    for fraction in TRIAL_FRACTIONS:
        rate = fraction * saturation
        outcomes = measure(f"trial@{fraction:g}x", _schedule(
            rng, bodies, rate, TRIAL_S))
        tail_ms, backlog_ms = _step_tail(outcomes)
        worst = max(tail_ms, backlog_ms)
        ok = worst <= TAIL_LIMIT_MS
        steps.append((f"trial {rate:.1f}/s ({fraction:g}x)",
                      f"tail {tail_ms:.1f} ms, last {backlog_ms:.1f} ms, "
                      f"{'pass' if ok else 'fail'}"))
        if ok:
            if failed is None or failed[1] == float("inf"):
                return saturation, rate, steps
            share = (TAIL_LIMIT_MS - worst) / (failed[1] - worst)
            return saturation, rate + share * (failed[0] - rate), steps
        failed = (rate, worst)
    # Nothing met the limit: extrapolate from the slowest rate tried.
    return saturation, failed[0] * TAIL_LIMIT_MS / failed[1], steps


# ----------------------------------------------------------------------
# recurring-drift
# ----------------------------------------------------------------------

def _store_path(tag: str) -> str:
    os.makedirs(common.RUN_DIR, exist_ok=True)
    return os.path.join(common.RUN_DIR, f"store-{os.getpid()}-{tag}.db")


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.unlink(path + suffix)
        except FileNotFoundError:
            pass


def _stream(port: int, qid: str, doc: dict, scenario: str,
            checker: harness.ResponseChecker, phase: Phase) -> dict:
    """One streamed anytime request; returns its timing row."""
    body = harness.optimize_body(doc, scenario=scenario, stream=True,
                                 budget=DRIFT_BUDGET)
    sent = time.perf_counter()
    first = done = None
    last_rung = status = None
    try:
        for event in harness.stream(port, body):
            kind = event.get("kind")
            if kind == "rung_completed":
                if first is None:
                    first = time.perf_counter()
                last_rung = event
            elif kind == "done":
                done = time.perf_counter()
                status = event.get("status")
    except OSError as exc:  # ConnectionError: a broken stream
        status = f"broken:{type(exc).__name__}"
    ok = status == "ok" and first is not None and done is not None
    wrong = True
    if ok and last_rung is not None and last_rung.get("plan_set"):
        wrong = (common.plan_set_digest(last_rung["plan_set"])
                 != checker.reference[qid])
    phase.add(ok, wrong)
    return {"qid": qid, "ok": ok and not wrong,
            "first_s": (first - sent) if first else None,
            "exact_s": (done - sent) if done else None}


def _replay(port: int, qid: str, body: bytes,
            checker: harness.ResponseChecker, phase: Phase) -> dict:
    sent = time.perf_counter()
    try:
        status, raw = harness.post(port, body)
    except OSError:
        phase.add(False, False)
        return {"qid": qid, "ok": False, "hit_s": None}
    elapsed = time.perf_counter() - sent
    ok, wrong = False, False
    if status == 200:
        matches, served = checker.check(qid, raw)
        # Durability: an acknowledged plan set must come back from the
        # store, exactly; anything else is a wrong result.
        wrong = not matches or served != "cached"
        ok = True
    phase.add(ok, wrong)
    return {"qid": qid, "ok": ok and not wrong, "hit_s": elapsed}


def _drift_server(store: str, trace: bool) -> harness.Child:
    server = harness.Child("server", "--store", store)
    if trace:
        server.request({"cmd": "trace"})
    return server


def _warm_server(server: harness.Child, checker, phase: Phase) -> None:
    from repro.serve.protocol import query_to_doc
    status, raw = harness.post(server.ready["port"], harness.optimize_body(
        query_to_doc(common.warmup_query()), scenario="cloud"))
    phase.add(status == 200, False)


def _calibrated():
    """Tags each timing row with the reference tasks on either side.

    The first reference task runs now; each call runs the next one and
    stores the mean of the two around the row as its ``calibration``.
    """
    last = [common.calibration_seconds()]

    def tag(row: dict) -> dict:
        after = common.calibration_seconds()
        row["calibration"] = 0.5 * (last[0] + after)
        last[0] = after
        return row
    return tag


def _drift_cycle(server, store: str, families, checker, trace: bool,
                 result: Result, label: str) -> dict:
    """Phases 1-3 on one fresh store; returns the cycle's rows."""
    from repro.serve.protocol import query_to_doc
    port = server.ready["port"]
    rows = {"streams": [], "replays": [], "rss": [], "aggs": [],
            "metrics": []}
    phases = {name: Phase(f"{label}:{name}")
              for name in ("base", "drifted", "replay")}
    if trace:
        server.request({"cmd": "mark", "label": "setup"})
    before = harness.get_metrics(port)
    docs = {}
    calibrated = _calibrated()
    for name, pick in (("base", lambda m: m[:1]),
                       ("drifted", lambda m: m[1:])):
        for family in families:
            for qid, query in pick(family["members"]):
                docs[qid] = (query_to_doc(query), family["scenario"])
                rows["streams"].append(calibrated(_stream(
                    port, qid, docs[qid][0], family["scenario"], checker,
                    phases[name])))
    after = harness.get_metrics(port)
    if trace:
        server.request({"cmd": "mark", "label": "measure"})
    dump = server.request({"cmd": "dump"})
    rows["rss"].append(dump["rss_mb"])
    rows["aggs"].append(traced_phase(dump) if trace else {})
    rows["metrics"].append(gateway_delta(before, after))
    server.kill()  # crash: no drain, no checkpoint

    restarted = _drift_server(store, trace)
    try:
        port = restarted.ready["port"]
        if trace:
            restarted.request({"cmd": "mark", "label": "setup"})
        before = harness.get_metrics(port)
        calibrated = _calibrated()
        for row in list(rows["streams"]):
            if row["exact_s"] is None:
                continue  # never acknowledged with a done line
            doc, scenario = docs[row["qid"]]
            body = harness.optimize_body(doc, scenario=scenario,
                                         budget=DRIFT_BUDGET)
            rows["replays"].append(calibrated(_replay(
                port, row["qid"], body, checker, phases["replay"])))
        after = harness.get_metrics(port)
        if trace:
            restarted.request({"cmd": "mark", "label": "measure"})
        dump = restarted.request({"cmd": "dump"})
        rows["rss"].append(dump["rss_mb"])
        rows["aggs"].append(traced_phase(dump) if trace else {})
        rows["metrics"].append(gateway_delta(before, after))
    finally:
        restarted.close({"cmd": "stop"})
    result.phases.extend(phases.values())
    return rows


def recurring_drift(seed: int, seconds: float, trace: bool) -> Result:
    reference = harness.references("recurring-drift", seed)
    families = common.drift_queries(seed)
    checker = harness.ResponseChecker(reference)
    result = Result()
    warm = Phase("warmup")
    setups, server, store = Setups(), None, None
    cycles = []
    try:
        for rep in range(SETUP_REPS):
            store = _store_path(f"setup{rep}")
            _remove_store(store)
            calibration = setups.calibrate()
            server = harness.Child("server", "--store", store)
            _warm_server(server, checker, warm)
            setups.end(time.perf_counter() - server.started, calibration)
            if rep < SETUP_REPS - 1:
                server.close({"cmd": "stop"})
                _remove_store(store)
        result.phases.append(warm)
        deadline = time.perf_counter() + seconds
        modes = [False, True] if trace else None
        index = 0
        while True:
            traced = modes[index] if modes else False
            if index > 0:
                store = _store_path(f"cycle{index}")
                _remove_store(store)
                server = _drift_server(store, traced)
                _warm_server(server, checker, warm)
            elif traced:
                server.request({"cmd": "trace"})
            cycles.append(_drift_cycle(server, store, families, checker,
                                       traced, result, f"cycle{index}"))
            server = None
            _remove_store(store)
            index += 1
            if modes is not None and index >= len(modes):
                break
            if modes is None and time.perf_counter() >= deadline:
                break
    finally:
        if server is not None:
            server.kill()
        if store is not None:
            _remove_store(store)

    measured = cycles[:1] if trace else cycles

    def per_request(rows, key) -> dict[str, float]:
        """Median over the cycles of each request's ``key`` time.

        Nominal-host seconds (see :func:`common.nominal`).
        """
        times: dict[str, list[float]] = {}
        for row in rows:
            if row[key] is not None:
                times.setdefault(row["qid"], []).append(
                    common.nominal(row[key], row["calibration"]))
        return {qid: common.median(v) for qid, v in times.items()}

    streams = [r for c in measured for r in c["streams"]]
    replays = [r for c in measured for r in c["replays"]]
    first = per_request(streams, "first_s")
    exact = per_request(streams, "exact_s")
    hits = per_request(replays, "hit_s")
    first_gm_ms = 1000.0 * common.geomean(first.values())
    exact_gm_s = common.geomean(exact.values())
    hit_gm_ms = 1000.0 * common.geomean(hits.values())
    answer_gm_ms = 1000.0 * common.geomean(
        list(first.values()) + list(hits.values()))
    result.metrics = {
        "setup_s": setups.median(),
        "peak_rss_mb": max(rss for c in measured for rss in c["rss"]),
        "throughput_qps": len(exact) / sum(exact.values()),
        "latency_ms": answer_gm_ms,
        "tail_latency_ms": 1000.0 * exact_gm_s,
    }
    result.named = {
        "first_guarantee_gm_ms": (first_gm_ms, "ms",
                                  f"{len(first)} requests"),
        "exact_gm_s": (exact_gm_s, "s", f"{len(exact)} requests"),
        "restart_hit_gm_ms": (hit_gm_ms, "ms", f"{len(hits)} requests"),
        "cycles": (len(measured), "count", "phases 1-3 on a fresh store"),
        "host_slowness": (host_slowness(
            row["calibration"] for row in streams + replays), "ratio",
            "reference task / nominal"),
        **setups.named(),
    }
    for qid in exact:
        result.rows.append((qid, (
            f"first {1000 * first[qid]:.0f} ms, exact {exact[qid]:.2f} s, "
            f"restart hit {1000 * hits[qid]:.1f} ms") if qid in hits
            else "not replayed"))
    if trace:
        plain, traced = cycles
        total = lambda c: sum(  # noqa: E731
            r["exact_s"] or 0.0 for r in c["streams"]) + sum(
            r["hit_s"] or 0.0 for r in c["replays"])
        agg = spans.merge(*traced["aggs"])
        counters = traced["metrics"][0]
        counters["serve.rejected"] += traced["metrics"][1]["serve.rejected"]
        result.layers = layer_metrics(
            agg, requests=len(traced["streams"]) + len(traced["replays"]),
            wall=0.0, overhead=total(traced) / total(plain) - 1.0,
            client_total=total(traced), counters=counters)
    return result


WORKLOADS = {"cold-optimize": cold_optimize, "serve-hits": serve_hits,
             "recurring-drift": recurring_drift}
