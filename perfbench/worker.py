"""Child processes of the benchmark: the optimizing process of each workload.

Three modes, all driven over a line protocol (one JSON object per line
on stdin, one reply per line on stdout; library output goes to the
log file named by ``--log``):

* ``cold`` — optimizes the cold-optimize query set serially, each query
  in its own ``OptimizerSession(workers=0, warm_start=False)``;
* ``server`` — runs the serving gateway (``repro.serve.launch``) until
  told to stop, or until it is killed;
* ``oracle`` — computes the reference digests of a workload on the
  reference path (run it with ``REPRO_SCALAR_KERNELS=1``).

Every mode prints ``{"ready": ...}`` once its set-up is done.  In the
two measuring modes, ``{"cmd": "trace"}`` installs the span recorder,
``{"cmd": "mark", "label": ...}`` closes a trace phase and ``{"cmd":
"dump"}`` returns the recorded phases, peak memory included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_source_tree()


def reply(doc: dict) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


def commands():
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield json.loads(line)


def base_reply(tracer) -> dict:
    return {"rss_mb": common.peak_rss_mb(),
            "phases": tracer.phases if tracer is not None else []}


# ----------------------------------------------------------------------
# cold
# ----------------------------------------------------------------------

def cold_pass(queries, calibration: float) -> tuple[dict, dict, float]:
    """One serial pass over the set.

    A reference task runs after every query; ``calibration`` is the one
    that ran just before the first.  Returns the pass record (per-query
    seconds and the mean of the reference tasks on either side of each
    query), the plan sets, and the last reference task's time.
    """
    from repro.api import OptimizerSession
    seconds, calibrations, outputs = [], [], {}
    for qid, scenario, query in queries:
        started = time.perf_counter()
        with OptimizerSession(scenario, workers=0,
                              warm_start=False) as session:
            item = session.optimize(query)
        seconds.append(time.perf_counter() - started)
        after = common.calibration_seconds()
        calibrations.append(0.5 * (calibration + after))
        calibration = after
        outputs[qid] = (item.status, item.plan_set)
    return ({"seconds": seconds, "calibration": calibrations}, outputs,
            calibration)


def digests_of(outputs: dict) -> dict:
    from repro.api import encode_plan_set
    return {qid: (common.plan_set_digest(encode_plan_set(plan_set))
                  if plan_set is not None else f"status:{status}")
            for qid, (status, plan_set) in outputs.items()}


def run_cold(args) -> None:
    from repro.api import OptimizerSession
    queries = common.workload_queries("cold-optimize", args.seed)
    with OptimizerSession("cloud", workers=0, warm_start=False) as session:
        session.optimize(common.warmup_query())
    common.calibration_seconds()  # first-call costs belong to set-up
    reply({"ready": True})
    tracer = None
    for command in commands():
        if command["cmd"] == "measure":
            if command.get("trace"):
                tracer = tracer or _tracer()
                tracer.install()
            deadline = time.perf_counter() + command["seconds"]
            calibration = common.calibration_seconds()
            passes = []
            while not passes or time.perf_counter() < deadline:
                record, output, calibration = cold_pass(queries,
                                                        calibration)
                if tracer is not None:
                    tracer.mark(command.get("label", "measure"))
                # Digest now, so peak memory does not grow with the
                # number of passes the host's speed allows.
                record["digests"] = digests_of(output)
                if tracer is not None:
                    tracer.mark("digest")
                passes.append(record)
            reply({"passes": passes, "qids": [q[0] for q in queries]})
        elif command["cmd"] == "dump":
            reply(base_reply(tracer))
        elif command["cmd"] == "quit":
            return


def _tracer():
    import spans
    return spans.Tracer()


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------

def run_server(args) -> None:
    from repro.serve import GatewayConfig, launch
    config = GatewayConfig(
        shards=2, shard_workers=0, scenario="cloud",
        tenant_rate=1e6, tenant_burst=1e6, max_pending=4096,
        store_path=args.store)
    handle = launch(config)
    tracer = None
    try:
        reply({"ready": True, "port": handle.port})
        for command in commands():
            cmd = command["cmd"]
            if cmd == "trace":
                tracer = tracer or _tracer()
                tracer.install()
                reply({"ok": True})
            elif cmd == "mark":
                if tracer is not None:
                    tracer.mark(command["label"])
                reply({"ok": True})
            elif cmd == "dump":
                reply(base_reply(tracer))
            elif cmd == "stop":
                handle.drain(timeout=30.0)
                break
    finally:
        handle.close()
    reply({"stopped": True})


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def run_oracle(args) -> None:
    from repro.core import encode_result
    from repro.service.registry import get_scenario
    from repro.bench import PAPER_FAITHFUL
    from repro import config
    if not config.enabled("REPRO_SCALAR_KERNELS"):
        raise SystemExit("oracle mode needs REPRO_SCALAR_KERNELS=1")
    digests = {}
    for qid, scenario, query in common.workload_queries(args.workload,
                                                        args.seed):
        result = get_scenario(scenario).optimize(
            query, resolution=2, options=PAPER_FAITHFUL)
        digests[qid] = common.plan_set_digest(encode_result(result))
    reply({"ready": True, "digests": digests})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("cold", "server", "oracle"))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--store", default=None)
    parser.add_argument("--log", default=os.devnull)
    args = parser.parse_args()
    # Keep the reply channel clean: everything else goes to the log.
    log = open(args.log, "a", encoding="utf-8")
    sys.stdout = log
    sys.stderr = log
    os.dup2(log.fileno(), 2)
    {"cold": run_cold, "server": run_server,
     "oracle": run_oracle}[args.mode](args)


if __name__ == "__main__":
    main()
