"""Anytime optimization: precision ladders, budgets, progress events.

A serving system rarely wants to block until the *exact* Pareto plan set
is ready — it wants the best guaranteed plan set *now*, refined while
time remains.  This example drives the anytime API three ways:

1. ``session.optimize_iter`` — stream successively tighter plan sets
   over a precision ladder; every ``rung_completed`` event carries a
   plan set valid within its ``(1 + alpha) ** tables`` guarantee.
2. ``session.optimize(precision=..., budget=...)`` — one call, best
   guaranteed result within a cooperative budget (works identically on
   pooled sessions: the worker stops itself, no pool teardown).
3. ``PWLRRPA.start_run`` — the resumable engine without a session:
   pause at any step boundary, resume with more budget, finish exact.
"""

from __future__ import annotations

from repro.api import Budget, OptimizerSession
from repro.cloud import CloudCostModel
from repro.core import PWLRRPA, RUN_EXHAUSTED
from repro.query import QueryGenerator

query = QueryGenerator(seed=5).generate(num_tables=4, shape="chain",
                                        num_params=1)
weights = {"time": 1.0, "fees": 0.4}

print("=== 1. Streaming refinement over a precision ladder ===")
with OptimizerSession("cloud") as session:
    for event in session.optimize_iter(
            query, precision_ladder=[0.5, 0.2, 0.05, 0.0]):
        if event.kind != "rung_completed":
            continue
        plan, cost = event.plan_set.select([0.4], weights)
        print(f"  alpha={event.alpha:<5} guarantee={event.guarantee:6.3f}x"
              f"  plans={event.plan_count:>3}  LPs={event.lps_solved:>6}"
              f"  best-at-0.4: time={cost['time']:.3f}")

print("\n=== 2. Best guaranteed plan set within a budget ===")
# Unbudgeted, this query's ladder completes its rungs after 30, 83, 227
# and 1212 LPs: a 200-LP budget runs out inside the alpha=0.05 rung.
with OptimizerSession("cloud", warm_start=False) as session:
    item = session.optimize(query, precision=0.0,
                            budget=Budget(lps=200))
    print(f"  status={item.status}  achieved alpha={item.alpha}"
          f"  guarantee={item.guarantee:.3f}x"
          f"  plans={len(item.plan_set.entries)}")
    assert item.ok  # "partial" still carries a valid plan set

print("\n=== 3. Resumable run: exhaust, then resume to exact ===")
optimizer = PWLRRPA(
    cost_model_factory=lambda q: CloudCostModel(q, resolution=2))
run = optimizer.start_run(query, precision_ladder=(0.5, 0.2, 0.0))
status = run.run(Budget(steps=5))
print(f"  first call : {status} after {len(run.events)} events, "
      f"completed rungs: {[o.alpha for o in run.completed]}")
assert status == RUN_EXHAUSTED
status = run.run()  # resume with no budget: finish the ladder
result = run.result()
print(f"  second call: {status}, exact plan set of "
      f"{len(result.entries)} plans (alpha={result.achieved_alpha})")
