"""Optimization service: sessions, scenarios, caching.

Public API:

* :class:`OptimizerSession` — the unified front door: persistent worker
  pool, session-scoped caches, ``submit``/``as_completed``/``map``
  submission over named scenarios (see also :mod:`repro.api`).
* :class:`Scenario` / :class:`ScenarioRegistry` /
  :func:`register_scenario` / :func:`get_scenario` /
  :func:`available_scenarios` — the pluggable scenario registry with
  built-in ``"cloud"`` and ``"approx"`` workloads.
* :class:`BatchItem` — outcome of one submitted query.
* :class:`WarmStartCache` — in-memory LRU of serialized Pareto plan
  sets, optionally over a persistent :class:`repro.store.PlanSetStore`.
* :func:`query_signature` / :func:`signature_document` — the cache key:
  a digest of the query's join graph, statistics, scenario and
  cost-model config.
"""

from .cache import WarmStartCache
from .registry import (Scenario, ScenarioRegistry, available_scenarios,
                       default_registry, get_scenario, register_scenario)
from .session import STATUSES, BatchItem, OptimizerSession
from .signature import query_signature, signature_document

__all__ = [
    "STATUSES",
    "BatchItem",
    "OptimizerSession",
    "Scenario",
    "ScenarioRegistry",
    "WarmStartCache",
    "available_scenarios",
    "default_registry",
    "get_scenario",
    "query_signature",
    "register_scenario",
    "signature_document",
]
