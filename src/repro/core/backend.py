"""Backend interface for the generic RRPA.

Algorithm 1 of the paper is deliberately generic: "The implementation of
elementary RRPA operations such as adding cost functions and intersecting
RRs depends on the considered class of cost functions" (Section 5).  This
module captures exactly those elementary operations as an abstract base
class; :mod:`repro.core.pwl_backend` implements them for PWL cost functions
(Algorithms 2 and 3) and :mod:`repro.core.grid` for arbitrary cost
functions over a finite parameter grid.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any

from ..plans import JoinOperator, ScanOperator, ScanPlan


class RRPABackend(ABC):
    """Elementary operations RRPA needs, specialized per cost-function class."""

    @abstractmethod
    def scan_operators(self, table: str) -> Sequence[ScanOperator]:
        """Access paths available for a base table."""

    @abstractmethod
    def join_operators(self) -> Sequence[JoinOperator]:
        """Join operators available for combining two sub-plans."""

    @abstractmethod
    def scan_cost(self, plan: ScanPlan) -> Any:
        """Cost object of a scan plan."""

    @abstractmethod
    def join_local_cost(self, left_tables: frozenset[str],
                        right_tables: frozenset[str],
                        operator: JoinOperator) -> Any:
        """Cost object of the join operator itself (``o.w`` / ``o.b``)."""

    @abstractmethod
    def accumulate(self, local_cost: Any, sub_costs: Sequence[Any]) -> Any:
        """``AccumulateCost``: combine operator and sub-plan costs."""

    @abstractmethod
    def full_region(self) -> Any:
        """A fresh relevance region covering the whole parameter space."""

    @abstractmethod
    def dominance(self, cost_a: Any, cost_b: Any) -> Any:
        """``Dom(a, b)``: region where cost ``a`` dominates cost ``b``."""

    def dominance_many(self, costs_a: Sequence[Any], cost_b: Any
                       ) -> list[Any]:
        """``Dom(a_k, b)`` for a batch of costs against one cost.

        The default delegates to pairwise :meth:`dominance`; backends with
        a vectorized batch path (see :class:`repro.core.pwl_backend.
        PWLBackend`) override this.  Results must equal the pairwise ones.
        """
        return [self.dominance(cost_a, cost_b) for cost_a in costs_a]

    def dominance_many_rev(self, cost_a: Any, costs_b: Sequence[Any]
                           ) -> list[Any]:
        """``Dom(a, b_k)`` for one cost against a batch of costs."""
        return [self.dominance(cost_a, cost_b) for cost_b in costs_b]

    @property
    def approximation_factor(self) -> float:
        """Alpha the backend currently prunes with (0 = exact).

        Backends without alpha-dominance support report 0 (their pruning
        is exact by construction).
        """
        return 0.0

    def set_approximation_factor(self, alpha: float) -> None:
        """Switch the backend to alpha-dominance pruning at ``alpha``.

        Required only for multi-rung precision ladders
        (:class:`repro.core.run.OptimizationRun`); backends without
        alpha support simply cannot be laddered.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support precision ladders "
            f"(no alpha-dominance pruning)")

    @abstractmethod
    def reduce_region(self, region: Any, dominated: Any) -> None:
        """Reduce ``region`` by a dominance region, in place."""

    @abstractmethod
    def region_is_empty(self, region: Any) -> bool:
        """Decide whether a relevance region became empty."""

    def regions_empty_many(self, regions: Sequence[Any]) -> list[bool]:
        """:meth:`region_is_empty` for a batch of independent regions.

        Delegates to the per-region check; an override must return the
        sequential loop's results and record the same stats.
        """
        return [self.region_is_empty(region) for region in regions]

    def on_run_start(self) -> None:
        """Hook invoked once per optimization run (cache resets etc.)."""
