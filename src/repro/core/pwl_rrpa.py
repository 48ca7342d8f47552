"""PWL-RRPA: the paper's algorithm for piecewise-linear MPQ (Section 6).

:class:`PWLRRPA` wires the generic RRPA loop to a backend (by default the
PWL backend) and a cost model, producing Pareto plan sets with relevance
mappings for PWL-MPQ problem instances.  It is the optimizer evaluated in
Section 7 / Figure 12.  Callers optimizing under a named scenario go
through :class:`repro.api.OptimizerSession` or
:func:`repro.api.optimize_query`.
"""

from __future__ import annotations

from ..query import Query
from .pwl_backend import PWLBackend, PWLRRPAOptions
from .rrpa import OptimizationResult
from .run import OptimizationRun
from .stats import OptimizerStats


class PWLRRPA:
    """End-to-end PWL-RRPA optimizer.

    Args:
        cost_model_factory: Callable mapping a query to a PWL cost model
            (e.g. ``lambda q: CloudCostModel(q, resolution=2)``); pass a
            ready cost model via :meth:`optimize_with_model` instead if it
            is already built.
        options: Backend tunables (emptiness strategy, refinements).
        backend_factory: Optional backend constructor with the signature
            ``(cost_model, *, options, lp_stats, stats) -> RRPABackend``;
            defaults to :class:`PWLBackend`.  This is the hook the
            scenario registry uses to plug alternative backends into the
            same optimizer loop.
    """

    def __init__(self, cost_model_factory=None,
                 options: PWLRRPAOptions | None = None,
                 backend_factory=None) -> None:
        self.cost_model_factory = cost_model_factory
        self.options = options or PWLRRPAOptions()
        self.backend_factory = backend_factory

    def optimize(self, query: Query) -> OptimizationResult:
        """Optimize a query, building the cost model via the factory."""
        return self.optimize_with_model(query, self._build_model(query))

    def optimize_with_model(self, query: Query,
                            cost_model) -> OptimizationResult:
        """Optimize a query with an explicit cost model instance.

        A thin run-to-completion wrapper over :meth:`start_run_with_model`
        — one rung at ``options.approximation_factor`` (exact by
        default), bit-identical to the pre-anytime engine.
        """
        run = self.start_run_with_model(query, cost_model)
        run.run()
        return run.result()

    def _build_model(self, query: Query):
        if self.cost_model_factory is None:
            raise ValueError("no cost model factory configured")
        return self.cost_model_factory(query)

    def start_run(self, query: Query, *, precision_ladder=None,
                  on_event=None, seed_plans=None) -> OptimizationRun:
        """Create a resumable run, building the cost model via the
        factory (see :meth:`start_run_with_model`)."""
        return self.start_run_with_model(
            query, self._build_model(query),
            precision_ladder=precision_ladder, on_event=on_event,
            seed_plans=seed_plans)

    def start_run_with_model(self, query: Query, cost_model, *,
                             precision_ladder=None,
                             on_event=None,
                             seed_plans=None) -> OptimizationRun:
        """Create a resumable :class:`~repro.core.run.OptimizationRun`.

        The run can be advanced stepwise, bounded by
        :class:`~repro.core.run.Budget` objects, and laddered through
        successively tighter precisions (``precision_ladder``); see
        :mod:`repro.core.run`.  ``precision_ladder=None`` runs a single
        rung at ``options.approximation_factor``.
        """
        stats = OptimizerStats()
        factory = self.backend_factory or PWLBackend
        backend = factory(cost_model, options=self.options,
                          lp_stats=stats.lp_stats, stats=stats)
        return OptimizationRun(backend, query,
                               precision_ladder=precision_ladder,
                               fold_stats=stats, on_event=on_event,
                               seed_plans=seed_plans)
