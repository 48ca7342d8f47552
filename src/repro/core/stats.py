"""Per-run optimizer statistics.

Figure 12 of the paper reports three quantities per optimization run:
optimization time, the number of *generated* plans ("including partial
plans and plans that were pruned during optimization"), and the number of
solved linear programs.  :class:`OptimizerStats` collects all three plus
finer-grained pruning counters used by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lp import LPStats


@dataclass
class OptimizerStats:
    """Counters for one optimization run.

    Attributes:
        plans_created: Tentative plans generated (Figure 12's "#Created
            plans": every plan handed to the pruning procedure).
        plans_inserted: Plans that survived pruning and were inserted.
        plans_discarded_new: New plans discarded because their relevance
            region became empty during pruning.
        plans_displaced_old: Previously inserted plans discarded after a
            new plan emptied their relevance region.
        pruning_comparisons: Pairwise plan cost comparisons performed.
        emptiness_checks: Relevance-region emptiness checks executed
            (excludes checks skipped thanks to relevance points).
        emptiness_checks_skipped: Checks avoided by the relevance-point
            refinement.
        optimization_seconds: Wall-clock optimization time.
        lp_stats: LP counters (Figure 12's "#Linear programs" is
            ``lp_stats.solved``).
    """

    plans_created: int = 0
    plans_inserted: int = 0
    plans_discarded_new: int = 0
    plans_displaced_old: int = 0
    pruning_comparisons: int = 0
    emptiness_checks: int = 0
    emptiness_checks_skipped: int = 0
    optimization_seconds: float = 0.0
    lp_stats: LPStats = field(default_factory=LPStats)

    @property
    def lps_solved(self) -> int:
        """Number of linear programs solved during the run."""
        return self.lp_stats.solved

    @property
    def lp_seconds(self) -> float:
        """Wall-clock time spent inside LP backends during the run."""
        return self.lp_stats.seconds

    @property
    def emptiness_lp_seconds(self) -> float:
        """LP wall time attributable to region emptiness maintenance.

        Sums the ``"emptiness"`` (feasibility) and ``"chebyshev"``
        (interior-fullness) purposes — the two LP families the
        region-difference emptiness checks consist of, and the cost
        center the batched geometry kernels target.
        """
        by_purpose = self.lp_stats.seconds_by_purpose()
        return (by_purpose.get("emptiness", 0.0)
                + by_purpose.get("chebyshev", 0.0))

    @property
    def batch_lp_rounds(self) -> int:
        """Lockstep pivot rounds executed by the stacked simplex kernel."""
        return self.lp_stats.batch_rounds

    @property
    def batch_lp_solves(self) -> int:
        """LPs answered by the stacked kernel (subset of ``lps_solved``)."""
        return self.lp_stats.batch_solves

    @property
    def batch_lp_fallbacks(self) -> int:
        """Stacked-kernel stragglers re-solved on the scalar path."""
        return self.lp_stats.batch_fallbacks

    @property
    def batch_lp_occupancy(self) -> float:
        """Mean fraction of each stacked group still pivoting per round."""
        return self.lp_stats.batch_occupancy()

    @property
    def lp_median_stacked_group_size(self) -> float:
        """LP-weighted median size of the stacked kernel's groups."""
        return self.lp_stats.median_stacked_group_size()

    def summary(self) -> dict[str, float]:
        """Return the headline numbers as a plain dict (for reporting)."""
        return {
            "plans_created": self.plans_created,
            "plans_inserted": self.plans_inserted,
            "plans_discarded_new": self.plans_discarded_new,
            "plans_displaced_old": self.plans_displaced_old,
            "pruning_comparisons": self.pruning_comparisons,
            "emptiness_checks": self.emptiness_checks,
            "emptiness_checks_skipped": self.emptiness_checks_skipped,
            "lps_solved": self.lps_solved,
            "lp_cache_hits": self.lp_stats.cache_hits,
            "lp_seconds": self.lp_seconds,
            "emptiness_lp_seconds": self.emptiness_lp_seconds,
            "batch_lp_rounds": self.batch_lp_rounds,
            "batch_lp_solves": self.batch_lp_solves,
            "batch_lp_fallbacks": self.batch_lp_fallbacks,
            "batch_lp_occupancy": self.batch_lp_occupancy,
            "lp_median_stacked_group_size": self.lp_median_stacked_group_size,
            "optimization_seconds": self.optimization_seconds,
        }
