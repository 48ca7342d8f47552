"""Counters for linear-program solving activity.

The third panel of Figure 12 in the paper reports the *number of solved
linear programs*.  To reproduce that measurement faithfully, every LP that
is solved anywhere inside the geometry layer is recorded against an
:class:`LPStats` instance.  Optimizers create one instance per optimization
run and pass it down; code that does not care uses the module-level default
obtained via :func:`default_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LPStats:
    """Mutable record of LP-solver activity.

    Attributes:
        solved: Total number of linear programs handed to a solver.
        infeasible: How many of those were reported infeasible.
        unbounded: How many were reported unbounded.
        feasibility_checks: LPs solved purely to test feasibility.
        optimizations: LPs solved with a non-trivial objective.
        cache_hits: Solves answered from an LP-result memo cache instead of
            a backend (not counted in ``solved`` — the paper's "#solved
            linear programs" metric reports actual solver work).
        seconds: Total wall-clock time spent inside LP backends.
        batch_groups: Same-shape LP groups executed by the stacked
            simplex kernel (:mod:`repro.lp.batch_simplex`).
        batch_solves: LPs answered by the stacked kernel (each is also
            counted in ``solved`` — batching changes *how* an LP is
            pivoted, never whether it counts).
        batch_rounds: Lockstep pivot rounds executed across all groups.
        batch_active_rounds: Total problem-rounds — per round, how many
            problems were still pivoting (occupancy numerator).
        batch_round_slots: ``rounds * group size`` summed over groups
            (occupancy denominator).
        batch_fallbacks: Problems the stacked kernel flagged back to the
            per-problem scalar/scipy path (numerically nasty stragglers).
    """

    solved: int = 0
    infeasible: int = 0
    unbounded: int = 0
    feasibility_checks: int = 0
    optimizations: int = 0
    cache_hits: int = 0
    seconds: float = 0.0
    batch_groups: int = 0
    batch_solves: int = 0
    batch_rounds: int = 0
    batch_active_rounds: int = 0
    batch_round_slots: int = 0
    batch_fallbacks: int = 0
    #: Histogram of the groups the stacked kernel actually executed
    #: (size -> count), maintained by :meth:`record_batch`.  Zero entries
    #: mean the kernel never engaged; see
    #: :meth:`median_stacked_group_size`.
    _stacked_group_sizes: dict[int, int] = field(default_factory=dict)
    _by_purpose: dict[str, int] = field(default_factory=dict)
    _seconds_by_purpose: dict[str, float] = field(default_factory=dict)

    def record(self, *, purpose: str = "generic", feasible: bool = True,
               bounded: bool = True, objective: bool = True,
               seconds: float = 0.0) -> None:
        """Record a solved LP.

        Args:
            purpose: Free-form tag describing why the LP was solved (e.g.
                ``"emptiness"``, ``"redundancy"``, ``"containment"``).
            feasible: Whether the LP was feasible.
            bounded: Whether the LP was bounded in the objective direction.
            objective: ``True`` when a real objective was optimized,
                ``False`` for pure feasibility checks.
            seconds: Wall-clock time the backend spent on this LP.
        """
        self.solved += 1
        if not feasible:
            self.infeasible += 1
        if not bounded:
            self.unbounded += 1
        if objective:
            self.optimizations += 1
        else:
            self.feasibility_checks += 1
        self.seconds += seconds
        self._by_purpose[purpose] = self._by_purpose.get(purpose, 0) + 1
        self._seconds_by_purpose[purpose] = (
            self._seconds_by_purpose.get(purpose, 0.0) + seconds)

    def record_cache_hit(self) -> None:
        """Record a solve answered from the memo cache (no solver work)."""
        self.cache_hits += 1

    def record_batch(self, *, group_size: int, solved: int, rounds: int,
                     active_rounds: int, fallbacks: int) -> None:
        """Record one stacked-simplex group execution.

        Args:
            group_size: Problems stacked into the group.
            solved: Problems the kernel answered (the rest fell back).
            rounds: Lockstep pivot rounds the group executed.
            active_rounds: Problem-rounds actually pivoted (frozen
                problems stop counting once they finish).
            fallbacks: Problems flagged for the scalar fallback.
        """
        self.batch_groups += 1
        self.batch_solves += solved
        self.batch_rounds += rounds
        self.batch_active_rounds += active_rounds
        self.batch_round_slots += rounds * group_size
        self.batch_fallbacks += fallbacks
        self._stacked_group_sizes[group_size] = (
            self._stacked_group_sizes.get(group_size, 0) + 1)

    def stacked_group_size_histogram(self) -> dict[int, int]:
        """Return a copy of the stacked-kernel group-size histogram."""
        return dict(self._stacked_group_sizes)

    @staticmethod
    def _weighted_median(histogram: dict[int, int]) -> float:
        """LP-weighted median of a ``size -> group count`` histogram.

        The median is taken over *LPs*, not over groups: a group of size
        ``s`` contributes ``s`` observations of value ``s``.  This makes
        the metric answer the question that matters for the stacked
        kernel — "how big is the group the typical LP travels in?" —
        instead of letting a swarm of stragglers outvote one wide batch
        that carries most of the actual work.  0.0 when the histogram is
        empty.
        """
        if not histogram:
            return 0.0
        total = sum(size * count for size, count in histogram.items())
        half = total / 2.0
        seen = 0
        sizes = sorted(histogram)
        for position, size in enumerate(sizes):
            seen += size * histogram[size]
            if seen > half:
                return float(size)
            if seen == half and position + 1 < len(sizes):
                return (size + sizes[position + 1]) / 2.0
        return float(sizes[-1])

    def median_stacked_group_size(self) -> float:
        """LP-weighted median size of the groups the stacked kernel ran.

        0.0 when the kernel never engaged.
        """
        return self._weighted_median(self._stacked_group_sizes)

    def add_seconds(self, purpose: str, seconds: float) -> None:
        """Charge backend wall time to a purpose without counting a solve.

        Used to attribute a stacked group's shared wall clock to each
        member's own purpose (the per-group attribution fix): members
        that fall back get their share of the group time here and their
        solve is recorded by the scalar re-solve.
        """
        self.seconds += seconds
        self._seconds_by_purpose[purpose] = (
            self._seconds_by_purpose.get(purpose, 0.0) + seconds)

    def batch_occupancy(self) -> float:
        """Mean fraction of each stacked group still pivoting per round.

        1.0 means every problem pivoted in every round of its group;
        lower values mean finished problems froze while stragglers kept
        going.  0.0 when no stacked group ran.
        """
        if self.batch_round_slots == 0:
            return 0.0
        return self.batch_active_rounds / self.batch_round_slots

    def by_purpose(self) -> dict[str, int]:
        """Return a copy of the per-purpose LP counts."""
        return dict(self._by_purpose)

    def seconds_by_purpose(self) -> dict[str, float]:
        """Return a copy of the per-purpose backend wall-time totals."""
        return dict(self._seconds_by_purpose)

    def reset(self) -> None:
        """Reset all counters to zero."""
        self.solved = 0
        self.infeasible = 0
        self.unbounded = 0
        self.feasibility_checks = 0
        self.optimizations = 0
        self.cache_hits = 0
        self.seconds = 0.0
        self.batch_groups = 0
        self.batch_solves = 0
        self.batch_rounds = 0
        self.batch_active_rounds = 0
        self.batch_round_slots = 0
        self.batch_fallbacks = 0
        self._stacked_group_sizes.clear()
        self._by_purpose.clear()
        self._seconds_by_purpose.clear()

    def merge(self, other: LPStats) -> None:
        """Add the counts of ``other`` into this instance."""
        self.solved += other.solved
        self.infeasible += other.infeasible
        self.unbounded += other.unbounded
        self.feasibility_checks += other.feasibility_checks
        self.optimizations += other.optimizations
        self.cache_hits += other.cache_hits
        self.seconds += other.seconds
        self.batch_groups += other.batch_groups
        self.batch_solves += other.batch_solves
        self.batch_rounds += other.batch_rounds
        self.batch_active_rounds += other.batch_active_rounds
        self.batch_round_slots += other.batch_round_slots
        self.batch_fallbacks += other.batch_fallbacks
        for key, value in other._stacked_group_sizes.items():
            self._stacked_group_sizes[key] = (
                self._stacked_group_sizes.get(key, 0) + value)
        for key, value in other._by_purpose.items():
            self._by_purpose[key] = self._by_purpose.get(key, 0) + value
        for key, value in other._seconds_by_purpose.items():
            self._seconds_by_purpose[key] = (
                self._seconds_by_purpose.get(key, 0.0) + value)


_DEFAULT = LPStats()


def default_stats() -> LPStats:
    """Return the process-wide default :class:`LPStats` instance."""
    return _DEFAULT
