"""Linear-program solving with pluggable backends and LP accounting.

All geometric predicates in :mod:`repro.geometry` (emptiness, containment,
redundancy, Chebyshev centers) reduce to linear programs.  They route every
solve through :class:`LinearProgramSolver` so the number of solved LPs can
be reported per optimization run — one of the three quantities plotted in
Figure 12 of the paper.

Two backends are available:

* ``"scipy"`` — :func:`scipy.optimize.linprog` with the HiGHS method
  (default when scipy is importable).
* ``"simplex"`` — the pure-Python two-phase simplex from
  :mod:`repro.lp.simplex`, used as fallback and as testing oracle.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..errors import SolverError
from ..faults import failpoint
from ..util import BoundedLRU, scalar_kernels_enabled
from .batch_simplex import is_stackable, solve_simplex_batch, standard_form
from .counters import LPStats, default_stats
from .simplex import solve_simplex

try:  # pragma: no cover - exercised implicitly on import
    from scipy.optimize import linprog as _scipy_linprog
    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _scipy_linprog = None
    _HAVE_SCIPY = False

#: Smallest same-shape miss group routed through the stacked simplex.
#: Below this size the lockstep kernel's per-round NumPy dispatch
#: overhead outweighs what it amortizes over the batch (measured
#: crossover ~8 on this workload's tiny LPs; see
#: ``benchmarks/bench_lp_kernels.py``), so smaller groups keep the
#: per-problem scalar path.
MIN_STACK_GROUP = 8


def stack_prekey(c: np.ndarray, a_ub: np.ndarray | None, bounds) -> tuple:
    """Conversion-free stacking pre-key of one prepared LP.

    Groups problems by ``(n_vars, n_constraints, bounds finiteness
    pattern)`` — a cheap over-approximation of the exact stacking
    signature (which additionally splits by artificial-column count and
    requires a standard-form conversion to compute).  Two LPs with equal
    pre-keys *may* stack; two with different pre-keys never do.  Used by
    :meth:`LinearProgramSolver.solve_many`'s miss grouping.
    """
    pattern = tuple(
        (lo is not None and math.isfinite(lo),
         hi is not None and math.isfinite(hi))
        for lo, hi in bounds)
    return (c.shape[0], a_ub.shape[0] if a_ub is not None else 0, pattern)


@dataclass(frozen=True)
class LPResult:
    """Outcome of one linear program.

    Attributes:
        status: ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
        x: Optimizing point (``None`` unless optimal).
        objective: Objective value at ``x`` (``None`` unless optimal).
    """

    status: str
    x: np.ndarray | None
    objective: float | None

    @property
    def is_optimal(self) -> bool:
        """``True`` when the LP was solved to optimality."""
        return self.status == "optimal"

    @property
    def is_infeasible(self) -> bool:
        """``True`` when the LP was infeasible."""
        return self.status == "infeasible"


class LPResultCache:
    """Bounded LRU memo of :class:`LPResult` keyed by canonicalized inputs.

    The pruning loops of RRPA solve the *same* tiny LPs over and over:
    identical dominance polytopes arise whenever the same pair of cost
    functions is compared while pruning different table sets.  Keys
    canonicalize the constraint set by sorting rows of ``[A_ub | b_ub]``,
    so two constraint orderings describing the same feasible set share one
    entry.  This is sound for every predicate built on top of the solver
    (feasibility, objective optima and minimizers do not depend on
    constraint order).

    Access is lock-protected: an optimizer session merges worker memo
    deltas from its pool's collector thread while the main thread keeps
    solving (serial runs) or exporting (pool spawns).

    Args:
        maxsize: Maximum number of cached results (LRU eviction).
        track_delta: Record the keys of fresh inserts so
            :meth:`drain_delta` can ship *only what this process learned*
            back to a parent session (pool workers enable this; see
            :mod:`repro.service.session`).
    """

    def __init__(self, maxsize: int = 4096,
                 track_delta: bool = False) -> None:
        self.maxsize = maxsize
        self._data = BoundedLRU(maxsize)
        self._lock = threading.Lock()
        #: Ordered set of keys inserted since the last drain (insertion
        #: order == recency for fresh keys); ``None`` disables tracking.
        self._delta: dict | None = {} if track_delta else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @staticmethod
    def make_key(c: np.ndarray, a_ub: np.ndarray | None,
                 b_ub: np.ndarray | None, bounds) -> tuple:
        """Canonical hashable key for one LP instance."""
        if a_ub is None:
            rows_key = b""
        else:
            rows = np.hstack([a_ub, b_ub[:, None]])
            order = np.lexsort(rows.T[::-1])
            rows_key = rows[order].tobytes()
        return (c.shape[0], c.tobytes(), rows_key, tuple(map(tuple, bounds)))

    def get(self, key: tuple) -> LPResult | None:
        """Look up a cached result, refreshing its LRU position.

        Hit accounting lives in :class:`LPStats` (``cache_hits``), the
        single source the optimizer statistics report.
        """
        with self._lock:
            return self._data.get(key)

    def put(self, key: tuple, result: LPResult) -> None:
        """Store a result, evicting the least recently used on overflow."""
        with self._lock:
            if self._delta is not None and key not in self._data:
                self._delta[key] = None
            self._data.put(key, result)

    def export(self, limit: int | None = None) -> list[tuple]:
        """Snapshot of ``(key, result)`` pairs for shipping across processes.

        Most recently used entries are kept when ``limit`` truncates the
        snapshot.  Keys are tuples of primitives and results hold plain
        numpy arrays, so the export pickles cheaply (the optimizer-session
        pool seeds its workers with one at spawn time).
        """
        with self._lock:
            entries = self._data.items()
        if limit is not None and len(entries) > limit:
            entries = entries[-limit:]
        return entries

    def merge(self, entries) -> int:
        """Adopt exported ``(key, result)`` pairs into this cache.

        Merged entries are *not* recorded as deltas — they are somebody
        else's learning (the spawn seed in a worker, a worker delta in
        the parent), and re-shipping them would echo entries back and
        forth.  Returns the number of entries that were new to this
        cache.
        """
        fresh = 0
        with self._lock:
            for key, result in entries:
                if key not in self._data:
                    fresh += 1
                self._data.put(key, result)
        return fresh

    def drain_delta(self, limit: int | None = None) -> list[tuple]:
        """Return (and forget) the entries inserted since the last drain.

        Only caches constructed with ``track_delta=True`` record deltas;
        others return an empty list.  Entries evicted between insert and
        drain are skipped.  ``limit`` keeps the most recent inserts.
        """
        if self._delta is None:
            return []
        with self._lock:
            keys = list(self._delta)
            self._delta.clear()
            if limit is not None and len(keys) > limit:
                keys = keys[-limit:]
            return [(key, self._data.get(key)) for key in keys
                    if key in self._data]


#: Process-wide session LP memo; see :func:`install_shared_lp_cache`.
_SHARED_CACHE: LPResultCache | None = None


def install_shared_lp_cache(cache: LPResultCache | None
                            ) -> LPResultCache | None:
    """Install (or clear, with ``None``) the process-wide session LP memo.

    While a shared cache is installed, every
    :class:`LinearProgramSolver` created with a positive ``cache_size``
    memoizes into it instead of a private per-run cache, so identical LPs
    arising in *different* optimization runs hit.  :class:`repro.api
    .OptimizerSession` installs its session memo around serial runs and
    inside pool workers; solvers created with ``cache_size=0`` (the
    paper-faithful configuration) stay unmemoized either way.

    Returns:
        The previously installed cache, so callers can restore it.
    """
    global _SHARED_CACHE
    previous = _SHARED_CACHE
    _SHARED_CACHE = cache
    return previous


def shared_lp_cache() -> LPResultCache | None:
    """The currently installed process-wide session LP memo, if any."""
    return _SHARED_CACHE


class LinearProgramSolver:
    """Facade over LP backends that records every solve in an :class:`LPStats`.

    Args:
        stats: Counter object to charge solves against.  Defaults to the
            process-wide counter from :func:`repro.lp.counters.default_stats`.
        backend: ``"scipy"``, ``"simplex"`` or ``"auto"`` (scipy when
            available, simplex otherwise).
        cache_size: Size of the LP-result memo cache; ``0`` (the default)
            disables memoization so counters reflect every solve.
        cache: Explicit memo cache to use, overriding both ``cache_size``
            and any installed shared cache (see
            :func:`install_shared_lp_cache`).
    """

    def __init__(self, stats: LPStats | None = None,
                 backend: str = "auto", cache_size: int = 0,
                 cache: LPResultCache | None = None) -> None:
        if backend == "auto":
            # The LPs arising in PWL-RRPA are tiny (a handful of variables,
            # dozens of constraints); the dependency-free simplex beats
            # scipy's per-call overhead by ~6x there.  scipy remains the
            # fallback for anything the simplex cannot handle.
            backend = "hybrid" if _HAVE_SCIPY else "simplex"
        if backend not in ("scipy", "simplex", "hybrid"):
            raise ValueError(f"unknown LP backend: {backend!r}")
        if backend in ("scipy", "hybrid") and not _HAVE_SCIPY:
            raise SolverError("scipy backend requested but scipy is missing")
        self.backend = backend
        self.stats = stats if stats is not None else default_stats()
        if cache is not None:
            self.cache = cache
        elif cache_size > 0:
            # Memoization requested: prefer the session-scoped shared memo
            # when one is installed so hits survive across runs.
            self.cache = (_SHARED_CACHE if _SHARED_CACHE is not None
                          else LPResultCache(cache_size))
        else:
            self.cache = None

    def solve(self, c, a_ub=None, b_ub=None, bounds=None, *,
              purpose: str = "generic") -> LPResult:
        """Solve ``min c@x  s.t.  a_ub@x <= b_ub`` with optional variable bounds.

        Args:
            c: Objective coefficient vector.
            a_ub: Inequality constraint matrix (may be ``None`` / empty).
            b_ub: Inequality right-hand side vector.
            bounds: Per-variable ``(lo, hi)`` bounds; defaults to free
                variables, matching the geometry layer's convention (the
                parameter-space box is expressed as explicit constraints).
            purpose: Tag recorded in the LP statistics.

        Returns:
            An :class:`LPResult`.

        Raises:
            SolverError: If the backend fails in an unexpected way.
        """
        failpoint("lp.solver.fail")  # inert without a REPRO_FAULTS schedule
        c, a_ub, b_ub, bounds = self._prepare(c, a_ub, b_ub, bounds)

        key = None
        if self.cache is not None:
            key = LPResultCache.make_key(c, a_ub, b_ub, bounds)
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.record_cache_hit()
                return cached

        result = self._solve_prepared(c, a_ub, b_ub, bounds,
                                      purpose=purpose)
        if key is not None:
            self.cache.put(key, result)
        return result

    def solve_many(self, problems: Sequence[tuple], *,
                   purpose: str | Sequence[str] = "generic"
                   ) -> list[LPResult]:
        """Solve a batch of independent LPs.

        The batched entry point of the geometry kernels.  Semantically
        (results *and* accounting) it equals calling :meth:`solve` per
        problem: every backend solve is recorded, every memoized answer
        is a cache hit, and answers are bit-identical to the per-problem
        path.  The batch form buys two things: memo-backed deduplication
        (results solved earlier in the same batch answer later
        duplicates) and — for the ``simplex``/``hybrid`` backends — the
        stacked-tableau kernel of :mod:`repro.lp.batch_simplex`, which
        groups the post-dedupe miss set by canonical standard-form shape
        and pivots each group in lockstep NumPy rounds instead of one LP
        at a time.  Stragglers the kernel flags (singular bases,
        iteration overflow) fall back to the per-problem path, so
        results match today's answers exactly.  ``REPRO_SCALAR_KERNELS=1``
        disables the stacked kernel entirely.

        Args:
            problems: Sequence of ``(c, a_ub, b_ub, bounds)`` tuples, each
                accepted exactly as by :meth:`solve`.
            purpose: Tag recorded in the LP statistics — one string for
                the whole batch, or one per problem.  Per-problem tags
                keep the per-purpose wall-time attribution exact when one
                stacked shape group spans several purposes: each member
                is charged its own share of the group's wall clock.

        Returns:
            One :class:`LPResult` per problem, in input order.
        """
        count = len(problems)
        if isinstance(purpose, str):
            purposes = [purpose] * count
        else:
            purposes = [str(tag) for tag in purpose]
            if len(purposes) != count:
                raise SolverError(
                    "one purpose per problem required "
                    f"({len(purposes)} purposes for {count} problems)")
        results: list[LPResult | None] = [None] * count
        prepared: list[tuple] = [None] * count
        keys: list[tuple | None] = [None] * count
        misses: list[int] = []
        pending: dict[tuple, int] = {}
        duplicates: list[int] = []
        for index, problem in enumerate(problems):
            prepared[index] = self._prepare(*problem)
            if self.cache is not None:
                key = LPResultCache.make_key(*prepared[index])
                keys[index] = key
                cached = self.cache.get(key)
                if cached is not None:
                    self.stats.record_cache_hit()
                    results[index] = cached
                    continue
                if key in pending:
                    # The sequential path would have solved the earlier
                    # twin before reaching this lookup, making this a
                    # memo hit — preserve that accounting exactly.
                    duplicates.append(index)
                    continue
                pending[key] = index
            misses.append(index)
        pregroups: dict[tuple, list[int]] = {}
        for index in misses:
            c, a_ub, __, bounds = prepared[index]
            pregroups.setdefault(stack_prekey(c, a_ub, bounds),
                                 []).append(index)
        remaining = misses
        if (len(misses) >= MIN_STACK_GROUP
                and self.backend in ("simplex", "hybrid")
                and not scalar_kernels_enabled()):
            remaining = self._solve_misses_stacked(
                pregroups, prepared, keys, purposes, results)
        for index in remaining:
            result = self._solve_prepared(*prepared[index],
                                          purpose=purposes[index])
            if keys[index] is not None:
                self.cache.put(keys[index], result)
            results[index] = result
        for index in duplicates:
            cached = self.cache.get(keys[index])
            if cached is None:  # pragma: no cover - evicted in between
                cached = self._solve_prepared(*prepared[index],
                                              purpose=purposes[index])
                self.cache.put(keys[index], cached)
            else:
                self.stats.record_cache_hit()
            results[index] = cached
        return results

    def _solve_misses_stacked(self, pregroups: dict[tuple, list[int]],
                              prepared: list, keys: list,
                              purposes: list[str],
                              results: list) -> list[int]:
        """Route same-shape miss groups through the stacked kernel.

        Takes the miss set already grouped by conversion-free stacking
        pre-key (see :func:`stack_prekey`) and runs every group of
        :data:`MIN_STACK_GROUP` or more through
        :func:`repro.lp.batch_simplex.solve_simplex_batch`, recording
        each answered problem exactly as the per-problem path would
        (same ``solved``/purpose counters; the group's wall clock is
        split over members proportionally to the pivot rounds each was
        active, attributed to each member's own purpose).  Returns the
        indices still unsolved — members of too-small groups,
        unstackable shapes and flagged stragglers — for the per-problem
        path.  Grouping happens in two stages so small groups never pay
        a standard-form conversion they cannot use: the pre-key first,
        then the exact stacking signature (which additionally splits by
        artificial-column count) within large-enough pre-groups; the
        conversion time of members that still end up unstacked is
        charged to their purpose as plain wall time.
        """
        leftover: list[int] = []
        forms: dict[int, object] = {}
        groups: dict[tuple, list[int]] = {}
        for premembers in pregroups.values():
            if len(premembers) < MIN_STACK_GROUP:
                leftover.extend(premembers)
                continue
            for index in premembers:
                form = standard_form(*prepared[index])
                if not is_stackable(form.signature):
                    self.stats.add_seconds(purposes[index], form.seconds)
                    leftover.append(index)
                    continue
                forms[index] = form
                groups.setdefault(form.signature, []).append(index)
        for members in groups.values():
            if len(members) < MIN_STACK_GROUP:
                for index in members:
                    # The conversion could not be used; its wall time
                    # was still spent on this purpose.
                    self.stats.add_seconds(purposes[index],
                                           forms[index].seconds)
                leftover.extend(members)
                continue
            report = solve_simplex_batch([forms[i] for i in members])
            solved = [(i, res) for i, res in zip(members, report.results)
                      if res is not None]
            fallbacks = [i for i, res in zip(members, report.results)
                         if res is None]
            self.stats.record_batch(
                group_size=len(members), solved=len(solved),
                rounds=report.rounds,
                active_rounds=report.active_rounds,
                fallbacks=len(fallbacks))
            total_rounds = max(int(report.problem_rounds.sum()), 1)
            for position, index in enumerate(members):
                share = (report.seconds * int(report.problem_rounds[
                    position]) / total_rounds) + forms[index].seconds
                res = report.results[position]
                if res is None:
                    # The straggler's solve is recorded by the scalar
                    # re-solve; charge only its share of the group time.
                    self.stats.add_seconds(purposes[index], share)
                    continue
                c = prepared[index][0]
                self.stats.record(
                    purpose=purposes[index],
                    feasible=res.status != "infeasible",
                    bounded=res.status != "unbounded",
                    objective=bool(np.any(c != 0.0)),
                    seconds=share)
                result = LPResult(res.status, res.x, res.objective)
                if keys[index] is not None:
                    self.cache.put(keys[index], result)
                results[index] = result
            leftover.extend(fallbacks)
        leftover.sort()
        return leftover

    def _prepare(self, c, a_ub, b_ub, bounds) -> tuple:
        """Normalize one LP's inputs to canonical arrays (shared by
        :meth:`solve` and :meth:`solve_many`)."""
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        if bounds is None:
            bounds = [(None, None)] * n
        if a_ub is not None and len(a_ub) > 0:
            a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
            b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
            if a_ub.shape[0] != b_ub.shape[0]:
                raise SolverError("A_ub and b_ub row counts differ")
        else:
            a_ub, b_ub = None, None
        return c, a_ub, b_ub, bounds

    def _solve_prepared(self, c, a_ub, b_ub, bounds, *,
                        purpose: str) -> LPResult:
        """Run the backend on prepared inputs and record the solve."""
        started = time.perf_counter()
        if self.backend == "scipy":
            result = self._solve_scipy(c, a_ub, b_ub, bounds)
        elif self.backend == "simplex":
            result = self._solve_simplex(c, a_ub, b_ub, bounds)
        else:  # hybrid: fast simplex first, scipy on failure
            try:
                result = self._solve_simplex(c, a_ub, b_ub, bounds)
            except SolverError:
                result = self._solve_scipy(c, a_ub, b_ub, bounds)
        self.stats.record(purpose=purpose,
                          feasible=not result.is_infeasible,
                          bounded=result.status != "unbounded",
                          objective=bool(np.any(c != 0.0)),
                          seconds=time.perf_counter() - started)
        return result

    def feasible(self, a_ub, b_ub, bounds=None, *,
                 purpose: str = "feasibility") -> bool:
        """Return whether ``{x : a_ub@x <= b_ub}`` (within bounds) is non-empty."""
        n = np.asarray(a_ub, dtype=float).reshape(
            -1, len(a_ub[0]) if len(a_ub) else 0).shape[1] if len(a_ub) else 0
        if n == 0:
            return True
        result = self.solve(np.zeros(n), a_ub, b_ub, bounds, purpose=purpose)
        return result.is_optimal

    def _solve_scipy(self, c, a_ub, b_ub, bounds) -> LPResult:
        res = _scipy_linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                             method="highs")
        if res.status == 0:
            return LPResult("optimal", np.asarray(res.x, dtype=float),
                            float(res.fun))
        if res.status == 2:
            return LPResult("infeasible", None, None)
        if res.status == 3:
            return LPResult("unbounded", None, None)
        raise SolverError(f"scipy linprog failed: {res.message}")

    def _solve_simplex(self, c, a_ub, b_ub, bounds) -> LPResult:
        res = solve_simplex(c, a_ub, b_ub, bounds)
        return LPResult(res.status, res.x, res.objective)
