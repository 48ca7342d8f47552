"""Linear-programming substrate: solvers and LP accounting.

Public API:

* :class:`LinearProgramSolver` / :func:`make_solver` — LP facade with
  pluggable backends (scipy HiGHS or the built-in simplex); its
  :meth:`~LinearProgramSolver.solve_many` solves a batch of independent
  LPs with memo-backed in-batch deduplication and routes same-shape
  groups through the stacked-tableau batch simplex (the entry point of
  the batched geometry kernels).
* :func:`solve_simplex_batch` / :func:`standard_form` — the stacked
  kernel itself: same-shape LPs pivoted in lockstep 3-D NumPy tableaus,
  bit-identical to the scalar simplex (see :mod:`repro.lp.batch_simplex`).
* :func:`stack_prekey` — the conversion-free grouping key of
  ``solve_many``'s miss groups.
* :class:`LPResult` — solve outcome.
* :class:`LPResultCache` — bounded LRU memo over canonicalized LP inputs.
* :func:`install_shared_lp_cache` / :func:`shared_lp_cache` — process-wide
  session memo injection (used by :class:`repro.api.OptimizerSession` so
  LP results are shared across runs and shipped to pool workers).
* :class:`LPStats` / :func:`default_stats` — counters used to reproduce the
  "#solved linear programs" measurements of Figure 12.
* :func:`solve_simplex` — the dependency-free simplex used as fallback and
  as a testing oracle.
"""

from .batch_simplex import (BatchReport, StandardForm, solve_simplex_batch,
                            standard_form)
from .counters import LPStats, default_stats
from .simplex import SimplexResult, solve_simplex
from .solver import (LinearProgramSolver, LPResult, LPResultCache,
                     install_shared_lp_cache, make_solver, shared_lp_cache,
                     stack_prekey)

__all__ = [
    "BatchReport",
    "LPResult",
    "LPResultCache",
    "LPStats",
    "LinearProgramSolver",
    "SimplexResult",
    "StandardForm",
    "default_stats",
    "install_shared_lp_cache",
    "make_solver",
    "shared_lp_cache",
    "solve_simplex",
    "solve_simplex_batch",
    "stack_prekey",
    "standard_form",
]
