"""Set difference of convex polytopes.

The difference ``P \\ Q`` of two convex polytopes is generally non-convex,
but it decomposes into at most ``len(Q.constraints)`` convex pieces: for the
``i``-th constraint ``a_i @ x <= b_i`` of ``Q``, one piece keeps the points
of ``P`` that violate constraint ``i`` while satisfying constraints
``0..i-1``.  This sequential-complement decomposition is the standard
region-difference construction used in parametric programming and is the
workhorse behind relevance-region emptiness checks (Algorithm 2 of the
paper): a relevance region is empty exactly when subtracting all cutouts
from the parameter space leaves nothing (up to measure zero).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..lp import LinearProgramSolver
from ..util import scalar_kernels_enabled
from .batchops import emptiness_many, has_interior_many
from .constraints import normalize_halfspace
from .polytope import INTERIOR_EPS, ConvexPolytope, row_keys

#: Radius a ball certificate must exceed before it stands in for an
#: interior LP: ten times :data:`INTERIOR_EPS`, so a ball that an LP
#: reported within its row tolerance still clears the interior threshold.
CERT_RADIUS = 10 * INTERIOR_EPS

#: One-row block ``(A, b, keys)`` ready for :meth:`ConvexPolytope.with_rows`.
RowBlock = tuple[np.ndarray, np.ndarray, list[bytes]]


def _cut_halves(cut: ConvexPolytope) -> list[tuple[RowBlock, RowBlock]]:
    """Per row of ``cut``: that row and its closed complement, as blocks.

    The complement of ``a @ x <= b`` is ``-a @ x <= -b``, normalized as
    :meth:`LinearConstraint.negation` normalizes it, so the pieces built
    from it are bit-identical to pieces built from constraint objects.
    """
    negated = [normalize_halfspace(-row, -rhs)
               for row, rhs in zip(cut._a, cut._b.tolist())]
    neg_a = np.array([row for row, __ in negated]).reshape(cut._a.shape)
    neg_b = np.array([rhs for __, rhs in negated], dtype=float)
    neg_keys = row_keys(neg_a, neg_b)
    halves = []
    for k in range(cut.num_constraints):
        rows = slice(k, k + 1)
        halves.append(((cut._a[rows], cut._b[rows], cut._keys[rows]),
                       (neg_a[rows], neg_b[rows], neg_keys[rows])))
    return halves


def subtract_polytope(base: ConvexPolytope, cut: ConvexPolytope,
                      solver: LinearProgramSolver,
                      interior_eps: float = INTERIOR_EPS
                      ) -> list[ConvexPolytope]:
    """Return full-dimensional convex pieces covering ``base \\ cut``.

    The pieces returned use *closed* complements of the cut constraints, so
    they may overlap ``cut`` on measure-zero boundary sets; pieces whose
    Chebyshev radius is below ``interior_eps`` are dropped.  Consequently
    the result is exact up to lower-dimensional sets, which is the
    tolerance contract documented in DESIGN.md.

    Args:
        base: The polytope to subtract from.
        cut: The polytope to remove.
        solver: LP solver used for emptiness/interior checks.
        interior_eps: Minimum Chebyshev radius for a piece to be kept.

    Returns:
        A list of disjoint-interior convex polytopes whose union equals
        ``base \\ cut`` up to measure zero.  Empty list when ``cut``
        covers ``base``.
    """
    if cut.dim != base.dim:
        raise ValueError("dimension mismatch in polytope subtraction")
    if base.is_empty(solver):
        return []
    if not cut.num_constraints:
        # Subtracting the universe leaves nothing.
        return []
    # Fast path: a cut that misses the base entirely (no interior overlap)
    # leaves the base unchanged — avoids fragmenting the base into pieces
    # that would immediately be reassembled.
    if not base.intersect(cut).has_interior(solver, eps=interior_eps):
        return [base]
    pieces: list[ConvexPolytope] = []
    prefix = base
    for row, negation in _cut_halves(cut):
        piece = prefix.with_rows(*negation)
        if piece.has_interior(solver, eps=interior_eps):
            pieces.append(piece)
        prefix = prefix.with_rows(*row)
        if prefix.is_empty(solver):
            break
    return pieces


def _ball_certificates(base: ConvexPolytope, cut: ConvexPolytope
                       ) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Balls around ``base``'s known center that fit the subtraction.

    With ``(center, r)`` the base's known ball and
    ``s = cut._b - cut._a @ center`` the signed distances from the center
    to the (unit-normal) cut rows, the overlap ``base ∩ cut`` contains the
    ball of radius ``min(r, s.min())`` and candidate piece ``k`` (cut rows
    ``0..k-1`` and the complement of row ``k``) the ball of radius
    ``min(r, s[0..k-1], -s[k])``.  Returns ``(center, overlap radius,
    piece radii)``, or ``None`` when the base knows no ball.
    """
    ball = base.known_ball()
    if ball is None:
        return None
    center, radius = ball
    slack = cut._b - cut._a @ center
    shrunk = np.minimum.accumulate(np.concatenate(([radius], slack[:-1])))
    return center, min(radius, slack.min()), np.minimum(shrunk, -slack)


def subtract_polytope_many(bases: Sequence[ConvexPolytope],
                           cut: ConvexPolytope,
                           solver: LinearProgramSolver,
                           interior_eps: float = INTERIOR_EPS
                           ) -> list[list[ConvexPolytope]]:
    """Subtract one cut from many base polytopes with batched LPs.

    Produces, for every base, exactly the piece list
    :func:`subtract_polytope` would return, but assembles the underlying
    LPs into three batched passes instead of interleaving them per base:

    1. base emptiness (usually answered from the per-polytope cache or
       a known inscribed ball),
    2. the overlap fast path — one interior check per surviving base,
    3. one interior check per candidate piece of every clipped base.

    Passes 2 and 3 first try a ball certificate: when the base knows an
    inscribed ball (:meth:`ConvexPolytope.known_ball`), the balls of
    :func:`_ball_certificates` whose radius exceeds :data:`CERT_RADIUS`
    prove an interior without an LP, and a certified piece keeps its
    ball as ``_ball``.

    The scalar loop additionally solves a *prefix emptiness* LP after each
    cut constraint purely to break out early; the batched form decides
    every candidate piece directly, so those LPs disappear entirely
    (pieces past a scalar early-exit lie inside an empty prefix and are
    dropped by their own interior check, leaving the results identical).
    With ``REPRO_SCALAR_KERNELS=1`` the scalar, LP-decided path runs
    instead.
    """
    if scalar_kernels_enabled():
        return [subtract_polytope(base, cut, solver,
                                  interior_eps=interior_eps)
                for base in bases]
    for base in bases:
        if cut.dim != base.dim:
            raise ValueError("dimension mismatch in polytope subtraction")
    # A certificate clears the caller's interior threshold with the same
    # margin CERT_RADIUS keeps over INTERIOR_EPS.
    cert = max(CERT_RADIUS, 10 * interior_eps)
    results: list[list[ConvexPolytope] | None] = [None] * len(bases)
    empty = emptiness_many(bases, solver)
    live: list[int] = []
    for i in range(len(bases)):
        if empty[i]:
            results[i] = []
        elif not cut.num_constraints:
            # Subtracting the universe leaves nothing.
            results[i] = []
        else:
            live.append(i)
    # Fast path: cuts that miss a base entirely leave it unchanged.  A
    # certified overlap needs no LP: the base is clipped.
    balls = {i: _ball_certificates(bases[i], cut) for i in live}
    undecided = [i for i in live
                 if balls[i] is None or balls[i][1] <= cert]
    overlap_interior = dict(zip(undecided, has_interior_many(
        [bases[i].intersect(cut) for i in undecided], solver,
        eps=interior_eps)))
    clipped: list[int] = []
    for i in live:
        if overlap_interior.get(i, True):
            clipped.append(i)
        else:
            results[i] = [bases[i]]
    # Candidate pieces of every clipped base, in the scalar path's order:
    # piece_k keeps the points violating cut constraint k while satisfying
    # constraints 0..k-1.  Construction is LP-free; ball certificates and
    # one batched interior pass decide which candidates survive.
    candidates: list[ConvexPolytope] = []
    certified: list[bool] = []
    spans: list[tuple[int, int, int]] = []  # (base index, start, stop)
    halves = _cut_halves(cut) if clipped else []
    for i in clipped:
        start = len(candidates)
        prefix = bases[i]
        for k, (row, negation) in enumerate(halves):
            piece = prefix.with_rows(*negation)
            known = balls[i] is not None and balls[i][2][k] > cert
            if known:
                center, __, radii = balls[i]
                piece._ball = (center, float(radii[k]))
                piece._empty_cache = False
            certified.append(known)
            candidates.append(piece)
            prefix = prefix.with_rows(*row)
        spans.append((i, start, len(candidates)))
    uncertified = [poly for poly, known in zip(candidates, certified)
                   if not known]
    interior = iter(has_interior_many(uncertified, solver,
                                      eps=interior_eps))
    keep = [known or next(interior) for known in certified]
    for i, start, stop in spans:
        results[i] = [candidates[k] for k in range(start, stop) if keep[k]]
    return [pieces if pieces is not None else [] for pieces in results]


def subtract_polytopes(base: ConvexPolytope,
                       cuts: Iterable[ConvexPolytope],
                       solver: LinearProgramSolver,
                       interior_eps: float = INTERIOR_EPS,
                       stop_when_empty: bool = True
                       ) -> list[ConvexPolytope]:
    """Subtract a sequence of polytopes from ``base``.

    Maintains a worklist of convex pieces and subtracts each cut from every
    piece in turn.

    Args:
        base: Polytope to subtract from.
        cuts: Polytopes to remove, applied in order.
        solver: LP solver for the geometric predicates.
        interior_eps: Minimum Chebyshev radius for pieces to survive.
        stop_when_empty: Return early as soon as no pieces remain.

    Returns:
        Convex pieces covering ``base`` minus the union of ``cuts`` (up to
        measure zero).
    """
    pieces = [] if emptiness_many([base], solver)[0] else [base]
    for cut in cuts:
        if not pieces and stop_when_empty:
            return []
        groups = subtract_polytope_many(pieces, cut, solver,
                                        interior_eps=interior_eps)
        pieces = [piece for group in groups for piece in group]
    return pieces


def union_covers(base: ConvexPolytope,
                 cover: Iterable[ConvexPolytope],
                 solver: LinearProgramSolver,
                 interior_eps: float = INTERIOR_EPS) -> bool:
    """Return whether the union of ``cover`` contains ``base`` up to measure zero.

    This implements the emptiness test of Algorithm 2 directly: the
    relevance region (``base`` minus the cutouts) is empty iff the cutouts
    cover the parameter space.
    """
    return not subtract_polytopes(base, cover, solver,
                                  interior_eps=interior_eps)
