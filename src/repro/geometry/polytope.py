"""Convex polytopes in H-representation.

A :class:`ConvexPolytope` is the intersection of finitely many closed
halfspaces (Figure 3 in the paper).  This is the representation PWL-RRPA
uses for linear regions of cost functions, dominance regions and relevance
region cutouts.  Non-trivial predicates (emptiness, containment,
redundancy) are decided by linear programs routed through a
:class:`repro.lp.LinearProgramSolver`, so they are counted in the LP
statistics — reproducing the paper's "#solved linear programs" metric —
unless a witness already in hand settles them: a polytope that knows an
inscribed ball (:meth:`ConvexPolytope.known_ball`) is non-empty without
an LP.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterable, Sequence

import numpy as np

from ..errors import DimensionMismatchError, EmptyRegionError
from ..lp import LinearProgramSolver
from .constraints import (GEOMETRY_EPS, LinearConstraint,
                          constraints_to_arrays, normalize_halfspace)

#: Chebyshev radius below which a polytope is treated as lower-dimensional
#: (i.e. "empty up to measure zero") by interior-emptiness checks.
INTERIOR_EPS = 1e-7

#: Decimals to which coefficients and right-hand sides are rounded when
#: deciding whether two stored half-spaces are duplicates.
KEY_DECIMALS = 9


def row_keys(a: np.ndarray, b: np.ndarray) -> list[bytes]:
    """Return the duplicate-detection key of every row of ``A @ x <= b``.

    A key is the row's coefficients (``np.round``) and right-hand side
    (the builtin ``round``) at :data:`KEY_DECIMALS` decimals, packed as
    bytes with ``-0.0`` folded into ``0.0``.  Two rows have equal keys
    exactly when :meth:`LinearConstraint.key` of the two constraints
    compares equal.
    """
    m, dim = a.shape
    block = np.empty((m, dim + 1))
    a.round(KEY_DECIMALS, out=block[:, :dim])
    block[:, dim] = [round(v, KEY_DECIMALS) for v in b.tolist()]
    block += 0.0  # -0.0 + 0.0 == +0.0
    raw = block.tobytes()
    step = (dim + 1) * block.itemsize
    return [raw[i:i + step] for i in range(0, len(raw), step)]


def _constraint_rows(dim: int, constraints: Iterable[LinearConstraint]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Stack constraints into rows of a ``dim``-dimensional polytope.

    A zero-coefficient constraint of another dimension only says "always"
    or "never", so it becomes a zero row of this dimension; any other
    dimension mismatch is an error.
    """
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for c in constraints:
        a = c.a
        if a.shape[0] != dim:
            if not np.all(np.abs(a) <= GEOMETRY_EPS):
                raise DimensionMismatchError(
                    f"constraint dim {a.shape[0]} != polytope dim {dim}")
            a = np.zeros(dim)
        rows.append(a)
        rhs.append(c.b)
    if not rows:
        return np.zeros((0, dim)), np.zeros(0)
    return np.array(rows, dtype=float), np.array(rhs, dtype=float)


class ConvexPolytope:
    """A convex polytope ``{x in R^dim : A @ x <= b}``.

    Instances are immutable; all operations return new polytopes.  The
    half-spaces are stored as one normalized row block (``_a``, ``_b``)
    with one duplicate-detection key per row (``_keys``, see
    :func:`row_keys`).  Trivially satisfied rows (``0 @ x <= b`` with
    ``b >= -GEOMETRY_EPS``) and rows whose key an earlier row already has
    are dropped; a derived polytope only keys and checks the rows it
    adds to its parent's block.

    Args:
        dim: Dimensionality of the ambient (parameter) space.
        constraints: Iterable of :class:`LinearConstraint` of dimension
            ``dim``.  Duplicates and trivial constraints are dropped.
        base: Polytope whose (already de-duplicated) rows come first.
        rows: ``(A, b)`` of already normalized rows, used instead of
            ``constraints``.
        keys: The keys of ``rows`` when the caller has them already.
    """

    __slots__ = ("dim", "_a", "_b", "_keys", "_infeasible", "_constraints",
                 "_empty_cache", "_cheb_cache", "_ball", "vertex_hint",
                 "cell_tag")

    def __init__(self, dim: int,
                 constraints: Iterable[LinearConstraint] = (), *,
                 base: ConvexPolytope | None = None,
                 rows: tuple[np.ndarray, np.ndarray] | None = None,
                 keys: Sequence[bytes] | None = None) -> None:
        #: Optional exact vertex list attached by constructors that know
        #: the polytope's V-representation (e.g. simplicial grid cells).
        #: Purely an acceleration hint — never required for correctness.
        self.vertex_hint: np.ndarray | None = None
        #: Optional hashable tag identifying the partition cell this
        #: polytope is a subset of.  Two polytopes with different non-None
        #: tags have disjoint interiors; used to skip subtraction work.
        self.cell_tag = None
        self.dim = int(dim)
        self._constraints: tuple[LinearConstraint, ...] | None = None
        self._empty_cache: bool | None = None
        self._cheb_cache: tuple[np.ndarray | None, float] | None = None
        #: A certified inscribed ball ``(center, radius lower bound)``
        #: attached by constructors that proved one without an LP (see
        #: :func:`repro.geometry.difference.subtract_polytope_many`).
        self._ball: tuple[np.ndarray, float] | None = None
        a, b = (_constraint_rows(self.dim, constraints) if rows is None
                else rows)
        if a.ndim != 2 or a.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"rows of shape {a.shape} in a {self.dim}-dim polytope")
        zero = (np.abs(a) <= GEOMETRY_EPS).all(axis=1)
        infeasible_rows = None
        candidates: Iterable[int] = range(a.shape[0])
        if zero.any():
            trivial = zero & (b >= -GEOMETRY_EPS)
            candidates = (~trivial).nonzero()[0].tolist()
            infeasible_rows = zero & (b < -GEOMETRY_EPS)
        if keys is None and a.shape[0]:
            keys = row_keys(a, b)
        known = () if base is None else base._keys
        seen: set[bytes] = set()
        take: list[int] = []
        for i in candidates:
            key = keys[i]
            if key not in seen and key not in known:
                seen.add(key)
                take.append(i)
        if base is not None and not take:
            self._a, self._b = base._a, base._b
            self._keys, self._infeasible = base._keys, base._infeasible
            return
        if len(take) < a.shape[0]:
            a, b = a[take], b[take]
        elif base is None:
            a, b = a.copy(), b.copy()
        new_keys = tuple(keys[i] for i in take)
        infeasible = (infeasible_rows is not None
                      and bool(infeasible_rows[take].any()))
        if base is None:
            self._a, self._b = a, b
            self._keys, self._infeasible = new_keys, infeasible
        else:
            self._a = np.concatenate((base._a, a))
            self._b = np.concatenate((base._b, b))
            self._keys = base._keys + new_keys
            self._infeasible = base._infeasible or infeasible
        self._a.setflags(write=False)
        self._b.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def universe(dim: int) -> ConvexPolytope:
        """The whole space ``R^dim`` (no constraints)."""
        return ConvexPolytope(dim, ())

    @staticmethod
    def from_arrays(a, b) -> ConvexPolytope:
        """Build a polytope from stacked arrays ``A @ x <= b``."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != b.shape[0]:
            raise DimensionMismatchError("A and b shapes are inconsistent")
        rows = [normalize_halfspace(a[i], b[i]) for i in range(a.shape[0])]
        a_n = np.array([row for row, __ in rows]).reshape(a.shape)
        b_n = np.array([rhs for __, rhs in rows], dtype=float)
        return ConvexPolytope(a.shape[1], rows=(a_n, b_n))

    @staticmethod
    def box(lows: Sequence[float], highs: Sequence[float]) -> ConvexPolytope:
        """Axis-aligned box ``lows <= x <= highs``.

        Raises:
            ValueError: If the bounds have different lengths or a low bound
                exceeds its high bound.
        """
        lows = list(lows)
        highs = list(highs)
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have equal length")
        dim = len(lows)
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            if lo > hi:
                raise ValueError(f"box bound {i}: low {lo} > high {hi}")
        # Rows e_i @ x <= hi_i and -e_i @ x <= -lo_i, interleaved per
        # axis.  Unit normals need no scaling; negating the rows gives
        # the -0.0 entries LinearConstraint.make(-e_i, -lo_i) keeps.
        eye = np.eye(dim)
        a = np.empty((2 * dim, dim))
        a[0::2] = eye
        a[1::2] = -eye
        b = np.empty(2 * dim)
        b[0::2] = [float(hi) for hi in highs]
        b[1::2] = [float(-lo) for lo in lows]
        return ConvexPolytope(dim, rows=(a, b))

    @staticmethod
    def unit_box(dim: int) -> ConvexPolytope:
        """The unit hypercube ``[0, 1]^dim`` — the default parameter space."""
        return ConvexPolytope.box([0.0] * dim, [1.0] * dim)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """The stored half-spaces as :class:`LinearConstraint` objects.

        Built on first use from the row block, in row order; the hot
        paths read ``_a``/``_b`` directly.
        """
        if self._constraints is None:
            self._constraints = tuple(
                LinearConstraint(a=row, b=rhs)
                for row, rhs in zip(self._a, self._b.tolist()))
        return self._constraints

    @property
    def num_constraints(self) -> int:
        """Number of stored (de-duplicated) constraints."""
        return self._b.shape[0]

    def contains_point(self, x, tol: float = GEOMETRY_EPS) -> bool:
        """Return whether point ``x`` lies in the polytope (within ``tol``)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"point dim {x.shape[0]} != polytope dim {self.dim}")
        if not self.num_constraints:
            return True
        return bool((self._a @ x <= self._b + tol).all())

    def has_trivially_infeasible(self) -> bool:
        """``True`` if any stored constraint is syntactically infeasible."""
        return self._infeasible

    def known_ball(self) -> tuple[np.ndarray, float] | None:
        """An inscribed ball ``(center, radius)`` known without a new LP.

        The cached Chebyshev ball when its radius is finite and above
        :data:`INTERIOR_EPS`, else the certified ball a constructor
        attached, else ``None``.  Either one proves the polytope
        non-empty.
        """
        if self._cheb_cache is not None:
            center, radius = self._cheb_cache
            if INTERIOR_EPS < radius < np.inf:
                return center, radius
        return self._ball

    def is_empty(self, solver: LinearProgramSolver,
                 tol: float = GEOMETRY_EPS) -> bool:
        """Decide emptiness (result cached).

        A known inscribed ball answers "non-empty" without an LP;
        otherwise a feasibility LP decides.
        """
        if self._empty_cache is not None:
            return self._empty_cache
        if self._infeasible:
            self._empty_cache = True
            return True
        if not self.num_constraints or self.known_ball() is not None:
            self._empty_cache = False
            return False
        result = solver.solve(np.zeros(self.dim), self._a, self._b,
                              purpose="emptiness")
        self._empty_cache = result.is_infeasible
        return self._empty_cache

    def chebyshev(self, solver: LinearProgramSolver
                  ) -> tuple[np.ndarray | None, float]:
        """Return ``(center, radius)`` of the largest inscribed ball.

        The radius is the standard measure of "how full-dimensional" the
        polytope is: radius ``<= 0`` (within tolerance) means the polytope
        is empty or contained in a hyperplane.  For an unbounded polytope
        the radius is ``inf`` and the center is ``None``.
        Results are cached per instance.
        """
        if self._cheb_cache is not None:
            return self._cheb_cache
        if self._infeasible:
            self._cheb_cache = (None, -np.inf)
            return self._cheb_cache
        if not self.num_constraints:
            self._cheb_cache = (None, np.inf)
            return self._cheb_cache
        # Variables (x, r): maximize r subject to a_i @ x + r <= b_i
        # (constraint normals are unit vectors, so ||a_i|| = 1).
        m = self._a.shape[0]
        a_ext = np.hstack([self._a, np.ones((m, 1))])
        c = np.zeros(self.dim + 1)
        c[-1] = -1.0  # maximize r
        result = solver.solve(c, a_ext, self._b, purpose="chebyshev")
        if result.is_infeasible:
            self._cheb_cache = (None, -np.inf)
        elif result.status == "unbounded":
            self._cheb_cache = (None, np.inf)
        else:
            x = result.x[: self.dim]
            r = float(result.x[-1])
            self._cheb_cache = (x, r)
        return self._cheb_cache

    def has_interior(self, solver: LinearProgramSolver,
                     eps: float = INTERIOR_EPS) -> bool:
        """Return whether the polytope is full-dimensional (radius > eps)."""
        __, radius = self.chebyshev(solver)
        return radius > eps

    def interior_point(self, solver: LinearProgramSolver) -> np.ndarray:
        """Return a point in the (relative) interior.

        Raises:
            EmptyRegionError: If the polytope is empty or lower-dimensional
                and no Chebyshev center exists.
        """
        center, radius = self.chebyshev(solver)
        if center is None or radius < 0:
            raise EmptyRegionError("polytope has no interior point")
        return center

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def intersect(self, other: ConvexPolytope) -> ConvexPolytope:
        """Intersection with another polytope (constraint union)."""
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"cannot intersect dims {self.dim} and {other.dim}")
        result = ConvexPolytope(self.dim, base=self,
                                rows=(other._a, other._b), keys=other._keys)
        # The intersection is a subset of both operands, so it inherits
        # either cell tag (prefer ours).
        result.cell_tag = (self.cell_tag if self.cell_tag is not None
                           else other.cell_tag)
        return result

    def with_constraint(self, constraint: LinearConstraint) -> ConvexPolytope:
        """Return this polytope with one extra constraint added."""
        return self.with_rows(*_constraint_rows(self.dim, (constraint,)))

    def with_halfspace(self, a, b: float) -> ConvexPolytope:
        """Return this polytope with ``a @ x <= b`` added.

        The half-space is normalized exactly as
        :meth:`LinearConstraint.make` normalizes it.
        """
        vec, rhs = normalize_halfspace(a, b)
        return self.with_rows(vec[None, :], np.array([rhs]))

    def with_rows(self, a: np.ndarray, b: np.ndarray,
                  keys: Sequence[bytes] | None = None) -> ConvexPolytope:
        """Return this polytope with normalized rows ``A @ x <= b`` added.

        Args:
            a: ``(k, dim)`` unit-norm (or zero) coefficient rows.
            b: Their ``k`` right-hand sides.
            keys: The rows' :func:`row_keys`, when already computed.
        """
        result = ConvexPolytope(self.dim, base=self, rows=(a, b), keys=keys)
        result.cell_tag = self.cell_tag
        return result

    def contains_polytope(self, other: ConvexPolytope,
                          solver: LinearProgramSolver,
                          tol: float = 1e-7) -> bool:
        """Decide ``other ⊆ self`` by maximizing each constraint over ``other``.

        ``other`` is contained in ``self`` iff for every constraint
        ``a @ x <= b`` of ``self`` the maximum of ``a @ x`` over ``other``
        does not exceed ``b``.  An empty ``other`` is contained in anything.
        """
        if other.dim != self.dim:
            raise DimensionMismatchError("containment across dimensions")
        if other.is_empty(solver):
            return True
        for c in self.constraints:
            result = solver.solve(-c.a, other._a, other._b,
                                  purpose="containment")
            if result.status == "unbounded":
                return False
            if result.is_infeasible:  # pragma: no cover - guarded above
                return True
            max_val = -result.objective
            if max_val > c.b + tol:
                return False
        return True

    def remove_redundant(self, solver: LinearProgramSolver,
                         tol: float = 1e-7) -> ConvexPolytope:
        """Drop constraints implied by the remaining ones.

        This is the first refinement of Section 6.2 of the paper
        ("we simplify the internal representation of convex polytopes ...
        by deleting redundant linear constraints").  Each constraint is
        tested with one LP: maximize its left-hand side subject to all
        *other* kept constraints; if the maximum stays below the right-hand
        side the constraint is redundant.
        """
        kept = list(self.constraints)
        i = 0
        while i < len(kept):
            candidate = kept[i]
            others = kept[:i] + kept[i + 1:]
            if not others:
                break
            a, b = constraints_to_arrays(others)
            result = solver.solve(-candidate.a, a, b, purpose="redundancy")
            if result.is_optimal and -result.objective <= candidate.b + tol:
                kept.pop(i)
            else:
                i += 1
        return ConvexPolytope(self.dim, kept)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def bounding_box(self, solver: LinearProgramSolver
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Return per-axis ``(lows, highs)`` of the polytope.

        Raises:
            EmptyRegionError: For an empty polytope.
        """
        if self.is_empty(solver):
            raise EmptyRegionError("bounding box of empty polytope")
        lows = np.empty(self.dim)
        highs = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = 1.0
            lo = solver.solve(e, self._a, self._b, purpose="bbox")
            hi = solver.solve(-e, self._a, self._b, purpose="bbox")
            lows[i] = -np.inf if lo.status == "unbounded" else lo.objective
            highs[i] = np.inf if hi.status == "unbounded" else -hi.objective
        return lows, highs

    def vertices(self, solver: LinearProgramSolver,
                 tol: float = 1e-7) -> list[np.ndarray]:
        """Enumerate the vertices of a (bounded, low-dimensional) polytope.

        Every vertex of a polytope in ``R^d`` is the intersection of ``d``
        linearly independent active constraints; this brute-force
        enumeration over constraint subsets is exponential in ``d`` and
        intended for the small parameter-space dimensions (1–3) used in the
        paper's experiments and in plotting/analysis code.

        Returns:
            De-duplicated list of vertex coordinate arrays.
        """
        if self.dim == 0 or not self.num_constraints:
            return []
        verts: list[np.ndarray] = []
        for subset in combinations(range(self.num_constraints), self.dim):
            a = self._a[list(subset)]
            b = self._b[list(subset)]
            if abs(np.linalg.det(a)) < 1e-10:
                continue
            x = np.linalg.solve(a, b)
            if self.contains_point(x, tol=tol) and not any(
                    np.allclose(x, v, atol=1e-6) for v in verts):
                verts.append(x)
        return verts

    def sample_grid_points(self, solver: LinearProgramSolver,
                           per_axis: int = 4) -> list[np.ndarray]:
        """Return grid points of the bounding box that lie inside the polytope."""
        lows, highs = self.bounding_box(solver)
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lows, highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return [p for p in pts if self.contains_point(p)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConvexPolytope(dim={self.dim}, "
                f"constraints={self.num_constraints})")
