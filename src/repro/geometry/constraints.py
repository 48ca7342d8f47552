"""Linear constraints (halfspaces) in parameter space.

A constraint represents the closed halfspace ``{x : a @ x <= b}``.  The
paper's data structures (Figures 3 and 8) build convex polytopes as finite
intersections of such halfspaces; this module provides the normalized
constraint primitive those polytopes are made of.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError

#: Numerical tolerance used for constraint comparisons throughout geometry.
GEOMETRY_EPS = 1e-8


def normalize_halfspace(a, b: float) -> tuple[np.ndarray, float]:
    """Scale the half-space ``a @ x <= b`` to a unit-norm normal.

    This is the one normalization every stored half-space goes through,
    so rows built from arrays and rows built as :class:`LinearConstraint`
    objects are bit-identical.  A coefficient vector of norm at most
    :data:`GEOMETRY_EPS` is returned unscaled (as a float array, possibly
    sharing memory with ``a``).
    """
    vec = np.asarray(a, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm > GEOMETRY_EPS:
        return vec / norm, float(b) / norm
    return vec, float(b)


@dataclass(frozen=True)
class LinearConstraint:
    """A closed halfspace ``a @ x <= b``.

    The coefficient vector is stored normalized (unit Euclidean norm) so
    that syntactic comparison and de-duplication of constraints behaves
    geometrically: two constraints describing the same halfspace compare
    equal after normalization.

    Attributes:
        a: Normalized coefficient vector (read-only numpy array).
        b: Right-hand side after normalization.
    """

    a: np.ndarray
    b: float

    @staticmethod
    def make(a, b: float) -> LinearConstraint:
        """Create a normalized constraint ``a @ x <= b``.

        Args:
            a: Coefficient vector (any sequence of floats, not all zero
                unless representing a trivial constraint).
            b: Right-hand side.

        Returns:
            The normalized constraint.  A zero coefficient vector is kept
            as-is and represents either the full space (``b >= 0``) or the
            empty set (``b < 0``).
        """
        vec, b = normalize_halfspace(a, b)
        frozen = vec.copy()
        frozen.setflags(write=False)
        return LinearConstraint(a=frozen, b=b)

    @property
    def dim(self) -> int:
        """Dimensionality of the ambient space."""
        return int(self.a.shape[0])

    def is_trivial(self) -> bool:
        """``True`` for the degenerate zero-coefficient constraint ``0 <= b``, b>=0."""
        return bool(np.all(np.abs(self.a) <= GEOMETRY_EPS)
                    and self.b >= -GEOMETRY_EPS)

    def is_infeasible_trivial(self) -> bool:
        """``True`` for the degenerate constraint ``0 <= b`` with ``b < 0``."""
        return bool(np.all(np.abs(self.a) <= GEOMETRY_EPS)
                    and self.b < -GEOMETRY_EPS)

    def contains(self, x, tol: float = GEOMETRY_EPS) -> bool:
        """Return whether point ``x`` satisfies the constraint (within ``tol``)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"point dim {x.shape[0]} != constraint dim {self.dim}")
        return bool(float(self.a @ x) <= self.b + tol)

    def slack(self, x) -> float:
        """Return ``b - a @ x`` (positive inside, negative outside)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.b - self.a @ x)

    def negation(self) -> LinearConstraint:
        """Return the closed complement halfspace ``a @ x >= b``.

        The complement of an open halfspace is closed; we return the
        *closure* ``-a @ x <= -b``, which overlaps the original on the
        boundary hyperplane.  Callers that need a strict complement handle
        the measure-zero overlap via interior-emptiness tolerances (see
        DESIGN.md, "Closed dominance regions").
        """
        return LinearConstraint.make(-self.a, -self.b)

    def same_halfspace(self, other: LinearConstraint,
                       tol: float = 1e-6) -> bool:
        """Return whether two normalized constraints describe the same halfspace."""
        if self.dim != other.dim:
            return False
        return bool(np.allclose(self.a, other.a, atol=tol)
                    and abs(self.b - other.b) <= tol)

    def key(self, decimals: int = 9) -> tuple:
        """Hashable rounding-based key for de-duplication.

        Two constraints' keys are equal exactly when the
        :func:`~repro.geometry.polytope.row_keys` of their rows are.
        """
        return (tuple(np.round(self.a, decimals)), round(self.b, decimals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{coef:.3g}*x{i}"
                           for i, coef in enumerate(self.a)
                           if abs(coef) > GEOMETRY_EPS)
        terms = terms or "0"
        return f"<{terms} <= {self.b:.3g}>"


def constraints_to_arrays(constraints) -> tuple[np.ndarray, np.ndarray]:
    """Stack constraints into ``(A, b)`` arrays suitable for an LP solver.

    Args:
        constraints: Iterable of :class:`LinearConstraint` of equal dimension.

    Returns:
        Matrix ``A`` of shape ``(m, n)`` and vector ``b`` of length ``m``.
        For an empty iterable, returns ``(0, 0)``-shaped arrays.
    """
    constraints = list(constraints)
    if not constraints:
        return np.zeros((0, 0)), np.zeros(0)
    dim = constraints[0].dim
    for c in constraints:
        if c.dim != dim:
            raise DimensionMismatchError("mixed constraint dimensions")
    a = np.vstack([c.a for c in constraints])
    b = np.array([c.b for c in constraints], dtype=float)
    return a, b
