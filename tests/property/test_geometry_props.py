"""Property-based tests (hypothesis) for the geometry substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)
from scipy.optimize import linprog

from repro.errors import DimensionMismatchError
from repro.geometry import (GEOMETRY_EPS, ConvexPolytope, LinearConstraint,
                            RelevanceRegion, box_simplices,
                            subtract_polytope, subtract_polytope_many,
                            subtract_polytopes)
from repro.geometry.difference import _cut_halves
from repro.lp import LinearProgramSolver, LPStats


def fresh_solver() -> LinearProgramSolver:
    return LinearProgramSolver(stats=LPStats())


coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def boxes_1d(draw):
    a = draw(coords)
    b = draw(coords)
    lo, hi = min(a, b), max(a, b)
    return ConvexPolytope.box([lo], [hi + 1e-3])


@st.composite
def boxes_2d(draw):
    a1, b1 = sorted((draw(coords), draw(coords)))
    a2, b2 = sorted((draw(coords), draw(coords)))
    return ConvexPolytope.box([a1, a2], [b1 + 1e-3, b2 + 1e-3])


class TestConstraintProperties:
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
           st.floats(-10, 10))
    def test_normalization_preserves_halfspace(self, a, b):
        if all(abs(v) < 1e-9 for v in a):
            return
        c = LinearConstraint.make(a, b)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-3, 3, size=(20, 2)):
            raw = float(np.dot(a, x)) <= b + 1e-7 * max(1, abs(b))
            norm = c.contains(x, tol=1e-7)
            assert raw == norm or abs(np.dot(a, x) - b) < 1e-5

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.floats(-5, 5))
    def test_negation_covers_space(self, a, b):
        if all(abs(v) < 1e-9 for v in a):
            return
        c = LinearConstraint.make(a, b)
        n = c.negation()
        rng = np.random.default_rng(1)
        for x in rng.uniform(-3, 3, size=(20, 2)):
            assert c.contains(x) or n.contains(x)


# ----------------------------------------------------------------------
# Reference: the per-constraint de-duplication polytopes were first built
# with (one LinearConstraint object per row, re-keyed on every build).
# ----------------------------------------------------------------------

def reference_dedupe(constraints):
    """Drop exact duplicates and trivially-satisfied constraints."""
    seen = set()
    out = []
    for c in constraints:
        if c.is_trivial():
            continue
        key = c.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
    return out


def reference_constraints_to_arrays(constraints):
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


def reference_polytope(dim, constraints):
    """``(rows, A, b, trivially_infeasible)`` of the reference build."""
    cons = reference_dedupe(constraints)
    a, b = reference_constraints_to_arrays(cons)
    if a.shape[1] == 0:
        a = np.zeros((len(cons), dim))
    return cons, a, b, any(c.is_infeasible_trivial() for c in cons)


def assert_matches_reference(poly, dim, constraints):
    cons, a, b, infeasible = reference_polytope(dim, constraints)
    assert poly.num_constraints == len(cons)
    # Bit-equal, -0.0 included, in the reference order.
    assert poly._a.shape == a.shape
    assert poly._a.tobytes() == a.tobytes()
    assert poly._b.tobytes() == b.tobytes()
    assert poly.has_trivially_infeasible() == infeasible
    assert [c.a.tobytes() for c in poly.constraints] == \
        [c.a.tobytes() for c in cons]
    assert [c.b for c in poly.constraints] == [c.b for c in cons]
    return cons


#: Offsets either side of the 9th-decimal rounding step, plus exact
#: duplicates (0.0) and sub-ulp-of-key noise.
NEAR = (0.0, 0.0, 4e-10, -4e-10, 6e-10, -6e-10, 1e-9, 1e-12, 5e-10)
#: Right-hand sides of zero rows: trivial (b >= -eps) and infeasible.
ZERO_RHS = (0.0, -0.0, 1.0, -GEOMETRY_EPS / 2, -GEOMETRY_EPS,
            -2 * GEOMETRY_EPS, -1.0)


@st.composite
def constraint_lists(draw, dim=2):
    """Constraint lists rich in duplicates, near-duplicates, -0.0 and zeros."""
    pool_size = draw(st.integers(1, 3))
    pool = [(draw(st.lists(st.sampled_from((0.0, -0.0, 0.25, -0.5, 1.0,
                                            0.123456789, 0.1234567885)),
                           min_size=dim, max_size=dim)),
             draw(st.sampled_from((0.0, -0.0, 0.5, 0.3333333335, -1.0))))
            for __ in range(pool_size)]
    constraints = []
    for __ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("pool", "near", "zero", "negzero")))
        row, rhs = pool[draw(st.integers(0, pool_size - 1))]
        row = list(row)
        if kind == "near":
            row[draw(st.integers(0, dim - 1))] += draw(st.sampled_from(NEAR))
            rhs += draw(st.sampled_from(NEAR))
        elif kind == "zero":
            row = [draw(st.sampled_from((0.0, -0.0, 1e-9, -1e-9)))
                   for __ in range(dim)]
            rhs = draw(st.sampled_from(ZERO_RHS))
        elif kind == "negzero":
            row = [-0.0 if v == 0.0 else v for v in row]
        if draw(st.booleans()):
            constraints.append(LinearConstraint.make(row, rhs))
        else:
            # Stored verbatim: exercises keys of rows that are not unit.
            constraints.append(LinearConstraint(a=np.array(row, dtype=float),
                                                b=float(rhs)))
    return constraints


class TestRowBlockMatchesReference:
    """``ConvexPolytope``'s row block equals the per-object reference."""

    @settings(max_examples=300, deadline=None)
    @given(constraint_lists())
    def test_construction(self, constraints):
        assert_matches_reference(ConvexPolytope(2, constraints), 2,
                                 constraints)

    @settings(max_examples=200, deadline=None)
    @given(constraint_lists(), st.data())
    def test_with_constraint_chain(self, constraints, data):
        split = data.draw(st.integers(0, len(constraints)))
        poly = ConvexPolytope(2, constraints[:split])
        expected = reference_dedupe(constraints[:split])
        for c in constraints[split:]:
            poly = poly.with_constraint(c)
            expected = reference_dedupe(expected + [c])
            assert_matches_reference(poly, 2, expected)

    @settings(max_examples=200, deadline=None)
    @given(constraint_lists(), constraint_lists())
    def test_intersect(self, left, right):
        poly = ConvexPolytope(2, left).intersect(ConvexPolytope(2, right))
        assert_matches_reference(
            poly, 2, reference_dedupe(left) + reference_dedupe(right))

    @settings(max_examples=100, deadline=None)
    @given(constraint_lists(),
           st.lists(st.floats(-2, 2), min_size=2, max_size=2),
           st.floats(-2, 2))
    def test_with_halfspace(self, constraints, a, b):
        poly = ConvexPolytope(2, constraints).with_halfspace(a, b)
        assert_matches_reference(
            poly, 2,
            reference_dedupe(constraints) + [LinearConstraint.make(a, b)])

    @settings(max_examples=150, deadline=None)
    @given(constraint_lists(), constraint_lists())
    def test_row_keys_match_constraint_keys(self, left, right):
        p, q = ConvexPolytope(2, left), ConvexPolytope(2, right)
        ref_p, ref_q = reference_dedupe(left), reference_dedupe(right)
        same = frozenset(p._keys) == frozenset(q._keys)
        ref_same = (frozenset(c.key() for c in ref_p)
                    == frozenset(c.key() for c in ref_q))
        assert same == ref_same

    @settings(max_examples=100, deadline=None)
    @given(constraint_lists())
    def test_cut_negations_match_constraint_negation(self, constraints):
        cut = ConvexPolytope(2, constraints)
        halves = _cut_halves(cut)
        for c, (row, negation) in zip(cut.constraints, halves):
            neg = c.negation()
            assert row[0][0].tobytes() == c.a.tobytes()
            assert negation[0][0].tobytes() == neg.a.tobytes()
            assert negation[1][0] == neg.b


class TestSubtractionProperties:
    @settings(max_examples=25, deadline=None)
    @given(boxes_1d(), boxes_1d())
    def test_pieces_disjoint_from_cut_interior(self, base, cut):
        solver = fresh_solver()
        pieces = subtract_polytope(base, cut, solver)
        rng = np.random.default_rng(2)
        for piece in pieces:
            assert base.contains_polytope(piece, solver)
        for x in rng.uniform(0, 1.01, size=(30, 1)):
            in_base = base.contains_point(x, tol=-1e-9)
            strictly_in_cut = cut.contains_point(x, tol=-1e-6)
            in_pieces = any(p.contains_point(x) for p in pieces)
            if in_base and not cut.contains_point(x, tol=1e-6):
                assert in_pieces
            if in_pieces:
                assert base.contains_point(x, tol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(boxes_2d(), min_size=1, max_size=3))
    def test_subtract_all_of_space_empties(self, cuts):
        solver = fresh_solver()
        base = ConvexPolytope.unit_box(2)
        pieces = subtract_polytopes(base, cuts + [base], solver)
        assert pieces == []

    @settings(max_examples=20, deadline=None)
    @given(boxes_2d())
    def test_subtracting_base_from_itself(self, box):
        solver = fresh_solver()
        assert subtract_polytope(box, box, solver) == []


# ----------------------------------------------------------------------
# Ball certificates of subtract_polytope_many against the LP-decided
# scalar subtract_polytope.  Box corners sit on a coarse grid and cut rows
# pass through a finer one, so ball centers often lie exactly on cut rows
# and certificate radii often are exactly zero.
# ----------------------------------------------------------------------

CORNERS = (0.0, 0.5, 1.0)
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
NORMALS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
           (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))


@st.composite
def halfspaces(draw):
    """``a @ x <= a @ p`` for a grid point ``p``: a row through ``p``."""
    a = np.array(draw(st.sampled_from(NORMALS)))
    p = np.array([draw(st.sampled_from(GRID)), draw(st.sampled_from(GRID))])
    return a, float(a @ p)


@st.composite
def seeded_bases(draw):
    """A box (optionally clipped by one row) and how its ball is seeded.

    ``seed`` is ``"none"`` (no ball), ``"lp"`` (the cached Chebyshev ball
    of an LP) or ``"exact"`` (the box's own inscribed ball, set by hand
    with a dyadic center and radius).
    """
    lows, highs = [], []
    for __ in range(2):
        lo, hi = sorted(draw(st.lists(st.sampled_from(CORNERS), min_size=2,
                                      max_size=2, unique=True)))
        lows.append(lo)
        highs.append(hi)
    clip = draw(st.one_of(st.none(), halfspaces()))
    seed = draw(st.sampled_from(("none", "lp", "exact")))
    if clip is not None and seed == "exact":
        seed = "lp"
    return lows, highs, clip, seed


def build_base(lows, highs, clip):
    box = ConvexPolytope.box(lows, highs)
    return box if clip is None else box.with_halfspace(*clip)


@st.composite
def cuts(draw):
    cut = ConvexPolytope.universe(2)
    for a, b in draw(st.lists(halfspaces(), min_size=1, max_size=4)):
        cut = cut.with_halfspace(a, b)
    return cut


def cut_of(*rows):
    cut = ConvexPolytope.universe(2)
    for a, b in rows:
        cut = cut.with_halfspace(a, b)
    return cut


#: The unit square with its exact inscribed ball.
UNIT = ([0.0, 0.0], [1.0, 1.0], None, "exact")


def highs_radius(poly):
    a_ext = np.hstack([poly._a, np.ones((poly.num_constraints, 1))])
    res = linprog([0.0, 0.0, -1.0], A_ub=a_ext, b_ub=poly._b,
                  bounds=[(None, None)] * 3, method="highs")
    if res.status == 2:
        return -np.inf
    assert res.status == 0
    return float(res.x[-1])


def piece_bits(pieces):
    return [(p._a.tobytes(), p._b.tobytes(), p._keys) for p in pieces]


class TestBallCertificates:
    """``subtract_polytope_many``'s certificates never change a piece."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(seeded_bases(), min_size=1, max_size=3), cuts())
    # Three cut rows through the center: piece 2 is the single point
    # (0.5, 0.5), its certificate radius is exactly zero.
    @example([UNIT], cut_of(((1, 0), 0.5), ((0, 1), 0.5), ((1, 1), 1.0)))
    # A zero-width cut through the center: no overlap interior.
    @example([UNIT], cut_of(((1, 0), 0.5), ((-1, 0), -0.5)))
    # The center lies beyond both cut rows: only piece 0 holds the ball.
    @example([UNIT], cut_of(((1, 0), 0.25), ((0, 1), 0.25)))
    def test_certified_pieces_match_scalar_oracle(self, monkeypatch, specs,
                                                  cut):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "")
        solver = fresh_solver()
        bases = []
        for lows, highs, clip, seed in specs:
            base = build_base(lows, highs, clip)
            if seed == "lp":
                base.chebyshev(solver)
            elif seed == "exact":
                center = 0.5 * (np.array(lows) + np.array(highs))
                base._ball = (center, 0.5 * min(np.subtract(highs, lows)))
            bases.append(base)
        got = subtract_polytope_many(bases, cut, solver)
        oracle = [subtract_polytope(build_base(lows, highs, clip), cut,
                                    fresh_solver())
                  for lows, highs, clip, __ in specs]
        assert [piece_bits(pieces) for pieces in got] == \
            [piece_bits(pieces) for pieces in oracle]
        for piece in (p for pieces in got for p in pieces):
            if piece._ball is None:
                continue
            center, radius = piece._ball
            # The ball lies inside the piece ...
            assert (piece._a @ center + radius <= piece._b + 1e-7).all()
            # ... and is no larger than the piece's largest ball.
            assert radius <= highs_radius(piece) + 1e-9
            assert piece.is_empty(solver) is False


class TestRelevanceRegionProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(boxes_1d(), min_size=0, max_size=4))
    def test_membership_matches_definition(self, cuts):
        solver = fresh_solver()
        space = ConvexPolytope.unit_box(1)
        rr = RelevanceRegion(space)
        for cut in cuts:
            rr.subtract(cut)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 1, size=(30, 1)):
            expected = (space.contains_point(x)
                        and not any(c.contains_point(x)
                                    for c in rr.cutouts))
            assert rr.contains_point(x) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.lists(boxes_1d(), min_size=1, max_size=4))
    def test_emptiness_iff_no_witness(self, cuts):
        solver = fresh_solver()
        rr = RelevanceRegion(ConvexPolytope.unit_box(1))
        for cut in cuts:
            rr.subtract(cut)
        empty = rr.is_empty(solver)
        witness = rr.witness(solver)
        assert empty == (witness is None)
        if witness is not None:
            assert rr.contains_point(witness)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(boxes_1d(), min_size=1, max_size=4),
           st.permutations(range(4)))
    def test_emptiness_order_invariant(self, cuts, order):
        solver = fresh_solver()
        ordered = [cuts[i % len(cuts)] for i in order[:len(cuts)]]
        rr1 = RelevanceRegion(ConvexPolytope.unit_box(1), cutouts=cuts)
        rr2 = RelevanceRegion(ConvexPolytope.unit_box(1), cutouts=ordered)
        # Same cutout multiset (up to duplication) -> same emptiness.
        if {frozenset(c.key() for c in cut.constraints)
                for cut in cuts} == {
                frozenset(c.key() for c in cut.constraints)
                for cut in ordered}:
            assert rr1.is_empty(solver) == rr2.is_empty(solver)


class TestSimplexGridProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=2))
    def test_simplices_cover_box(self, resolution, dim):
        simplices = box_simplices([0.0] * dim, [1.0] * dim, resolution)
        rng = np.random.default_rng(4)
        for x in rng.uniform(0, 1, size=(40, dim)):
            assert any(s.contains_point(x, tol=1e-9) for s in simplices)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=3))
    def test_interpolation_exact_for_affine(self, resolution):
        simplices = box_simplices([0.0, 0.0], [1.0, 1.0], resolution)
        w_true, b_true = np.array([2.0, -1.0]), 0.5
        for s in simplices:
            w, b = s.affine_interpolant(
                [float(w_true @ v + b_true) for v in s.vertices])
            assert np.allclose(w, w_true, atol=1e-8)
            assert abs(b - b_true) < 1e-8
