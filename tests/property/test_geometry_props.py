"""Property-based tests (hypothesis) on the geometry substrate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Interval, IntervalSet, Point, Rect

coords = st.integers(min_value=-200, max_value=200)


@st.composite
def rects(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.integers(min_value=1, max_value=50))
    h = draw(st.integers(min_value=1, max_value=50))
    return Rect(x0, y0, x0 + w, y0 + h)


@st.composite
def intervals(draw):
    lo = draw(coords)
    length = draw(st.integers(min_value=1, max_value=100))
    return Interval(lo, lo + length)


class TestPointProperties:
    @given(coords, coords, coords, coords)
    def test_manhattan_triangle_inequality(self, ax, ay, bx, by):
        a, b, origin = Point(ax, ay), Point(bx, by), Point(0, 0)
        assert a.manhattan(b) <= a.manhattan(origin) + origin.manhattan(b)

    @given(coords, coords, coords, coords)
    def test_chebyshev_below_manhattan(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert a.chebyshev(b) <= a.manhattan(b) <= 2 * a.chebyshev(b)


class TestRectProperties:
    @given(rects(), rects())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        assert a.gap_x(b) == b.gap_x(a)
        assert a.euclidean_gap_sq(b) == b.euclidean_gap_sq(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        ix = a.intersection(b)
        if ix is not None:
            assert a.contains_rect(ix)
            assert b.contains_rect(ix)

    @given(rects(), rects())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_rect(a)
        assert hull.contains_rect(b)

    @given(rects(), rects())
    def test_subtract_partitions_area(self, a, b):
        pieces = a.subtract(b)
        ix = a.intersection(b)
        covered = sum(p.area for p in pieces) + (ix.area if ix else 0)
        assert covered == a.area
        for piece in pieces:
            assert a.contains_rect(piece)
            if ix is not None:
                assert not piece.overlaps(ix)

    @given(rects(), st.integers(min_value=0, max_value=20))
    def test_inflate_monotone(self, r, amount):
        assert r.inflated(amount).contains_rect(r)


class TestIntervalSetProperties:
    @given(st.lists(intervals(), max_size=8), st.lists(intervals(), max_size=8))
    def test_subtract_then_intersect_empty(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        diff = a.subtract(b)
        assert not diff.intersection(b)

    @given(st.lists(intervals(), max_size=8), st.lists(intervals(), max_size=8))
    def test_union_length_bounds(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        u = a.union(b)
        assert u.total_length >= max(a.total_length, b.total_length)
        assert u.total_length <= a.total_length + b.total_length

    @given(st.lists(intervals(), max_size=8), st.lists(intervals(), max_size=8))
    def test_inclusion_exclusion(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        union = a.union(b).total_length
        inter = a.intersection(b).total_length
        assert union + inter == a.total_length + b.total_length

    @given(st.lists(intervals(), max_size=8))
    def test_normalisation_idempotent(self, xs):
        a = IntervalSet(xs)
        assert IntervalSet(list(a)) == a

