import pytest
from hypothesis import given
from hypothesis import strategies as st

from tkplex.intervals import Interval, IntervalSet

point_sets = st.frozensets(st.integers(min_value=1, max_value=30), max_size=20)


def iset(*pairs) -> IntervalSet:
    return IntervalSet(pairs)


def points(xs) -> IntervalSet:
    return IntervalSet((x, x) for x in xs)


class TestConstruction:
    def test_merges_adjacent_intervals(self):
        assert iset((1, 2), (3, 4)).intervals == (Interval(1, 4),)

    def test_merges_overlapping_intervals(self):
        assert iset((1, 5), (3, 9)).intervals == (Interval(1, 9),)

    def test_sorts_input(self):
        assert iset((7, 9), (1, 2)).intervals == (Interval(1, 2), Interval(7, 9))

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            iset((5, 3))

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            iset((0, 3))

    def test_empty_set_is_valid(self):
        assert not IntervalSet()
        assert len(IntervalSet()) == 0

    def test_rendering(self):
        assert str(iset((1, 4), (6, 9))) == "{[1,4],[6,9]}"
        assert str(Interval(1, 4)) == "[1,4]"


class TestCovers:
    def test_single_interval_inside(self):
        assert iset((1, 4)).covers(Interval(1, 2))

    def test_empty_set_covers_nothing(self):
        assert not IntervalSet().covers(Interval(1, 2))

    def test_straddling_interval_not_covered(self):
        assert not iset((1, 4), (6, 9)).covers(Interval(3, 5))


class TestWorkedExamples:
    def test_intersection(self):
        got = iset((1, 2), (5, 8)).intersect(iset((1, 4), (5, 6)))
        assert str(got) == "{[1,2],[5,6]}"

    def test_difference(self):
        got = iset((1, 4), (5, 8)).minus(iset((1, 2), (5, 6)))
        assert str(got) == "{[3,4],[7,8]}"

    def test_intersection_idempotent(self):
        a = iset((1, 10), (20, 25))
        assert a.intersect(a) == a

    def test_intersection_with_fragments(self):
        assert iset((1, 10)).intersect(iset((3, 4), (6, 6))) == iset((3, 4), (6, 6))

    def test_self_difference_is_empty(self):
        a = iset((1, 4), (9, 12))
        assert not a.minus(a)

    def test_difference_splits_interval(self):
        assert iset((1, 10)).minus(iset((4, 6))) == iset((1, 3), (7, 10))


def _as_points(s: IntervalSet) -> frozenset[int]:
    return frozenset(s.members())


def _canonical_ok(s: IntervalSet) -> bool:
    return all(
        a.end < b.start - 1
        for a, b in zip(s.intervals, s.intervals[1:])
    ) and all(iv.start <= iv.end for iv in s.intervals)


@given(point_sets, point_sets)
def test_operations_match_integer_set_semantics(xs, ys):
    a, b = points(xs), points(ys)
    assert _as_points(a.intersect(b)) == xs & ys
    assert _as_points(a.minus(b)) == xs - ys


@given(point_sets, point_sets)
def test_results_are_canonical_and_bounded(xs, ys):
    a, b = points(xs), points(ys)
    for got in (a.intersect(b), a.minus(b)):
        assert _canonical_ok(got)
        assert len(got) <= len(a) + len(b)


@given(point_sets, point_sets)
def test_union_and_intersection_commute(xs, ys):
    a, b = points(xs), points(ys)
    assert a.intersect(b) == b.intersect(a)


@given(point_sets, point_sets, point_sets)
def test_union_and_intersection_associate(xs, ys, zs):
    a, b, c = points(xs), points(ys), points(zs)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(point_sets, point_sets)
def test_difference_is_intersection_with_complement(xs, ys):
    a, b = points(xs), points(ys)
    assert a.minus(b) == a.intersect(b.complement(1, 30))


@given(point_sets, point_sets)
def test_coverage_iff_intersection_fixpoint(xs, ys):
    a, b = points(xs), points(ys)
    assert all(b.covers(iv) for iv in a) == (a.intersect(b) == a)
