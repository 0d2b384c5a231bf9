"""Closed integer intervals and canonical ordered collections of them.

These are the frame sets of the API edge: plex records and the debug
monitor.  The search itself works on segment bitsets (see
``graph.NonNeighborhoodIndex``); ``intersect`` and ``minus`` remain as the
targets the benchmark's tracer wraps by name.  All values are immutable;
every operation returns a fresh canonical ``IntervalSet`` (sorted, pairwise
disjoint, non-adjacent).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple


class Interval(NamedTuple):
    """Inclusive range [start, end] of positive integer steps."""

    start: int
    end: int

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"

    def length(self) -> int:
        return self.end - self.start + 1

    def members(self) -> range:
        return range(self.start, self.end + 1)


def _canonicalize(intervals: Iterable[tuple[int, int]]) -> tuple[Interval, ...]:
    items = sorted(Interval(a, b) for a, b in intervals)
    out: list[Interval] = []
    for iv in items:
        if iv.start < 1:
            raise ValueError(f"interval start must be >= 1, got {iv}")
        if iv.start > iv.end:
            raise ValueError(f"interval start must not exceed end, got {iv}")
        if out and iv.start <= out[-1].end + 1:
            if iv.end > out[-1].end:
                out[-1] = Interval(out[-1].start, iv.end)
        else:
            out.append(iv)
    return tuple(out)


class IntervalSet:
    """Ordered set of disjoint, non-adjacent closed integer intervals.

    Adjacent inputs such as [1,2] and [3,4] are merged on construction, so
    every instance holds the maximal intervals of its covered integers.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        self.intervals = _canonicalize(intervals)

    @classmethod
    def _raw(cls, intervals: list[Interval]) -> "IntervalSet":
        # internal: caller guarantees canonical form
        s = object.__new__(cls)
        s.intervals = tuple(intervals)
        return s

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __str__(self) -> str:
        return "{" + ",".join(str(iv) for iv in self.intervals) + "}"

    def __repr__(self) -> str:
        return f"IntervalSet({list(self.intervals)!r})"

    def members(self) -> Iterator[int]:
        for iv in self.intervals:
            yield from iv.members()

    def covers(self, interval: Interval) -> bool:
        """True iff some member interval contains ``interval`` entirely."""
        idx = bisect_right(self.intervals, (interval.start, interval.end))
        # candidate is the last member starting at or before interval.start
        if idx < len(self.intervals) and self.intervals[idx].start == interval.start:
            return self.intervals[idx].end >= interval.end
        if idx == 0:
            return False
        cand = self.intervals[idx - 1]
        return cand.start <= interval.start and cand.end >= interval.end

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self.intervals, other.intervals
        out: list[Interval] = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i].start, b[j].start)
            hi = min(a[i].end, b[j].end)
            if lo <= hi:
                out.append(Interval(lo, hi))
            if a[i].end < b[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet._raw(out)

    def minus(self, other: "IntervalSet") -> "IntervalSet":
        if not self.intervals or not other.intervals:
            return self
        lo = self.intervals[0].start
        hi = self.intervals[-1].end
        return self.intersect(other.complement(lo, hi))

    def complement(self, lo: int, hi: int) -> "IntervalSet":
        """Integers of [lo, hi] not covered by this set."""
        out: list[Interval] = []
        cursor = lo
        for iv in self.intervals:
            if iv.start > hi:
                break
            if iv.start > cursor:
                out.append(Interval(cursor, iv.start - 1))
            cursor = max(cursor, iv.end + 1)
        if cursor <= hi:
            out.append(Interval(cursor, hi))
        return IntervalSet._raw(out)
