"""Run-length-encoded per-vertex, per-frame non-neighbor counters."""

from __future__ import annotations

from .intervals import Interval, IntervalSet

Run = tuple[int, int, int]  # (first frame, last frame, count)


class Pool:
    """Counts of a vertex's non-neighbors inside the growing plex vertex set.

    Per vertex, a list of runs partitions the frame domain [1, last_frame];
    consecutive runs carry different counts.  Vertices without an entry are
    implicitly all-zero.  ``copy`` is shallow and ``increment`` replaces run
    lists instead of mutating them, so copies taken before an increment stay
    valid (one copy per recursive call).
    """

    __slots__ = ("last_frame", "_runs")

    def __init__(self, last_frame: int, runs: dict[int, list[Run]] | None = None):
        if last_frame < 1:
            raise ValueError("frame domain must be non-empty")
        self.last_frame = last_frame
        self._runs: dict[int, list[Run]] = {} if runs is None else runs

    def copy(self) -> "Pool":
        return Pool(self.last_frame, dict(self._runs))

    def count(self, vertex: int, frame: int) -> int:
        for start, end, value in self._runs.get(vertex, ()):
            if start <= frame <= end:
                return value
        return 0

    def runs(self, vertex: int) -> list[Run]:
        return list(self._runs.get(vertex, [(1, self.last_frame, 0)]))

    def increment(
        self, vertex: int, frames: IntervalSet, critical_at: int
    ) -> IntervalSet:
        """Add one to the vertex's count on every frame of ``frames``.

        Returns the frames whose new count equals ``critical_at``.
        """
        old = self._runs.get(vertex) or [(1, self.last_frame, 0)]
        bumps = frames.intervals
        merged: list[Run] = []
        critical: list[Interval] = []
        bi = 0
        for start, end, value in old:
            pos = start
            while pos <= end:
                while bi < len(bumps) and bumps[bi].end < pos:
                    bi += 1
                if bi < len(bumps) and bumps[bi].start <= pos:
                    hi = min(end, bumps[bi].end)
                    seg_value = value + 1
                    if seg_value == critical_at:
                        critical.append(Interval(pos, hi))
                else:
                    hi = (
                        min(end, bumps[bi].start - 1)
                        if bi < len(bumps)
                        else end
                    )
                    seg_value = value
                if merged and merged[-1][2] == seg_value:
                    merged[-1] = (merged[-1][0], hi, seg_value)
                else:
                    merged.append((pos, hi, seg_value))
                pos = hi + 1
        self._runs[vertex] = merged
        # already canonical: inside one run, critical pieces are split by the
        # gaps between the canonical bumps; across a run boundary the counts
        # differ, so at most one side of it reaches critical_at
        return IntervalSet._raw(critical)
