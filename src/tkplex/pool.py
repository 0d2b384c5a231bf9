"""Per-vertex, per-segment non-neighbor counts that stop at k."""

from __future__ import annotations


class Pool:
    """Counts of a vertex's non-neighbors inside the growing plex vertex set.

    Per vertex, k nested level sets over the segments of the frame domain
    (see ``NonNeighborhoodIndex``): bit i of level j is set when the count
    on segment i is above j.  Vertices without an entry are all-zero.
    ``copy`` is shallow and ``increment`` replaces level tuples instead of
    mutating them, so copies taken before an increment stay valid.

    No count passes k, because no increment touches a segment whose count
    is already k: the search strips an entry's frames where its count
    reaches k, and where a member at count k is a non-neighbor.
    """

    __slots__ = ("_levels", "_zero")

    def __init__(self, k: int):
        self._levels: dict[int, tuple[int, ...]] = {}
        self._zero = (0,) * k

    def copy(self) -> "Pool":
        twin = Pool(len(self._zero))
        twin._levels = dict(self._levels)
        return twin

    def count(self, vertex: int, segment: int) -> int:
        return sum((level >> segment) & 1 for level in self._levels.get(vertex, ()))

    def increment(self, vertex: int, frames: int) -> int:
        """Add one to the vertex's count on every segment of ``frames``.

        Returns the segments whose count newly reached k.
        """
        levels = self._levels.get(vertex, self._zero)
        raised = []
        carry = frames  # the segments whose count passes the next level
        for level in levels:
            raised.append(level | carry)
            carry &= level
        self._levels[vertex] = raised = tuple(raised)
        return raised[-1] ^ levels[-1]
