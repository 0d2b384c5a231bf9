"""Per-vertex, per-segment non-neighbor counts that stop at k."""

from __future__ import annotations


class Pool:
    """Counts of a vertex's non-neighbors inside the growing plex vertex set.

    k nested levels over the segments of the frame domain (see
    ``NonNeighborhoodIndex``), each a dict from vertex to bitset: bit i of
    level j is set when the vertex's count on segment i is above j.
    Vertices without an entry are all-zero.  ``copy`` copies each level's
    dict, so copies taken before an increment stay valid.

    No count passes k, because no increment touches a segment whose count
    is already k: the search strips an entry's frames where a member at
    count k is a non-neighbor before it counts the entry, and the frames
    where the entry's own count reaches k after.
    """

    __slots__ = ("_lower", "_top")

    def __init__(self, k: int):
        self._lower = tuple({} for _ in range(k - 1))  # levels 0 .. k-2
        self._top: dict[int, int] = {}  # level k-1: the segments at k

    def copy(self) -> Pool:
        twin = Pool.__new__(Pool)
        twin._lower = tuple(dict(level) for level in self._lower)
        twin._top = dict(self._top)
        return twin

    def count(self, vertex: int, segment: int) -> int:
        return sum(
            (level.get(vertex, 0) >> segment) & 1
            for level in (*self._lower, self._top)
        )

    def increment(self, vertex: int, frames: int) -> int:
        """Add one to the vertex's count on every segment of ``frames``.

        Returns the segments whose count newly reached k.
        """
        carry = frames  # the segments whose count passes the next level
        for level in self._lower:
            below = level.get(vertex, 0)
            level[vertex] = below | carry
            carry &= below
            if not carry:
                return 0
        top = self._top.get(vertex, 0)
        self._top[vertex] = top | carry
        return carry ^ (carry & top)
