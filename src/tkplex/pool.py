"""Bit-sliced per-vertex, per-segment non-neighbor counters."""

from __future__ import annotations


class Pool:
    """Counts of a vertex's non-neighbors inside the growing plex vertex set.

    Per vertex, a tuple of bit planes over the segments of the frame domain
    (see ``NonNeighborhoodIndex``): bit i of plane j is bit j of the count
    on segment i.  Vertices without an entry are all-zero.  ``copy`` is
    shallow and ``increment`` replaces plane tuples instead of mutating
    them, so copies taken before an increment stay valid (one copy per
    recursive call).
    """

    __slots__ = ("_planes",)

    def __init__(self, planes: dict[int, tuple[int, ...]] | None = None):
        self._planes: dict[int, tuple[int, ...]] = {} if planes is None else planes

    def copy(self) -> "Pool":
        return Pool(dict(self._planes))

    def count(self, vertex: int, segment: int) -> int:
        return sum(
            ((plane >> segment) & 1) << j
            for j, plane in enumerate(self._planes.get(vertex, ()))
        )

    def increment(self, vertex: int, frames: int, critical_at: int) -> int:
        """Add one to the vertex's count on every segment of ``frames``.

        Returns the segments whose new count equals ``critical_at``.
        """
        planes = []
        carry = frames
        for plane in self._planes.get(vertex, ()):  # ripple carry
            planes.append(plane ^ carry)
            carry &= plane
        if carry:
            planes.append(carry)
        self._planes[vertex] = tuple(planes)
        hits = frames
        for plane in planes:
            hits &= plane if critical_at & 1 else ~plane
            critical_at >>= 1
        return 0 if critical_at else hits
