"""Exhaustive ground truth for desk-scale instances.

Deliberately shares nothing with the search machinery beyond the graph type:
no interval algebra, no precomputed index.  Agreement between this module and
the enumerator is the project's main correctness evidence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .graph import TemporalGraph
from .intervals import Interval
from .search import PlexRecord

MAX_ORACLE_VERTICES = 8
MAX_ORACLE_LIFETIME = 10


@dataclass(frozen=True)
class OracleResult:
    """All maximal plexes, ordered by vertex set then interval start."""

    plexes: tuple[PlexRecord, ...]

    def as_set(self) -> set[PlexRecord]:
        return set(self.plexes)


def _pair_times(graph: TemporalGraph) -> dict[tuple[int, int], list[int]]:
    times: dict[tuple[int, int], list[int]] = {}
    for t, u, v in graph.edges:
        times.setdefault((u, v), []).append(t)
    return times


def _has_edge_in(times: list[int] | None, lo: int, hi: int) -> bool:
    if not times:
        return False
    i = bisect_left(times, lo)
    return i < len(times) and times[i] <= hi


def _frame_ok(times, delta: int, k: int, group, i: int) -> bool:
    """The plex predicate on frame i: no vertex misses more than k of ``group``.

    A vertex always counts itself among its non-neighbors.
    """
    lo, hi = i, i + delta
    for v in group:
        missing = 0
        for u in group:
            key = (u, v) if u < v else (v, u)
            if u == v or not _has_edge_in(times.get(key), lo, hi):
                missing += 1
        if missing > k:
            return False
    return True


def is_plex(
    graph: TemporalGraph, delta: int, k: int, vertices, interval: Interval
) -> bool:
    """Direct check of the plex predicate over every frame of ``interval``."""
    group = tuple(vertices)
    times = _pair_times(graph)
    return all(_frame_ok(times, delta, k, group, i) for i in interval.members())


def enumerate_all_maximal(
    graph: TemporalGraph,
    delta: int,
    k: int,
    max_vertices: int = MAX_ORACLE_VERTICES,
    max_lifetime: int = MAX_ORACLE_LIFETIME,
) -> OracleResult:
    """Every maximal plex by exhaustion over vertex subsets and frame runs.

    Refuses instances above the size guard instead of running for hours.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = graph.vertex_count
    if n > max_vertices or graph.lifetime > max_lifetime:
        raise ValueError(
            f"instance too large for the exhaustive oracle "
            f"(|V|={n} > {max_vertices} or lifetime={graph.lifetime} > "
            f"{max_lifetime})"
        )
    last_frame = graph.lifetime - delta
    if last_frame < 1:
        raise ValueError(f"delta {delta} too large for lifetime {graph.lifetime}")
    times = _pair_times(graph)

    found: list[PlexRecord] = []
    everyone = range(n)
    for size in range(1, n + 1):
        for group in combinations(everyone, size):
            feasible = [
                i for i in range(1, last_frame + 1)
                if _frame_ok(times, delta, k, group, i)
            ]
            # maximal runs of feasible frames are the time-maximal intervals
            runs: list[Interval] = []
            for i in feasible:
                if runs and runs[-1].end == i - 1:
                    runs[-1] = Interval(runs[-1].start, i)
                else:
                    runs.append(Interval(i, i))
            for run in runs:
                extendable = any(
                    v not in group
                    and all(
                        _frame_ok(times, delta, k, group + (v,), i)
                        for i in run.members()
                    )
                    for v in everyone
                )
                if not extendable:
                    found.append(PlexRecord(group, run))
    found.sort(key=lambda r: (r.vertices, r.interval))
    return OracleResult(tuple(found))


def static_degeneracy(adjacency: dict[int, set[int]]) -> int:
    """Iterated minimum-degree removal by naive scanning."""
    remaining = {v: set(nb) for v, nb in adjacency.items()}
    worst = 0
    while remaining:
        v = min(remaining, key=lambda u: (len(remaining[u]), u))
        worst = max(worst, len(remaining[v]))
        for w in remaining[v]:
            remaining[w].discard(v)
        del remaining[v]
    return worst
