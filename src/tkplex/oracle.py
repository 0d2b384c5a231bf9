"""Exhaustive ground truth for desk-scale instances.

Deliberately shares nothing with the search machinery beyond the graph type:
no interval algebra, no precomputed index.  Agreement between this module and
the enumerator is the project's main correctness evidence.  Its pair times,
window test, frame predicate and run builder are also the invariant
monitor's, so both checkers state the plex once.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterable

from .graph import TemporalGraph
from .intervals import Interval
from .search import PlexRecord

MAX_ORACLE_VERTICES = 8
MAX_ORACLE_LIFETIME = 10


def pair_times(graph: TemporalGraph) -> dict[tuple[int, int], list[int]]:
    """The ascending contact times of each pair (u, v) with u < v."""
    times: dict[tuple[int, int], list[int]] = {}
    for t, u, v in graph.edges:
        times.setdefault((u, v), []).append(t)
    return times


def has_edge_in(times: list[int] | None, lo: int, hi: int) -> bool:
    if not times:
        return False
    i = bisect_left(times, lo)
    return i < len(times) and times[i] <= hi


def non_neighbors(times, delta: int, group, v: int, i: int) -> int:
    """How many of ``group`` miss v on frame i; v counts itself."""
    missing = 0
    for u in group:
        key = (u, v) if u < v else (v, u)
        if u == v or not has_edge_in(times.get(key), i, i + delta):
            missing += 1
    return missing


def frame_ok(times, delta: int, k: int, group, i: int) -> bool:
    """The plex predicate on frame i: no vertex misses more than k of ``group``."""
    return all(non_neighbors(times, delta, group, v, i) <= k for v in group)


def maximal_runs(frames: Iterable[int]) -> list[Interval]:
    """Ascending frames grouped into maximal runs of consecutive frames."""
    runs: list[Interval] = []
    for i in frames:
        if runs and runs[-1].end == i - 1:
            runs[-1] = Interval(runs[-1].start, i)
        else:
            runs.append(Interval(i, i))
    return runs


def is_plex(
    graph: TemporalGraph, delta: int, k: int, vertices, interval: Interval
) -> bool:
    """Direct check of the plex predicate over every frame of ``interval``."""
    group = tuple(vertices)
    times = pair_times(graph)
    return all(frame_ok(times, delta, k, group, i) for i in interval.members())


def enumerate_all_maximal(
    graph: TemporalGraph, delta: int, k: int
) -> tuple[PlexRecord, ...]:
    """Every maximal plex by exhaustion over vertex subsets and frame runs,
    ordered by vertex set then interval start.

    Refuses instances above the size guard instead of running for hours.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = graph.vertex_count
    if n > MAX_ORACLE_VERTICES or graph.lifetime > MAX_ORACLE_LIFETIME:
        raise ValueError(
            f"instance too large for the exhaustive oracle "
            f"(|V|={n} > {MAX_ORACLE_VERTICES} or lifetime={graph.lifetime} > "
            f"{MAX_ORACLE_LIFETIME})"
        )
    last_frame = graph.lifetime - delta
    if last_frame < 1:
        raise ValueError(f"delta {delta} too large for lifetime {graph.lifetime}")
    times = pair_times(graph)

    found: list[PlexRecord] = []
    everyone = range(n)
    for size in range(1, n + 1):
        for group in combinations(everyone, size):
            # maximal runs of feasible frames are the time-maximal intervals
            for run in maximal_runs(
                i for i in range(1, last_frame + 1)
                if frame_ok(times, delta, k, group, i)
            ):
                extendable = any(
                    v not in group
                    and all(
                        frame_ok(times, delta, k, group + (v,), i)
                        for i in run.members()
                    )
                    for v in everyone
                )
                if not extendable:
                    found.append(PlexRecord(group, run))
    return tuple(sorted(found))


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
