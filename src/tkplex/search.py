"""Recursive enumeration of all maximal temporal k-plexes.

The search walks vertex-frame-set candidates in ascending vertex order,
keeps a copy-on-write pool of per-segment non-neighbor counts, and reports
every maximal plex exactly once through a caller-supplied sink.  Inside the
search every frame set is an ``int`` bitset over the index's segments;
plex records carry frame intervals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol

from .graph import FrameDomain, NonNeighborhoodIndex, TemporalGraph
from .heuristics import connected_candidates, select_pivot
from .intervals import Interval, IntervalSet
from .pairset import PairSet
from .pool import Pool


@dataclass
class SearchConfig:
    """Parameters of one enumeration run."""

    delta: int
    k: int
    connectedness: bool = False
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")

    @property
    def min_size(self) -> int:
        # connected plexes need order >= 2k+1 to be connected in every frame
        return 2 * self.k + 1 if self.connectedness else 1


@dataclass(frozen=True)
class PlexRecord:
    """One maximal plex: sorted vertex indices and a frame interval."""

    vertices: tuple[int, ...]
    interval: Interval


@dataclass
class RunStats:
    plex_count: int = 0
    max_plex_order: int = 0
    max_lifetime_length: int = 0
    recursive_calls: int = 0
    wall_time_seconds: float = 0.0  # frame domain, index and search
    index_seconds: float = 0.0
    search_seconds: float = 0.0
    timed_out: bool = False


class CallMonitor(Protocol):
    """Debug hook invoked at the top of every recursive call.

    It sees frame sets as ``IntervalSet``s and pool counts per frame.
    """

    def on_call(
        self,
        members: tuple[int, ...],
        lifetimes: IntervalSet,
        candidates: dict[int, IntervalSet],
        excluded: dict[int, IntervalSet],
        count: Callable[[int, int], int],  # (vertex, frame) -> pool count
    ) -> None: ...


Sink = Callable[[PlexRecord], None]


class _TimeLimitReached(Exception):
    pass


def update_pool(
    pool: Pool,
    members: tuple[int, ...],
    pair: tuple[int, int],
    candidates: PairSet,
    excluded: PairSet,
    index: NonNeighborhoodIndex,
    k: int,
) -> tuple[Pool, PairSet]:
    """Account for a vertex newly added to the plex vertex set.

    Returns the successor pool plus the critical pairs: every (vertex,
    frames) whose non-neighbor count inside the grown set reaches exactly k.
    ``members`` holds the new vertex v; an entry for v in ``candidates`` or
    ``excluded`` is ignored.
    """
    v, iv = pair
    row, full = index.rows[v], index.full
    new_pool = pool.copy()
    increment = new_pool.increment
    critical: PairSet = {}
    for entries in (candidates.items(), excluded.items()):
        for w, iw in entries:
            frames = iw & row.get(w, full)
            if frames and w != v:
                hits = increment(w, frames, critical_at=k)
                if hits:
                    critical[w] = hits
    for w in members:  # every member is tracked on the new vertex's frames
        frames = iv & row.get(w, full)
        if frames:
            hits = increment(w, frames, critical_at=k)
            if hits:
                critical[w] = hits
    return new_pool, critical


def update_candidates(
    source: PairSet,
    members: tuple[int, ...],
    critical: PairSet,
    pair: tuple[int, int],
    index: NonNeighborhoodIndex,
) -> PairSet:
    """Shrink candidate (or excluded) entries after growing the plex.

    Each surviving entry keeps exactly the frames where its vertex still
    extends the plex time-maximally: restricted to the new lifetime and
    stripped of frames where a critical vertex of the plex (or the entry
    itself) is a non-neighbor.
    """
    v, iv = pair
    rows, full = index.rows, index.full
    blockers = [(critical[u], rows[u]) for u in members if u in critical]
    out: PairSet = {}
    for w, iw in source.items():
        if w == v:
            continue
        iw &= iv
        own = critical.get(w)
        if iw and own:  # its self-row is full: its own critical frames block it
            iw &= ~own
        for blocked, row in blockers:
            if not iw:
                break
            iw &= ~(blocked & row.get(w, full))
        if iw:
            out[w] = iw
    return out


def emit_maximal(
    members: tuple[int, ...],
    lifetimes: int,
    candidates: PairSet,
    excluded: PairSet,
    index: NonNeighborhoodIndex,
    min_size: int = 1,
) -> list[PlexRecord]:
    """Plex records for the lifetime runs no candidate matches exactly.

    A run is withheld when some candidate or excluded entry holds all of
    it.  Every entry is a subset of the lifetimes, so such an entry has that
    exact run as one of its own maximal runs.
    """
    if len(members) < min_size:
        return []
    entries = [*candidates.values(), *excluded.values()]
    ordered = tuple(sorted(members))
    return [
        PlexRecord(ordered, iv)
        for run, iv in index.runs(lifetimes)
        if not any(e & run == run for e in entries)
    ]


def enumerate_maximal_plexes(
    graph: TemporalGraph,
    config: SearchConfig,
    sink: Sink | None = None,
    monitor: CallMonitor | None = None,
) -> RunStats:
    """Run the full recursion and stream every maximal plex to ``sink``.

    Every call with candidates pivots; ``config`` may switch on the
    connectedness filter, and a time limit stops the search with partial
    output and ``timed_out`` set.
    """
    started = time.monotonic()
    fd = FrameDomain.for_graph(graph, config.delta)
    index_started = time.monotonic()
    index = NonNeighborhoodIndex(graph, fd)
    search_started = time.monotonic()
    stats = RunStats(index_seconds=search_started - index_started)
    deadline = None if config.time_limit is None else started + config.time_limit
    k = config.k

    def recurse(
        candidates: PairSet,
        members: tuple[int, ...],
        lifetimes: int,
        excluded: PairSet,
        pool: Pool,
    ) -> None:
        stats.recursive_calls += 1
        if deadline is not None and time.monotonic() > deadline:
            raise _TimeLimitReached
        if monitor is not None:
            entries = ({w: _frame_set(index, f) for w, f in pairs.items()}
                       for pairs in (candidates, excluded))
            monitor.on_call(members, _frame_set(index, lifetimes), *entries,
                            lambda w, frame: pool.count(w, index.segment(frame)))
        for record in emit_maximal(
            members, lifetimes, candidates, excluded, index, config.min_size
        ):
            stats.plex_count += 1
            stats.max_plex_order = max(stats.max_plex_order, len(record.vertices))
            stats.max_lifetime_length = max(
                stats.max_lifetime_length, record.interval.length()
            )
            if sink is not None:
                sink(record)
        if not candidates:
            return
        eligible = None
        if config.connectedness and members:
            eligible = set(
                connected_candidates(candidates, members, lifetimes, index)
            )
            if not eligible:
                return
        choice = select_pivot(members, lifetimes, candidates, excluded, index)
        suppressed = frozenset() if choice is None else choice.suppressed
        remaining = dict(candidates)
        tried = dict(excluded)
        for v in sorted(candidates):
            if v in suppressed:
                continue
            if eligible is not None and v not in eligible:
                continue
            iv = remaining[v]
            grown = members + (v,)
            pool2, critical = update_pool(
                pool, grown, (v, iv), remaining, tried, index, k
            )
            recurse(
                update_candidates(remaining, grown, critical, (v, iv), index),
                grown,
                iv,
                update_candidates(tried, grown, critical, (v, iv), index),
                pool2,
            )
            del remaining[v]
            tried[v] = iv

    full = index.full
    root_candidates = {v: full for v in range(graph.vertex_count)}
    try:
        recurse(root_candidates, (), full, {}, Pool(full.bit_length()))
    except _TimeLimitReached:
        stats.timed_out = True
    finished = time.monotonic()
    stats.search_seconds = finished - search_started
    stats.wall_time_seconds = finished - started
    return stats


def _frame_set(index: NonNeighborhoodIndex, frames: int) -> IntervalSet:
    return IntervalSet._raw([iv for _, iv in index.runs(frames)])


def collect_maximal_plexes(
    graph: TemporalGraph,
    config: SearchConfig,
    monitor: CallMonitor | None = None,
) -> tuple[list[PlexRecord], RunStats]:
    """Convenience wrapper materializing all records in memory."""
    records: list[PlexRecord] = []
    stats = enumerate_maximal_plexes(graph, config, records.append, monitor)
    return records, stats
