"""Recursive enumeration of all maximal temporal k-plexes.

The search walks vertex-frame-set candidates in ascending vertex order,
keeps a copy-on-write pool of per-segment non-neighbor counts, and reports
every maximal plex exactly once through a caller-supplied sink.  Inside the
search every frame set is an ``int`` bitset over the index's segments;
plex records carry frame intervals.  The recursion runs on an explicit
stack with one generator per open call, so its depth, which equals the
plex order, is not bounded by the interpreter's stack.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .graph import FrameDomain, NonNeighborhoodIndex, TemporalGraph, core_frames
from .heuristics import connected_candidates, select_pivot
from .intervals import Interval
from .pairset import PairSet
from .pool import Pool

if TYPE_CHECKING:  # an annotation only: a search never loads its checker
    from .instrumentation import InvariantMonitor


class _SearchFields(NamedTuple):
    """The fields of ``SearchConfig``, whose ``__new__`` checks them."""

    delta: int
    k: int
    connectedness: bool = False
    time_limit: float | None = None


class SearchConfig(_SearchFields):
    """Parameters of one enumeration run, checked when it is built."""

    __slots__ = ()

    def __new__(
        cls,
        delta: int,
        k: int,
        connectedness: bool = False,
        time_limit: float | None = None,
    ) -> SearchConfig:
        if k < 1:
            raise ValueError("k must be at least 1")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if time_limit is not None and not time_limit >= 0:  # NaN too
            raise ValueError("time limit must be a non-negative number")
        return super().__new__(cls, delta, k, connectedness, time_limit)

    @property
    def min_size(self) -> int:
        # connected plexes need order >= 2k+1 to be connected in every frame
        return 2 * self.k + 1 if self.connectedness else 1


class PlexRecord(NamedTuple):
    """One maximal plex: sorted vertex indices and a frame interval."""

    vertices: tuple[int, ...]
    interval: Interval


class RunStats(NamedTuple):
    """Counters and phase timers of one run."""

    plex_count: int = 0
    max_plex_order: int = 0
    max_lifetime_length: int = 0
    recursive_calls: int = 0
    wall_time_seconds: float = 0.0  # frame domain, index, core peel and search
    index_seconds: float = 0.0  # non-neighbor index
    core_seconds: float = 0.0  # root core peel, with a minimum plex order
    search_seconds: float = 0.0
    timed_out: bool = False


Sink = Callable[[PlexRecord], None]


def update_pool(
    pool: Pool,
    members: tuple[int, ...],
    pair: tuple[int, int],
    index: NonNeighborhoodIndex,
) -> tuple[Pool, list[tuple[int, dict[int, int]]]]:
    """Count a vertex newly added to the plex against the plex members.

    ``members`` holds the new vertex v, which counts itself through its
    full self-row.  Returns the successor pool, still to be incremented for
    the candidate and excluded entries by ``update_candidates``, and the
    blockers: one ``(frames, rows[u])`` pair for each member u whose
    non-neighbor count reaches exactly k on those frames.
    """
    v, iv = pair
    rows, full = index.rows, index.full
    row = rows[v]
    new_pool = pool.copy()
    increment = new_pool.increment
    blockers = []
    for u in members:
        frames = iv & row.get(u, full)
        if frames:
            hits = increment(u, frames)
            if hits:
                blockers.append((hits, rows[u]))
    return new_pool, blockers


def update_candidates(
    source: PairSet,
    pool: Pool,
    blockers: list[tuple[int, dict[int, int]]],
    pair: tuple[int, int],
    index: NonNeighborhoodIndex,
) -> PairSet:
    """Shrink candidate (or excluded) entries, then count the new vertex for them.

    Each entry is cut to the new lifetime (v's frames) and stripped of the
    frames where a critical member of the plex (a blocker) is a
    non-neighbor.  Only then does its count go up in ``pool``, on the frames
    left where v is a non-neighbor, and the frames where that count reaches
    k go too.  Entries only shrink, so no later call reads a count outside
    them.  A surviving entry keeps exactly the frames where its vertex
    still extends the plex time-maximally.  The source holds no entry for v.
    """
    v, iv = pair
    row, full = index.rows[v], index.full
    increment = pool.increment
    out: PairSet = {}
    for w, iw in source.items():
        iw &= iv
        for blocked, blocker_row in blockers:
            if not iw:
                break
            iw ^= iw & blocked & blocker_row.get(w, full)
        if not iw:
            continue
        frames = iw & row.get(w, full)
        if frames:  # its self-row is full: its own critical frames block it
            iw ^= increment(w, frames)
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
    exact run as one of its own maximal runs.  A run that leaves the union
    of all entries is emitted without testing the entries one by one.
    """
    if len(members) < min_size:
        return []
    entries = [*candidates.values(), *excluded.values()]
    covered = 0
    for e in entries:
        covered |= e
    ordered = tuple(sorted(members))
    return [
        PlexRecord(ordered, iv)
        for run, iv in index.runs(lifetimes)
        if run & covered != run or not any(e & run == run for e in entries)
    ]


def enumerate_maximal_plexes(
    graph: TemporalGraph,
    config: SearchConfig,
    sink: Sink | None = None,
    monitor: InvariantMonitor | None = None,
) -> RunStats:
    """Run the full recursion and stream every maximal plex to ``sink``.

    Every call with candidates pivots; ``config`` may switch on the
    connectedness filter, and a time limit stops the search with partial
    output and ``timed_out`` set.  When ``config.min_size`` exceeds k, each
    root entry holds only the segments where its vertex lies in the
    (min_size - k)-core of the window snapshot.
    """
    started = time.monotonic()
    fd = FrameDomain.for_graph(graph, config.delta)
    index_started = time.monotonic()
    index = NonNeighborhoodIndex(graph, fd)
    core_started = time.monotonic()
    # each member of a plex of order >= min_size has >= min_size - k
    # neighbours in every frame, so it lies in that frame's core
    order = config.min_size - config.k
    full = index.full
    roots = (core_frames(index, order) if order > 0
             else [full] * graph.vertex_count)
    search_started = time.monotonic()
    plex_count = max_plex_order = max_lifetime_length = recursive_calls = 0
    timed_out = False
    deadline = None if config.time_limit is None else started + config.time_limit

    def call(
        candidates: PairSet,
        members: tuple[int, ...],
        lifetimes: int,
        excluded: PairSet,
        pool: Pool,
    ) -> Iterator[tuple[PairSet, tuple[int, ...], int, PairSet, Pool]]:
        """One call: emit its records, then yield each child call's arguments."""
        nonlocal plex_count, max_plex_order, max_lifetime_length
        if monitor is not None:
            monitor.on_call(members, lifetimes, candidates, excluded, pool, index)
        records = emit_maximal(
            members, lifetimes, candidates, excluded, index, config.min_size
        )
        if records:
            plex_count += len(records)
            max_plex_order = max(max_plex_order, len(members))
            max_lifetime_length = max(
                max_lifetime_length, *(r.interval.length() for r in records)
            )
            if sink is not None:
                for record in records:
                    sink(record)
        if not candidates:
            return
        eligible = None
        if config.connectedness and members:
            eligible = connected_candidates(candidates, members, index)
            if not eligible:
                return
        pivot = select_pivot(members, lifetimes, candidates, excluded, index)
        branches = candidates.keys() - pivot[1] if pivot else candidates.keys()
        # every plex below holds a vertex the pivot leaves and an eligible
        # one, not always the same vertex: each set alone reaches them all,
        # so branch on the smaller, never on the two sets' intersection
        if eligible is not None and len(eligible) < len(branches):
            branches = eligible
        for v in sorted(branches):
            iv = candidates.pop(v)  # no other call holds either dict
            grown = members + (v,)
            pool2, blockers = update_pool(pool, grown, (v, iv), index)
            yield (
                update_candidates(candidates, pool2, blockers, (v, iv), index),
                grown,
                iv,
                update_candidates(excluded, pool2, blockers, (v, iv), index),
                pool2,
            )
            excluded[v] = iv

    # counts stop at the plex order, at most n, so n + 1 levels act as k
    pool = Pool(min(config.k, graph.vertex_count + 1))
    args = ({v: f for v, f in enumerate(roots) if f}, (), full, {}, pool)
    stack = []
    while args is not None or stack:
        if args is not None:
            recursive_calls += 1
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                break
            stack.append(call(*args))
        args = next(stack[-1], None)
        if args is None:
            stack.pop()
    finished = time.monotonic()
    return RunStats(
        plex_count, max_plex_order, max_lifetime_length, recursive_calls,
        wall_time_seconds=finished - started,
        index_seconds=core_started - index_started,
        core_seconds=search_started - core_started,
        search_seconds=finished - search_started,
        timed_out=timed_out,
    )


def collect_maximal_plexes(
    graph: TemporalGraph,
    config: SearchConfig,
    monitor: InvariantMonitor | None = None,
) -> tuple[list[PlexRecord], RunStats]:
    """Convenience wrapper materializing all records in memory."""
    records: list[PlexRecord] = []
    stats = enumerate_maximal_plexes(graph, config, records.append, monitor)
    return records, stats
