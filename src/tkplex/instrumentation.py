"""Debug-time invariant checks for the recursion.

The monitor takes each call's own state: segment bitsets, the pool and the
non-neighborhood index.  Of the index it trusts only the segment starts,
through ``runs`` (a bitset to its frame intervals) and ``segment`` (a
frame to its bit); it never reads the index rows.  Every value it expects
it recomputes from the raw edge list, with the oracle's pair times, frame
predicate and maximal runs, so a passing run is independent
evidence that the pool, the candidate sets, and the call tree are all
consistent.  Intended for small instances only; every call costs
O(|V|^2 * frames).
"""

from __future__ import annotations

from .graph import NonNeighborhoodIndex, TemporalGraph
from .intervals import Interval
from .oracle import frame_ok, has_edge_in, maximal_runs, non_neighbors, pair_times
from .pairset import PairSet
from .pool import Pool
from .search import SearchConfig


class InvariantViolation(AssertionError):
    pass


class InvariantMonitor:
    """Checks pool counts, candidate exactness, and call uniqueness.

    Attach via the ``monitor`` argument of ``enumerate_maximal_plexes``,
    built from the run's own ``SearchConfig``.  A connected run lists
    plexes of order >= 2k+1 only, whose members lie in the (k+1)-core of
    every frame's snapshot, so there a group is feasible on a frame only
    if all of it lies in that core.
    """

    def __init__(self, graph: TemporalGraph, config: SearchConfig):
        self.graph = graph
        self.delta, self.k = config.delta, config.k
        self.last_frame = graph.lifetime - config.delta
        self.calls_seen: set[tuple] = set()
        self._times = pair_times(graph)
        self._cores = (
            [self._core(i, self.k + 1) for i in range(1, self.last_frame + 1)]
            if config.connectedness else None
        )

    def _core(self, i: int, order: int) -> set[int]:
        """The order-core of frame i's snapshot, peeled to a fixpoint."""
        adjacency: dict[int, set[int]] = {}
        for (u, w), times in self._times.items():
            if has_edge_in(times, i, i + self.delta):
                adjacency.setdefault(u, set()).add(w)
                adjacency.setdefault(w, set()).add(u)
        alive = set(adjacency)
        while True:
            weak = {v for v in alive if len(adjacency[v] & alive) < order}
            if not weak:
                return alive
            alive -= weak

    def _feasible_runs(self, group: tuple[int, ...]) -> list[Interval]:
        return maximal_runs(
            i for i in range(1, self.last_frame + 1)
            if (self._cores is None or self._cores[i - 1].issuperset(group))
            and frame_ok(self._times, self.delta, self.k, group, i)
        )

    def on_call(
        self,
        members: tuple[int, ...],
        lifetimes: int,
        candidates: PairSet,
        excluded: PairSet,
        pool: Pool,
        index: NonNeighborhoodIndex,
    ) -> None:
        """Check one call's state, decoded to frame runs and counts."""

        def decode(bits: int) -> tuple[Interval, ...]:
            return tuple(iv for _, iv in index.runs(bits))

        frames = decode(lifetimes)
        entries = [
            {w: decode(f) for w, f in pairs.items()}
            for pairs in (candidates, excluded)
        ]
        self._check_call_unique(members, frames)
        self._check_pool(members, frames, *entries, pool, index)
        self._check_lifetimes(members, frames)
        self._check_candidates(members, frames, *entries)

    def _check_call_unique(self, members, lifetimes) -> None:
        fingerprint = (frozenset(members), lifetimes)
        if fingerprint in self.calls_seen:
            shown = "{" + ",".join(map(str, lifetimes)) + "}"
            raise InvariantViolation(
                f"duplicate recursive call for {sorted(members)} {shown}"
            )
        self.calls_seen.add(fingerprint)

    def _check_pool(
        self, members, lifetimes, candidates, excluded, pool, index
    ) -> None:
        tracked = dict(candidates)
        tracked.update(excluded)
        for c in members:
            tracked[c] = lifetimes
        for w, runs in tracked.items():
            for frame in (i for iv in runs for i in iv.members()):
                expected = non_neighbors(
                    self._times, self.delta, members, w, frame
                )
                got = pool.count(w, index.segment(frame))
                if got != expected:
                    raise InvariantViolation(
                        f"pool count for vertex {w} frame {frame} is {got}, "
                        f"expected {expected} (plex {sorted(members)})"
                    )

    def _check_lifetimes(self, members, lifetimes) -> None:
        if not members:
            return
        runs = set(self._feasible_runs(tuple(members)))
        for iv in lifetimes:
            if iv not in runs:
                raise InvariantViolation(
                    f"{sorted(members)} is not a time-maximal plex on {iv}"
                )

    def _check_candidates(self, members, lifetimes, candidates, excluded) -> None:
        in_plex = set(members)
        entries = dict(candidates)
        for v, runs in excluded.items():
            if v in entries:
                raise InvariantViolation(
                    f"vertex {v} present in both candidate and excluded sets"
                )
            entries[v] = runs
        for v in range(self.graph.vertex_count):
            if v in in_plex:
                continue
            grown = tuple(sorted((*members, v)))
            expected = tuple(
                run
                for run in self._feasible_runs(grown)
                if any(iv.start <= run.start and run.end <= iv.end
                       for iv in lifetimes)
            )
            got = entries.get(v, ())
            if got != expected:
                raise InvariantViolation(
                    f"candidate entry for vertex {v} at plex {sorted(members)} "
                    f"is {got}, expected {expected}"
                )
