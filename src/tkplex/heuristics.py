"""Search pruning: pivot suppression, applied in every call, and the optional
connectedness candidate filter.  Both are pure decision functions; the
enumerator applies their verdicts without mutating its candidate sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import NonNeighborhoodIndex
from .pairset import PairSet


@dataclass(frozen=True)
class PivotChoice:
    pivot: int
    suppressed: frozenset[int]


def select_pivot(
    members: Iterable[int],
    lifetimes: int,
    candidates: PairSet,
    excluded: PairSet,
    index: NonNeighborhoodIndex,
) -> PivotChoice | None:
    """Pick the pivot whose fully-adjacent candidate set is largest.

    Eligible pivots are candidate or excluded vertices adjacent to every plex
    member throughout the call's entire lifetime frame set, so any plex
    interval emitted below this call can absorb the pivot.  A candidate is
    suppressed when it is adjacent to the pivot throughout the candidate's
    frame set.  Ties break toward the smallest vertex index; returns None
    when no vertex is eligible.
    """
    entries = dict(excluded)
    entries.update(candidates)
    members = tuple(members)
    best: tuple[int, frozenset[int]] | None = None
    for p in sorted(entries):
        # an eligible pivot extends the plex on every lifetime frame, so its
        # entry is exactly the lifetimes: any other entry fails the check below
        if entries[p] != lifetimes:
            continue
        if any(lifetimes & index.nonneighbor_frames(p, c) for c in members):
            continue
        suppressed = frozenset(
            w
            for w, iw in candidates.items()
            if w != p and not iw & index.nonneighbor_frames(p, w)
        )
        if best is None or len(suppressed) > len(best[1]):
            best = (p, suppressed)
    return None if best is None else PivotChoice(*best)


def connected_candidates(
    candidates: PairSet,
    members: Iterable[int],
    lifetimes: int,
    index: NonNeighborhoodIndex,
) -> PairSet:
    """Candidates with an edge to some plex member inside a shared frame.

    With an empty plex every candidate qualifies.  An empty result means the
    current call cannot grow into a connected plex and may stop early.
    """
    members = tuple(members)
    if not members:
        return dict(candidates)
    out: PairSet = {}
    for w, iw in candidates.items():
        window = iw & lifetimes
        if not window:
            continue
        if any(window & ~index.nonneighbor_frames(w, c) for c in members):
            out[w] = iw
    return out
