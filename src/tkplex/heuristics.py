"""Search pruning: pivot suppression, applied in every call, and the optional
connectedness candidate filter.  Both are pure decision functions, and the
enumerator applies their verdicts."""

from __future__ import annotations

from .graph import NonNeighborhoodIndex
from .pairset import PairSet


def select_pivot(
    members: tuple[int, ...],
    lifetimes: int,
    candidates: PairSet,
    excluded: PairSet,
    index: NonNeighborhoodIndex,
) -> tuple[int, frozenset[int]] | None:
    """Pick the pivot whose fully-adjacent candidate set is largest.

    Eligible pivots are candidate or excluded vertices adjacent to every plex
    member throughout the call's entire lifetime frame set, so any plex
    interval emitted below this call can absorb the pivot.  A candidate is
    suppressed when it is adjacent to the pivot throughout the candidate's
    frame set.  Returns ``(pivot, suppressed)``, with ties broken toward the
    smallest vertex index, or None when no vertex is eligible.

    The scan stops once no later vertex can suppress more: a candidate
    pivot suppresses at most |candidates| - 1 vertices and an excluded one
    at most |candidates|.
    """
    # an eligible pivot extends the plex on every lifetime frame, so its
    # entry is exactly the lifetimes
    pivots = [p for p, ip in excluded.items() if ip == lifetimes]
    # the last excluded vertex that could pivot: from it on, no later vertex
    # can beat a suppressed set of |candidates| - 1
    last_excluded = max(pivots, default=-1)
    pivots += [p for p, ip in candidates.items() if ip == lifetimes]
    if not pivots:
        return None
    rows, full = index.rows, index.full
    best: tuple[int, frozenset[int]] | None = None
    for p in sorted(pivots):
        row = rows[p]
        if any(lifetimes & row.get(c, full) for c in members):
            continue
        suppressed = frozenset(
            w
            for w, iw in candidates.items()
            if w != p and not iw & row.get(w, full)
        )
        if best is None or len(suppressed) > len(best[1]):
            best = (p, suppressed)
            bound = len(candidates) - (p >= last_excluded)
            if len(suppressed) >= bound:
                break
    return best


def connected_candidates(
    candidates: PairSet,
    members: tuple[int, ...],
    index: NonNeighborhoodIndex,
) -> PairSet:
    """Candidates with an edge to some plex member inside a shared frame.

    ``members`` is non-empty; with an empty plex every candidate would
    qualify.  An empty result means the current call cannot grow into a
    connected plex and may stop early.  The search cuts every entry to its
    call's lifetimes, so an entry is tested as it stands.
    """
    rows, full = index.rows, index.full
    out: PairSet = {}
    for w, iw in candidates.items():
        row = rows[w]
        if any(iw & row.get(c, full) != iw for c in members):
            out[w] = iw
    return out
