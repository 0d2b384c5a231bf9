"""Vertex-to-interval-set mappings.

A pair set is a plain ``dict[int, IntervalSet]``; entries with an empty
interval set are never stored.  ``merge_pair`` returns a new dict and never
mutates its argument.
"""

from __future__ import annotations

from .intervals import IntervalSet

PairSet = dict[int, IntervalSet]


def merge_pair(vertex: int, iset: IntervalSet, pairs: PairSet) -> PairSet:
    """Insert (vertex, iset), unioning with an existing entry for vertex."""
    if iset.is_empty():
        return dict(pairs)
    out = dict(pairs)
    existing = out.get(vertex)
    out[vertex] = iset if existing is None else existing.union(iset)
    return out
