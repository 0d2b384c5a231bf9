"""Vertex-to-frame-set mappings.

A pair set is a plain ``dict[int, int]`` from a vertex to a segment bitset
(see ``NonNeighborhoodIndex``); empty sets are never stored.  ``merge_pair``
returns a new dict and never mutates its argument.  The search no longer
calls it; the benchmark's tracer (``perfbench/layers.py``) still wraps it
by name.
"""

from __future__ import annotations

PairSet = dict[int, int]


def merge_pair(vertex: int, frames: int, pairs: PairSet) -> PairSet:
    """Insert (vertex, frames), unioning with an existing entry for vertex."""
    out = dict(pairs)
    if frames:
        out[vertex] = out.get(vertex, 0) | frames
    return out
