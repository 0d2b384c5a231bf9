"""Temporal graph model: ingestion, frame arithmetic, non-neighbor index,
slice degeneracy, and the combinatorial output bound."""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from .intervals import Interval

log = logging.getLogger(__name__)


class EdgeListParseError(ValueError):
    """Malformed, empty, or otherwise unusable edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class TemporalGraph:
    """Undirected temporal graph with dense vertex indices.

    ``labels`` maps index -> original vertex name (sorted lexicographically at
    ingestion, so index order equals label order).  ``edges`` holds distinct
    (t, u, v) triples with u < v, sorted, and timestamps in [1, lifetime].
    Instances are treated as immutable after construction.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]
    lifetime: int

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def union_adjacency(self) -> dict[int, set[int]]:
        """Static adjacency of the underlying (time-collapsed) graph."""
        adj: dict[int, set[int]] = {v: set() for v in range(self.vertex_count)}
        for _, u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def parse_edge_list(
    text: str,
    column_spec: tuple[int, int, int] = (0, 1, 2),
    on_self_loop: str = "error",
) -> TemporalGraph:
    """Build a graph from whitespace-separated edge lines.

    ``column_spec`` gives the (timestamp, vertex, vertex) column indices;
    extra columns are ignored and '#' lines are comments.  Timestamps are
    shifted so the smallest maps to 1, and repeated contacts collapse into
    one.  Self-loops are rejected unless ``on_self_loop`` is "skip".
    """
    if on_self_loop not in ("error", "skip"):
        raise ValueError(f"unknown self-loop policy {on_self_loop!r}")
    t_col, u_col, v_col = column_spec
    need = max(column_spec) + 1
    raw: list[tuple[int, str, str]] = []
    self_loops = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < need:
            raise EdgeListParseError(
                f"expected at least {need} columns, got {len(fields)}", line_no
            )
        try:
            t = int(fields[t_col])
        except ValueError:
            raise EdgeListParseError(
                f"bad timestamp {fields[t_col]!r}", line_no
            ) from None
        if t < 0:
            raise EdgeListParseError(f"negative timestamp {t}", line_no)
        a, b = fields[u_col], fields[v_col]
        if a == b:
            self_loops += 1
            if on_self_loop == "error":
                raise EdgeListParseError(f"self-loop on vertex {a!r}", line_no)
            continue
        raw.append((t, a, b))
    if self_loops:
        log.warning("skipped %d self-loop edge(s)", self_loops)
    if not raw:
        raise EdgeListParseError("empty input")

    labels = tuple(sorted({name for _, a, b in raw for name in (a, b)}))
    index = {name: i for i, name in enumerate(labels)}
    shift = min(t for t, _, _ in raw) - 1
    sorted_edges = tuple(sorted(
        {(t - shift, *sorted((index[a], index[b]))) for t, a, b in raw}
    ))
    lifetime = max(t for t, _, _ in sorted_edges)
    return TemporalGraph(labels, sorted_edges, lifetime)


def normalize_timestamps(graph: TemporalGraph, resolution: int) -> TemporalGraph:
    """Rescale timestamps to step size 1: t -> (t - min) / resolution + 1.

    ``resolution`` must divide every shifted timestamp.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    t_min = min(t for t, _, _ in graph.edges)
    edges = []
    for t, u, v in graph.edges:
        shifted = t - t_min
        if shifted % resolution:
            raise EdgeListParseError(
                f"timestamp {t} is not aligned to resolution {resolution}"
            )
        edges.append((shifted // resolution + 1, u, v))
    edges = tuple(sorted(set(edges)))
    return TemporalGraph(graph.labels, edges, max(t for t, _, _ in edges))


def render_edge_list(graph: TemporalGraph) -> str:
    """Inverse of parse_edge_list for the default column order."""
    lines = [
        f"{t} {graph.labels[u]} {graph.labels[v]}" for t, u, v in graph.edges
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FrameDomain:
    """Window width delta and the index range [1, last_frame] of frames."""

    delta: int
    last_frame: int

    @classmethod
    def for_graph(cls, graph: TemporalGraph, delta: int) -> "FrameDomain":
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if graph.lifetime - delta < 1:
            raise ValueError(
                f"delta {delta} too large for lifetime {graph.lifetime}"
            )
        return cls(delta, graph.lifetime - delta)


def frames_covered(t: int, fd: FrameDomain) -> Interval:
    """Frame indices i whose window [i, i+delta] contains time step t."""
    return Interval(max(1, t - fd.delta), min(fd.last_frame, t))


def segment_starts(graph: TemporalGraph, fd: FrameDomain) -> list[int]:
    """First frame of each segment, ascending.

    The frames are cut at 1, at max(1, t - delta) and at t + 1 for every
    contact t, so no window's edge set changes inside a segment.
    """
    delta, last = fd.delta, fd.last_frame
    cuts = {1}
    for t, _, _ in graph.edges:
        cuts.add(max(1, t - delta))
        if t < last:
            cuts.add(t + 1)
    return sorted(cuts)


class _Frames(int):
    """A segment bitset whose ``len()`` is its number of maximal runs."""

    __slots__ = ()

    def __len__(self) -> int:
        return (self & ~(self << 1)).bit_count()


class NonNeighborhoodIndex:
    """Per-pair frame sets where two vertices share no edge in the window.

    A frame set is an ``int`` bitset whose bit i stands for segment i (see
    ``segment_starts``), so there are at most 2m + 1 bits however long the
    lifetime.  Pairs that never share an edge are kept implicit (full
    domain).  ``rows[v]`` maps each w that shares an edge with v to the
    pair's bitset, and v itself to ``full``, so a lookup is
    ``rows[v].get(w, full)``.  This is the library's one grouping of edges
    by vertex pair; the oracle and the invariant monitor keep their own on
    purpose.
    """

    def __init__(self, graph: TemporalGraph, fd: FrameDomain):
        self.frame_domain = fd
        delta, last = fd.delta, fd.last_frame
        by_pair: dict[tuple[int, int], list[int]] = {}
        for t, u, v in graph.edges:  # edges sorted by t
            by_pair.setdefault((u, v), []).append(t)
        self._starts = segment_starts(graph, fd)
        segment = {frame: i for i, frame in enumerate(self._starts)}
        n = len(self._starts)
        self.full = (1 << n) - 1
        self._pairs: dict[tuple[int, int], _Frames] = {}
        for pair, times in by_pair.items():
            neighbor = lo = hi = 0  # open run of neighbor segments [lo, hi)
            for t in times:
                a = segment[max(1, t - delta)]
                if a > hi:
                    neighbor |= (1 << hi) - (1 << lo)
                    lo = a
                hi = segment[t + 1] if t < last else n
            neighbor |= (1 << hi) - (1 << lo)
            self._pairs[pair] = _Frames(self.full ^ neighbor)
        self.rows: list[dict[int, int]] = [
            {v: self.full} for v in range(graph.vertex_count)
        ]
        for (u, v), frames in self._pairs.items():
            self.rows[u][v] = self.rows[v][u] = frames

    def runs(self, frames: int) -> Iterator[tuple[int, Interval]]:
        """Each maximal run of ``frames``: its segment mask and frame interval."""
        starts = self._starts
        while frames:
            low = frames & -frames
            run = frames & ~(frames + low)
            frames ^= run
            hi = run.bit_length()
            end = starts[hi] - 1 if hi < len(starts) else self.frame_domain.last_frame
            yield run, Interval(starts[low.bit_length() - 1], end)

    def segment(self, frame: int) -> int:
        """Index of the segment that holds ``frame``."""
        return bisect_right(self._starts, frame) - 1


def _bucket_degeneracy(adjacency: dict[int, set[int]]) -> int:
    """Static degeneracy by bucket-queue minimum-degree peeling."""
    degree = {v: len(nb) for v, nb in adjacency.items()}
    if not degree:
        return 0
    max_deg = max(degree.values())
    buckets: list[set[int]] = [set() for _ in range(max_deg + 1)]
    for v, d in degree.items():
        buckets[d].add(v)
    removed: set[int] = set()
    best = 0
    cursor = 0
    for _ in range(len(adjacency)):
        while not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        best = max(best, cursor)
        removed.add(v)
        for w in adjacency[v]:
            if w in removed:
                continue
            d = degree[w]
            buckets[d].discard(w)
            degree[w] = d - 1
            buckets[d - 1].add(w)
        cursor = max(0, cursor - 1)
    return best


def delta_slice_degeneracy(graph: TemporalGraph, fd: FrameDomain) -> int:
    """Maximum static degeneracy over all frame snapshot graphs.

    All frames of a segment share one snapshot: for the segment starting at
    frame i, the edges with t in [i, i + delta].  Each is peeled on its own.
    """
    times = [t for t, _, _ in graph.edges]
    best = 0
    for i in segment_starts(graph, fd):
        lo, hi = bisect_left(times, i), bisect_right(times, i + fd.delta)
        adjacency: dict[int, set[int]] = {}
        for _, u, v in graph.edges[lo:hi]:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        best = max(best, _bucket_degeneracy(adjacency))
    return best


def plex_count_upper_bound(n: int, k: int, d: int, m: int, lifetime: int) -> int:
    """n * C(n, k) * 2^(d+k) * min(m, lifetime), exactly."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return n * math.comb(n, k) * 2 ** (d + k) * min(m, lifetime)
