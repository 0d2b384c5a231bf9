"""Temporal graph model: ingestion, frame arithmetic, non-neighbor index,
slice degeneracy, and the combinatorial output bound."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, NamedTuple

from .intervals import Interval


class EdgeListParseError(ValueError):
    """Malformed, empty, or otherwise unusable edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TemporalGraph(NamedTuple):
    """Undirected temporal graph with dense vertex indices.

    ``labels`` maps index -> original vertex name (sorted lexicographically at
    ingestion, so index order equals label order).  ``edges`` holds distinct
    (t, u, v) triples with u < v, sorted, and timestamps in [1, lifetime].
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


def parse_edge_list(
    text: str,
    column_spec: tuple[int, int, int] = (0, 1, 2),
    on_self_loop: str = "error",
    resolution: int = 1,
) -> TemporalGraph:
    """Build a graph from whitespace-separated edge lines.

    ``column_spec`` gives three distinct non-negative (timestamp, vertex,
    vertex) column indices; extra columns are ignored and a line whose
    first field starts with '#' is a comment.  Timestamps map to
    ``(t - smallest) // resolution + 1``, so the smallest maps to 1, and
    every timestamp must lie a multiple of ``resolution`` above the
    smallest.  Repeated contacts collapse into one.  Self-loops are
    rejected unless ``on_self_loop`` is "skip".

    One pass over the lines gives each label a small id when it is first
    seen and keeps each contact once, as a ``(t, id, id)`` key with its
    endpoints in label order.  A timestamp field is converted and checked
    only when its text differs from the last one converted, so the contacts
    of one time share one ``int``.  The keys stay in input order, so sorted
    input stays cheap to sort.  Only after the pass are the ids remapped to
    label ranks and the timestamps shifted and divided, once per run of
    equal times, so no per-line list is held.  A misaligned timestamp is
    blamed on the first kept line that holds one, which a second pass finds
    on that error alone.
    """
    if on_self_loop not in ("error", "skip"):
        raise ValueError(f"unknown self-loop policy {on_self_loop!r}")
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    if len(set(column_spec)) != 3 or min(column_spec) < 0:
        raise ValueError("column_spec needs three distinct non-negative indices")
    t_col, u_col, v_col = column_spec
    need = max(column_spec) + 1
    ids: dict[str, int] = {}
    contacts: dict[tuple[int, int, int], None] = {}
    self_loops = 0
    field = None  # the last timestamp text converted, whose value is t
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) < need:
            raise EdgeListParseError(
                f"expected at least {need} columns, got {len(fields)}", line_no
            )
        if fields[t_col] != field:
            field = fields[t_col]
            try:
                t = int(field)
            except ValueError:
                raise EdgeListParseError(f"bad timestamp {field!r}", line_no) from None
            if t < 0:
                raise EdgeListParseError(f"negative timestamp {t}", line_no)
        a, b = fields[u_col], fields[v_col]
        if a == b:
            self_loops += 1
            if on_self_loop == "error":
                raise EdgeListParseError(f"self-loop on vertex {a!r}", line_no)
            continue
        try:
            i, j = ids[a], ids[b]
        except KeyError:
            i, j = ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))
        contacts[(t, i, j) if a < b else (t, j, i)] = None
    if self_loops:
        import logging  # here, not at the top: it adds to every start-up

        logging.getLogger(__name__).warning("skipped %d self-loop edge(s)", self_loops)
    if not contacts:
        raise EdgeListParseError("empty input")

    edges = list(contacts)
    del contacts  # its table goes before the remap
    smallest = min(edges)[0]
    if resolution > 1 and any((t - smallest) % resolution for t, _, _ in edges):
        # blame the first kept line off the grid; the pass above accepted
        # every line, so each line that is no comment has its columns
        for line_no, line in enumerate(text.splitlines(), start=1):
            fields = line.split()
            if fields and fields[0][0] != "#" and fields[u_col] != fields[v_col]:
                t = int(fields[t_col])
                if (t - smallest) % resolution:
                    raise EdgeListParseError(
                        f"timestamp {t} is not aligned to resolution {resolution}",
                        line_no,
                    )
    labels = tuple(sorted(ids))
    rank = [0] * len(labels)
    for r, name in enumerate(labels):
        rank[ids[name]] = r
    base = smallest - resolution  # so that the smallest maps to 1
    raw = None  # the last time shifted, to ``shifted``
    for n, (t, i, j) in enumerate(edges):  # each key is freed as it is replaced
        if t != raw:
            raw, shifted = t, (t - base) // resolution
        edges[n] = (shifted, rank[i], rank[j])
    edges.sort()
    return TemporalGraph(labels, tuple(edges), edges[-1][0])


class FrameDomain(NamedTuple):
    """Window width delta and the index range [1, last_frame] of frames."""

    delta: int
    last_frame: int

    @classmethod
    def for_graph(cls, graph: TemporalGraph, delta: int) -> FrameDomain:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if graph.lifetime - delta < 1:
            raise ValueError(
                f"delta {delta} too large for lifetime {graph.lifetime}"
            )
        return cls(delta, graph.lifetime - delta)


class NonNeighborhoodIndex:
    """Per-pair frame sets where two vertices share no edge in the window.

    A frame set is an ``int`` bitset whose bit i stands for segment i, so
    there are at most 2m + 1 bits however long the lifetime.  Pairs that
    never share an edge are kept implicit (full domain).  ``rows[v]`` maps
    each w that shares an edge with v to the pair's bitset, and v itself to
    ``full``, so a lookup is ``rows[v].get(w, full)``.  This is the
    library's one grouping of edges by vertex pair; the oracle and the
    invariant monitor keep their own on purpose.
    """

    def __init__(self, graph: TemporalGraph, fd: FrameDomain):
        self.frame_domain = fd
        delta, last = fd.delta, fd.last_frame
        # frames are cut at 1, at max(1, t - delta) and at t + 1 for every
        # contact time t, so no window's edge set changes inside a segment;
        # the edges are sorted by t, so each time's cuts are added once
        by_pair: dict[tuple[int, int], list[int]] = {}
        cuts = {1}
        prev = None
        for t, u, v in graph.edges:
            if t != prev:
                prev = t
                cuts.add(t - delta if t > delta else 1)
                if t < last:
                    cuts.add(t + 1)
            by_pair.setdefault((u, v), []).append(t)
        self._starts = sorted(cuts)
        del cuts
        segment = {frame: i for i, frame in enumerate(self._starts)}
        n = len(self._starts)
        self.full = (1 << n) - 1
        self.rows: list[dict[int, int]] = [
            {v: self.full} for v in range(graph.vertex_count)
        ]
        for (u, v), times in by_pair.items():
            neighbor = lo = hi = 0  # open run of neighbor segments [lo, hi)
            for t in times:
                a = segment[t - delta if t > delta else 1]
                if a > hi:
                    neighbor |= (1 << hi) - (1 << lo)
                    lo = a
                hi = segment[t + 1] if t < last else n
            neighbor |= (1 << hi) - (1 << lo)
            self.rows[u][v] = self.rows[v][u] = self.full ^ neighbor

    @property
    def _pairs(self) -> dict[tuple[int, int], tuple[Interval, ...]]:
        """Non-neighbor frame runs of each edge-sharing pair u < w, from the rows.

        Read by the benchmark's tracer only; the search uses ``rows``.
        """
        return {
            (u, w): tuple(iv for _, iv in self.runs(frames))
            for u, row in enumerate(self.rows)
            for w, frames in row.items()
            if u < w
        }

    def runs(self, frames: int) -> Iterator[tuple[int, Interval]]:
        """Each maximal run of ``frames``: its segment mask and frame interval.

        The runs are found from the top down, so ``frames`` narrows as they
        go and no operation builds a negative int; they come out ascending.
        """
        starts, last = self._starts, self.frame_domain.last_frame
        found = []
        while frames:
            hi = frames.bit_length()
            lo = (frames ^ ((1 << hi) - 1)).bit_length()  # above the top gap
            run = (1 << hi) - (1 << lo)
            frames ^= run
            end = starts[hi] - 1 if hi < len(starts) else last
            found.append((run, Interval(starts[lo], end)))
        return reversed(found)

    def segment(self, frame: int) -> int:
        """Index of the segment that holds ``frame``."""
        return bisect_right(self._starts, frame) - 1


def _add_one(planes: list[int], mask: int) -> None:
    """Add one on ``mask`` to the count whose bit i is held by plane i."""
    for i, plane in enumerate(planes):
        planes[i] = plane ^ mask
        mask &= plane
        if not mask:
            return
    planes.append(mask)


def _take_one(planes: list[int], mask: int) -> int:
    """Take one off ``planes`` on ``mask``; return the segments that were at 0."""
    for i, plane in enumerate(planes):
        planes[i] = plane ^ mask
        mask ^= mask & plane  # the borrow goes on where the bit was 0
        if not mask:
            break
    return mask


class _Cores:
    """The cores of every segment's window snapshot, at an order that rises.

    ``alive[v]`` holds the segments where v lies in the core and ``slack[v]``
    the bit planes of its live neighbours there minus the order: Batagelj
    and Zaversnik's peel, run on all segments at once.  Segments where a
    vertex has no neighbour lie in no core of order 1 or more, so they
    start outside.
    """

    def __init__(self, index: NonNeighborhoodIndex):
        self.rows, self.order, self.alive, self.slack = index.rows, 0, [], []
        for v, row in enumerate(index.rows):
            planes: list[int] = []
            alive = 0
            for w, frames in row.items():
                if w != v:
                    neighbor = index.full ^ frames
                    _add_one(planes, neighbor)
                    alive |= neighbor
            self.alive.append(alive)
            self.slack.append(planes)

    def peel(self, order: int) -> list[int]:
        """Raise the order to ``order``, no lower than now; return ``alive``.

        A segment whose slack wraps below zero leaves the core and takes one
        off its live neighbours' slack there, round by round.
        """
        rows, alive, slack = self.rows, self.alive, self.slack
        weak = {}
        for v, planes in enumerate(slack):
            gone = 0
            for _ in range(order - self.order):
                if gone == alive[v]:  # no live segment is left to take from
                    break
                gone |= _take_one(planes, alive[v] ^ gone)
            if gone:
                alive[v] ^= gone
                weak[v] = gone
        self.order = order
        while weak:  # the segments each vertex left in the last round
            left: dict[int, int] = {}
            for v, gone in weak.items():
                for w, frames in rows[v].items():
                    hit = alive[w] & gone  # none for w == v
                    hit ^= hit & frames  # where v is w's neighbour
                    if hit and (wrapped := _take_one(slack[w], hit)):
                        alive[w] ^= wrapped
                        left[w] = left.get(w, 0) | wrapped
            weak = left
        return alive


def delta_slice_degeneracy(graph: TemporalGraph, fd: FrameDomain) -> int:
    """Maximum static degeneracy over all frame snapshot graphs."""
    cores = _Cores(NonNeighborhoodIndex(graph, fd))
    best = 0
    while any(cores.peel(best + 1)):
        best += 1
    return best


def core_frames(index: NonNeighborhoodIndex, order: int) -> list[int]:
    """Per vertex, the segment bitset where it lies in the order-core.

    Bit i is set when the vertex lies in the ``order``-core of segment i's
    window snapshot: the largest subgraph of minimum degree ``order`` >= 1.
    """
    return _Cores(index).peel(order)


def plex_count_upper_bound(n: int, k: int, d: int, m: int, lifetime: int) -> int:
    """n * C(n, k) * 2^(d+k) * min(m, lifetime), exactly."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if k > n:  # C(n, k) = 0: decided before 2^(d+k) is taken
        return 0
    return n * math.comb(n, k) * 2 ** (d + k) * min(m, lifetime)
