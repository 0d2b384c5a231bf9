import random
from itertools import combinations
from unittest import mock

import pytest

from tkplex.graph import (
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    parse_edge_list,
)
from tkplex.intervals import Interval, IntervalSet

FIG1_TEXT = """\
1 b c
2 a b
4 a c
5 b c
6 a b
6 a c
6 b c
"""


@pytest.fixture
def fig1_text() -> str:
    return FIG1_TEXT


@pytest.fixture
def fig1_graph() -> TemporalGraph:
    return parse_edge_list(FIG1_TEXT)


def render_edge_list(graph: TemporalGraph) -> str:
    """Inverse of parse_edge_list for the default column order."""
    lines = [
        f"{t} {graph.labels[u]} {graph.labels[v]}" for t, u, v in graph.edges
    ]
    return "\n".join(lines) + "\n"


def union_adjacency(graph: TemporalGraph) -> dict[int, set[int]]:
    """Static adjacency of the underlying (time-collapsed) graph."""
    adj: dict[int, set[int]] = {v: set() for v in range(graph.vertex_count)}
    for _, u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def frames_covered(t: int, fd: FrameDomain) -> Interval:
    """Frame indices i whose window [i, i+delta] contains time step t."""
    return Interval(max(1, t - fd.delta), min(fd.last_frame, t))


def frame_bits(index: NonNeighborhoodIndex, *pairs: tuple[int, int]) -> int:
    """The search's segment bitset for the frame intervals ``pairs``."""
    bits = 0
    for a, b in pairs:
        bits |= (1 << (index.segment(b) + 1)) - (1 << index.segment(a))
    assert frame_set(index, bits) == IntervalSet(pairs), "not segment-aligned"
    return bits


def frame_set(index: NonNeighborhoodIndex, bits: int) -> IntervalSet:
    """The frame intervals of a segment bitset."""
    return IntervalSet(iv for _, iv in index.runs(bits))


def unpivoted():
    """Patch the search's pivot out: the unpivoted reference run."""
    return mock.patch("tkplex.search.select_pivot", return_value=None)


def random_temporal_graph(
    rng: random.Random, n: int, omega: int, density: float
) -> TemporalGraph:
    """Small random instance; guaranteed non-empty with lifetime == omega."""
    edges = {
        (t, u, v)
        for t in range(1, omega + 1)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }
    edges.add((omega, 0, 1))  # pin the lifetime
    labels = tuple("abcdefgh"[:n])
    return TemporalGraph(labels, tuple(sorted(edges)), omega)


def sweep_corpus(count: int = 200, seed: int = 20240817) -> list[TemporalGraph]:
    """Random small graphs with edge density swept across a wide range."""
    rng = random.Random(seed)
    densities = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6]
    corpus = []
    for i in range(count):
        n = rng.randint(2, 6)
        omega = rng.randint(2, 8)
        corpus.append(random_temporal_graph(rng, n, omega, densities[i % len(densities)]))
    return corpus


def scale_graph(
    seed: int = 2024, n: int = 100, edge_target: int = 50_000, omega: int = 10_000
) -> TemporalGraph:
    """Large synthetic instance for throughput checks (not oracle-sized)."""
    rng = random.Random(seed)
    edges = {(omega, 0, 1)}  # pin the lifetime
    while len(edges) < edge_target:
        t = rng.randint(1, omega)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((t, *sorted((u, v))))
    labels = tuple(f"v{i:03d}" for i in range(n))
    return TemporalGraph(labels, tuple(sorted(edges)), omega)


def edgeless_graph(n: int, omega: int) -> TemporalGraph:
    return TemporalGraph(tuple("abcdefgh"[:n]), (), omega)


def static_maximal_kplexes(graph: TemporalGraph, k: int) -> set[frozenset[int]]:
    """Inclusion-maximal static k-plexes of the union graph, by brute force.

    k-plexes are closed under vertex removal, so maximality reduces to
    checking every one-vertex extension.
    """
    adjacency = union_adjacency(graph)
    everyone = range(graph.vertex_count)

    def is_kplex(group: frozenset[int]) -> bool:
        return all(
            len(group - adjacency[v] - {v}) + 1 <= k for v in group
        )

    plexes = [
        frozenset(group)
        for size in range(1, graph.vertex_count + 1)
        for group in combinations(everyone, size)
        if is_kplex(frozenset(group))
    ]
    return {
        group
        for group in plexes
        if not any(
            v not in group and is_kplex(group | {v}) for v in everyone
        )
    }
