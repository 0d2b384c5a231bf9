import random

import pytest

from tkplex.graph import TemporalGraph
from tkplex.intervals import Interval
from tkplex.oracle import (
    enumerate_all_maximal,
    is_plex,
    static_degeneracy,
)

from conftest import edgeless_graph, random_temporal_graph


class TestIsPlex:
    def test_fixture_triangle_on_late_frames(self, fig1_graph):
        assert is_plex(fig1_graph, 1, 2, (0, 1, 2), Interval(4, 5))

    def test_fixture_triangle_fails_on_full_domain(self, fig1_graph):
        assert not is_plex(fig1_graph, 1, 2, (0, 1, 2), Interval(1, 5))

    def test_single_vertex_always_qualifies(self, fig1_graph):
        for v in range(3):
            assert is_plex(fig1_graph, 1, 1, (v,), Interval(1, 5))

    def test_monotone_in_subintervals_and_k(self):
        rng = random.Random(31)
        for _ in range(30):
            graph = random_temporal_graph(rng, rng.randint(2, 5), 6, 0.3)
            delta = rng.randint(0, 2)
            k = rng.randint(1, 3)
            last = graph.lifetime - delta
            group = tuple(
                sorted(rng.sample(range(graph.vertex_count),
                                  rng.randint(1, graph.vertex_count)))
            )
            lo = rng.randint(1, last)
            hi = rng.randint(lo, last)
            if not is_plex(graph, delta, k, group, Interval(lo, hi)):
                continue
            assert is_plex(graph, delta, k, group, Interval(lo, lo))
            assert is_plex(graph, delta, k + 1, group, Interval(lo, hi))

    def test_monotone_in_delta(self):
        rng = random.Random(32)
        for _ in range(30):
            graph = random_temporal_graph(rng, rng.randint(2, 5), 6, 0.3)
            delta = rng.randint(0, graph.lifetime - 2)
            group = tuple(range(graph.vertex_count))
            last_wider = graph.lifetime - delta - 1
            lo = rng.randint(1, last_wider)
            hi = rng.randint(lo, last_wider)
            if is_plex(graph, delta, 2, group, Interval(lo, hi)):
                # widening the window can only add neighbors
                assert is_plex(graph, delta + 1, 2, group, Interval(lo, hi))


class TestEnumerateAllMaximal:
    def test_fixture_contains_headline_plex(self, fig1_graph):
        truth = enumerate_all_maximal(fig1_graph, 1, 2)
        assert any(
            rec.vertices == (0, 1, 2) and rec.interval == Interval(4, 5)
            for rec in truth
        )

    def test_edgeless_pairs(self):
        truth = enumerate_all_maximal(edgeless_graph(4, 3), 0, 2)
        assert set(truth) == {
            rec
            for rec in truth
            if len(rec.vertices) == 2 and rec.interval == Interval(1, 3)
        }
        assert len(truth) == 6

    def test_canonical_order(self, fig1_graph):
        truth = enumerate_all_maximal(fig1_graph, 1, 1)
        keys = [(rec.vertices, rec.interval) for rec in truth]
        assert keys == sorted(keys)

    def test_internal_consistency(self):
        rng = random.Random(33)
        for _ in range(20):
            graph = random_temporal_graph(rng, rng.randint(2, 5), 6, 0.3)
            delta = rng.randint(0, 2)
            k = rng.randint(1, 2)
            truth = enumerate_all_maximal(graph, delta, k)
            last = graph.lifetime - delta
            for rec in truth:
                assert is_plex(graph, delta, k, rec.vertices, rec.interval)
                # vertex-maximal: no single vertex extends the same interval
                assert not any(
                    v not in rec.vertices
                    and is_plex(
                        graph, delta, k,
                        tuple(sorted((*rec.vertices, v))), rec.interval,
                    )
                    for v in range(graph.vertex_count)
                )
                # time-maximal: neither adjacent frame extends the interval
                if rec.interval.start > 1:
                    assert not is_plex(
                        graph, delta, k, rec.vertices,
                        Interval(rec.interval.start - 1, rec.interval.end),
                    )
                if rec.interval.end < last:
                    assert not is_plex(
                        graph, delta, k, rec.vertices,
                        Interval(rec.interval.start, rec.interval.end + 1),
                    )

    def test_size_guard(self):
        wide = TemporalGraph(tuple("abcdefghi"), ((1, 0, 1),), 1)
        with pytest.raises(ValueError, match="too large"):
            enumerate_all_maximal(wide, 0, 1)
        long = TemporalGraph(("a", "b"), ((11, 0, 1),), 11)
        with pytest.raises(ValueError, match="too large"):
            enumerate_all_maximal(long, 0, 1)

    def test_delta_too_large(self, fig1_graph):
        with pytest.raises(ValueError, match="too large"):
            enumerate_all_maximal(fig1_graph, 6, 1)


class TestStaticDegeneracy:
    def test_triangle(self):
        adjacency = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert static_degeneracy(adjacency) == 2

    def test_path(self):
        adjacency = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        assert static_degeneracy(adjacency) == 1

    def test_edgeless(self):
        assert static_degeneracy({0: set(), 1: set()}) == 0
        assert static_degeneracy({}) == 0
