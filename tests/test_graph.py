import random

import pytest

from tkplex.graph import (
    EdgeListParseError,
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    delta_slice_degeneracy,
    frames_covered,
    normalize_timestamps,
    parse_edge_list,
    plex_count_upper_bound,
    render_edge_list,
)
from tkplex.intervals import Interval, IntervalSet

from conftest import edgeless_graph, frame_set, random_temporal_graph


class TestParseEdgeList:
    def test_fixture_dimensions(self, fig1_graph):
        assert fig1_graph.vertex_count == 3
        assert fig1_graph.edge_count == 7
        assert fig1_graph.lifetime == 6

    def test_labels_sorted(self, fig1_graph):
        assert fig1_graph.labels == ("a", "b", "c")

    def test_edges_sorted_and_canonical(self, fig1_graph):
        assert fig1_graph.edges == tuple(sorted(fig1_graph.edges))
        assert all(u < v for _, u, v in fig1_graph.edges)

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListParseError, match="empty input"):
            parse_edge_list("# only a comment\n\n")

    def test_duplicate_lines_deduped(self, fig1_text):
        graph = parse_edge_list(fig1_text + "2 a b\n")
        assert graph.edge_count == 7

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("1 a b\n2 a\n")

    def test_bad_timestamp_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("x a b\n")

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(EdgeListParseError, match="self-loop"):
            parse_edge_list("1 a a\n1 a b\n")

    def test_self_loop_skipped_on_request(self):
        graph = parse_edge_list("1 a a\n1 a b\n", on_self_loop="skip")
        assert graph.edge_count == 1
        assert graph.labels == ("a", "b")

    def test_timestamps_shift_to_one(self):
        graph = parse_edge_list("100 a b\n103 b c\n")
        assert [t for t, _, _ in graph.edges] == [1, 4]
        assert graph.lifetime == 4

    def test_column_spec_and_extra_columns(self):
        graph = parse_edge_list("a b 1 junk\nb c 2 junk\n", column_spec=(2, 0, 1))
        assert graph.edge_count == 2
        assert graph.lifetime == 2

    def test_comments_ignored(self, fig1_text):
        graph = parse_edge_list("# header\n" + fig1_text)
        assert graph.edge_count == 7

    def test_round_trip(self, fig1_graph):
        assert parse_edge_list(render_edge_list(fig1_graph)) == fig1_graph


class TestNormalizeTimestamps:
    def test_rescale(self):
        graph = parse_edge_list("1000 a b\n1020 b c\n1040 a c\n")
        out = normalize_timestamps(graph, 20)
        assert [t for t, _, _ in out.edges] == [1, 2, 3]
        assert out.lifetime == 3

    def test_shift_only(self):
        graph = parse_edge_list("5 a b\n5 b c\n9 a c\n")
        out = normalize_timestamps(graph, 1)
        assert sorted(t for t, _, _ in out.edges) == [1, 1, 5]
        assert out.lifetime == 5

    def test_misaligned_rejected(self):
        graph = parse_edge_list("0 a b\n30 b c\n")
        with pytest.raises(EdgeListParseError, match="resolution"):
            normalize_timestamps(graph, 20)


class TestFrameDomain:
    def test_for_graph(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        assert fd == FrameDomain(delta=1, last_frame=5)

    def test_delta_too_large(self, fig1_graph):
        with pytest.raises(ValueError, match="too large"):
            FrameDomain.for_graph(fig1_graph, 6)

    def test_negative_delta(self, fig1_graph):
        with pytest.raises(ValueError):
            FrameDomain.for_graph(fig1_graph, -1)

    def test_frames_covered_examples(self):
        assert frames_covered(2, FrameDomain(1, 5)) == Interval(1, 2)
        assert frames_covered(6, FrameDomain(1, 5)) == Interval(5, 5)
        assert frames_covered(1, FrameDomain(0, 1)) == Interval(1, 1)


class TestNonNeighborhoodIndex:
    def test_fixture_entries(self, fig1_graph):
        index = NonNeighborhoodIndex(
            fig1_graph, FrameDomain.for_graph(fig1_graph, 1)
        )
        a, b, c = 0, 1, 2
        assert str(frame_set(index, index.rows[a][b])) == "{[3,4]}"
        assert str(frame_set(index, index.rows[a][c])) == "{[1,2]}"
        assert str(frame_set(index, index.rows[a][a])) == "{[1,5]}"
        assert index.rows[a][a] == index.full

    def test_symmetric(self, fig1_graph):
        index = NonNeighborhoodIndex(
            fig1_graph, FrameDomain.for_graph(fig1_graph, 1)
        )
        assert index.rows[1][0] == index.rows[0][1]

    def test_edgeless_pair_is_full_domain(self):
        graph = TemporalGraph(("a", "b", "c"), ((1, 0, 1),), 4)
        index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, 0))
        assert 2 not in index.rows[0]
        got = index.rows[0].get(2, index.full)
        assert frame_set(index, got) == IntervalSet([(1, 4)])

    def test_segments_do_not_grow_with_lifetime(self):
        graph = parse_edge_list("1 a b\n7 b c\n1000000000 a b\n")
        index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, 2))
        assert index.full.bit_length() <= 2 * graph.edge_count + 1
        assert frame_set(index, index.rows[0][1]) == IntervalSet(
            [(2, 999999997)]
        )
        assert len(index.rows[0][1]) == 1

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_matches_naive_window_scan(self, delta):
        # every ordered pair, including a vertex with itself: a vertex is
        # its own non-neighbor on every frame
        rng = random.Random(42 + delta)
        for _ in range(25):
            graph = random_temporal_graph(rng, rng.randint(2, 6), 7, 0.25)
            fd = FrameDomain.for_graph(graph, delta)
            index = NonNeighborhoodIndex(graph, fd)
            for u in range(graph.vertex_count):
                for v in range(graph.vertex_count):
                    times = [t for t, a, b in graph.edges if {a, b} == {u, v}]
                    got = frame_set(index, index.rows[u].get(v, index.full))
                    for i in range(1, fd.last_frame + 1):
                        naive = u == v or not any(i <= t <= i + delta for t in times)
                        assert got.covers(Interval(i, i)) == naive

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_neighbor_frames_complement(self, delta):
        rng = random.Random(7 + delta)
        for _ in range(15):
            graph = random_temporal_graph(rng, rng.randint(2, 5), 6, 0.3)
            fd = FrameDomain.for_graph(graph, delta)
            index = NonNeighborhoodIndex(graph, fd)
            for u in range(graph.vertex_count):
                for v in range(u + 1, graph.vertex_count):
                    covered = IntervalSet(
                        frames_covered(t, fd)
                        for t, a, b in graph.edges
                        if (a, b) == (u, v)
                    )
                    neighbor = index.full & ~index.rows[u].get(v, index.full)
                    assert frame_set(index, neighbor) == covered


class TestDegeneracy:
    def test_fixture_delta_one(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        assert delta_slice_degeneracy(fig1_graph, fd) == 2

    def test_fixture_delta_zero(self, fig1_graph):
        # the t=6 snapshot is a triangle, so min-degree peeling reports 2
        fd = FrameDomain.for_graph(fig1_graph, 0)
        assert delta_slice_degeneracy(fig1_graph, fd) == 2

    def test_edgeless(self):
        graph = edgeless_graph(4, 5)
        for delta in range(5):
            assert delta_slice_degeneracy(graph, FrameDomain(delta, 5 - delta)) == 0

    def test_monotone_in_delta(self):
        rng = random.Random(11)
        for _ in range(20):
            graph = random_temporal_graph(rng, rng.randint(2, 6), 6, 0.3)
            values = [
                delta_slice_degeneracy(graph, FrameDomain.for_graph(graph, d))
                for d in range(graph.lifetime)
            ]
            assert values == sorted(values)

    def test_long_sparse_lifetime(self):
        # one peel per segment, not per frame: three contacts over 10^9 steps
        graph = parse_edge_list("1 a b\n2 b c\n1000000000 a c\n")
        assert delta_slice_degeneracy(graph, FrameDomain.for_graph(graph, 0)) == 1


class TestPlexCountUpperBound:
    def test_worked_examples(self):
        assert plex_count_upper_bound(3, 2, 2, 7, 6) == 864
        assert plex_count_upper_bound(1, 1, 0, 0, 1) == 0
        assert plex_count_upper_bound(4, 1, 1, 3, 10) == 192

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            plex_count_upper_bound(0, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            plex_count_upper_bound(3, 0, 0, 0, 1)
