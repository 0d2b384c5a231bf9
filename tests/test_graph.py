import logging
import random
import sys
import time
import tracemalloc
from functools import reduce
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkplex.graph import (
    EdgeListParseError,
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    _add_one,
    _Cores,
    _take_one,
    core_frames,
    delta_slice_degeneracy,
    parse_edge_list,
    plex_count_upper_bound,
)
from tkplex.intervals import Interval
from tkplex.oracle import has_edge_in, maximal_runs, pair_times, static_degeneracy

from conftest import (
    edgeless_graph,
    frame_set,
    frames_covered,
    frames_of,
    random_temporal_graph,
    render_edge_list,
    scale_graph,
    sweep_corpus,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


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

    def test_self_loop_skipped_on_request(self, caplog):
        graph = parse_edge_list("1 a a\n1 a b\n", on_self_loop="skip")
        assert graph.edge_count == 1
        assert graph.labels == ("a", "b")
        assert caplog.record_tuples == [
            ("tkplex.graph", logging.WARNING, "skipped 1 self-loop edge(s)")
        ]

    def test_timestamps_shift_to_one(self):
        graph = parse_edge_list("100 a b\n103 b c\n")
        assert [t for t, _, _ in graph.edges] == [1, 4]
        assert graph.lifetime == 4

    def test_column_spec_and_extra_columns(self):
        graph = parse_edge_list("a b 1 junk\nb c 2 junk\n", column_spec=(2, 0, 1))
        assert graph.edge_count == 2
        assert graph.lifetime == 2

    # a negative index would count from the end of the line: (2, 0, -1)
    # reads column 2 of "a b 5" as the timestamp and as a vertex
    @pytest.mark.parametrize(
        "spec", [(0, 1, 1), (1, 1, 2), (2, 0, 2), (2, 0, -1), (-1, 0, 1)]
    )
    def test_repeated_column_index_rejected(self, spec):
        # a parameter error, raised before any line is read
        with pytest.raises(ValueError, match="distinct") as caught:
            parse_edge_list("1 a b\n", column_spec=spec)
        assert not isinstance(caught.value, EdgeListParseError)

    def test_comments_ignored(self, fig1_text):
        graph = parse_edge_list("# header\n" + fig1_text)
        assert graph.edge_count == 7

    def test_round_trip(self, fig1_graph):
        assert parse_edge_list(render_edge_list(fig1_graph)) == fig1_graph

    @pytest.mark.parametrize(
        "variant",
        [
            lambda text: "  # indented comment\n\t#tab comment\n" + text,
            lambda text: text.replace(" ", "\t"),
            lambda text: text.replace("\n", "\r\n"),
            lambda text: "".join(
                f"{t} {b} {a}\n" for t, a, b in map(str.split, text.splitlines())
            ),
        ],
        ids=["indented-comment", "tabs", "crlf", "swapped-endpoints"],
    )
    def test_layout_variants_give_the_same_graph(self, fig1_text, fig1_graph, variant):
        assert parse_edge_list(variant(fig1_text)) == fig1_graph

    def test_shuffled_lines_with_duplicates_give_the_same_graph(
        self, fig1_text, fig1_graph
    ):
        rng = random.Random(5)
        for _ in range(20):
            lines = fig1_text.splitlines() * 2
            lines += [" ".join([t, b, a]) for t, a, b in map(str.split, lines[:3])]
            rng.shuffle(lines)
            assert parse_edge_list("\n".join(lines)) == fig1_graph

    def test_peak_memory_stays_near_the_graph(self):
        # one contact dict and no per-line lists: the transient peak of a
        # parse stays within a small multiple of the graph it returns
        text = render_edge_list(scale_graph(edge_target=20_000))
        tracemalloc.start()
        try:
            graph = parse_edge_list(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.edge_count == 20_000
        assert peak <= 2.6 * held, (peak, held)

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("7 a", "expected at least 3 columns"),
            ("x a b", "bad timestamp 'x'"),
            ("-3 a b", "negative timestamp -3"),
            ("7 c c", "self-loop on vertex 'c'"),
            ("30 a c", "timestamp 30 is not aligned to resolution 20"),
        ],
    )
    def test_error_line_counts_blank_and_comment_lines(self, bad_line, message):
        text = "20 a b\n\n# comment\n   \n40 b c\n" + bad_line + "\n60 a c\n"
        with pytest.raises(EdgeListParseError, match=f"^line 6: {message}") as info:
            parse_edge_list(text, resolution=20)
        assert info.value.line_no == 6


class TestNormalizeTimestamps:
    def test_rescale(self):
        out = parse_edge_list("1000 a b\n1020 b c\n1040 a c\n", resolution=20)
        assert [t for t, _, _ in out.edges] == [1, 2, 3]
        assert out.lifetime == 3

    def test_shift_only(self):
        out = parse_edge_list("5 a b\n5 b c\n9 a c\n", resolution=1)
        assert sorted(t for t, _, _ in out.edges) == [1, 1, 5]
        assert out.lifetime == 5

    @pytest.mark.parametrize(
        "text, on_self_loop, blamed",
        [
            ("0 a b\n30 b c\n", "error", (2, 30)),
            ("1005 a b\n1000 a c\n1020 b c\n", "error", (1, 1005)),
            ("1005 a b\n1025 a c\n1000 b c\n", "error", (1, 1005)),
            ("1000 a b\n1030 a c\n1000 a b\n1030 a c\n", "error", (2, 1030)),
            ("1000 a a\n1000 a b\n1010 b c\n", "skip", (3, 1010)),
            ("990 a a\n1000 a b\n1020 b c\n", "skip", None),
        ],
        ids=[
            "second-line",
            "first-line-before-the-smallest",
            "first-two-agree-off-the-smallest",
            "repeat-not-blamed",
            "after-a-skipped-self-loop",
            "skipped-self-loop-is-not-the-smallest",
        ],
    )
    def test_misaligned_rejected(self, text, on_self_loop, blamed):
        # the first kept line off the grid of the smallest kept timestamp
        if blamed is None:
            graph = parse_edge_list(text, on_self_loop=on_self_loop, resolution=20)
            assert graph.edges == ((1, 0, 1), (2, 1, 2))
            return
        line_no, t = blamed
        message = f"^line {line_no}: timestamp {t} is not aligned to resolution 20$"
        with pytest.raises(EdgeListParseError, match=message) as info:
            parse_edge_list(text, on_self_loop=on_self_loop, resolution=20)
        assert info.value.line_no == line_no


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
        assert frame_set(index, index.rows[a][b]) == (Interval(3, 4),)
        assert frame_set(index, index.rows[a][c]) == (Interval(1, 2),)
        assert frame_set(index, index.rows[a][a]) == (Interval(1, 5),)
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
        assert frame_set(index, got) == (Interval(1, 4),)

    def test_segments_do_not_grow_with_lifetime(self):
        graph = parse_edge_list("1 a b\n7 b c\n1000000000 a b\n")
        index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, 2))
        assert index.full.bit_length() <= 2 * graph.edge_count + 1
        assert frame_set(index, index.rows[0][1]) == (Interval(2, 999999997),)

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
                    got = frames_of(
                        frame_set(index, index.rows[u].get(v, index.full))
                    )
                    for i in range(1, fd.last_frame + 1):
                        naive = u == v or not any(i <= t <= i + delta for t in times)
                        assert (i in got) == naive

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_neighbor_frames_complement(self, delta):
        rng = random.Random(7 + delta)
        for _ in range(15):
            graph = random_temporal_graph(rng, rng.randint(2, 5), 6, 0.3)
            fd = FrameDomain.for_graph(graph, delta)
            index = NonNeighborhoodIndex(graph, fd)
            for u in range(graph.vertex_count):
                for v in range(u + 1, graph.vertex_count):
                    covered = maximal_runs(sorted({
                        i
                        for t, a, b in graph.edges
                        if (a, b) == (u, v)
                        for i in frames_covered(t, fd).members()
                    }))
                    neighbor = index.full & ~index.rows[u].get(v, index.full)
                    assert frame_set(index, neighbor) == tuple(covered)

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_tracer_pairs_are_the_non_neighbor_runs(self, fig1_graph, delta):
        # the benchmark's graph.index_intervals sums the lengths of these
        # runs; each pair's runs are recomputed from the raw edges with the
        # oracle's helpers
        for graph in (fig1_graph, *sweep_corpus(count=200)):
            if graph.lifetime - delta < 1:
                continue
            fd = FrameDomain.for_graph(graph, delta)
            pairs = NonNeighborhoodIndex(graph, fd)._pairs
            expected = {
                pair: tuple(maximal_runs(
                    i for i in range(1, fd.last_frame + 1)
                    if not has_edge_in(times, i, i + delta)
                ))
                for pair, times in pair_times(graph).items()
            }
            assert pairs == expected, (graph, delta)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 6),
        omega=st.integers(1, 30),
        density=st.sampled_from((0.02, 0.05, 0.1, 0.3)),
        rng=st.randoms(use_true_random=False),
        data=st.data(),
    )
    def test_runs_match_segments_decoded_frame_by_frame(
        self, n, omega, density, rng, data
    ):
        # sparse contacts over a long lifetime give segments of many frames
        graph = random_temporal_graph(rng, n, omega, density)
        fd = FrameDomain.for_graph(graph, data.draw(st.integers(0, omega - 1)))
        index = NonNeighborhoodIndex(graph, fd)
        frames = data.draw(st.integers(0, index.full))
        runs = list(index.runs(frames))
        for (_, a), (_, b) in zip(runs, runs[1:]):
            assert a.end + 1 < b.start  # ascending, disjoint, non-adjacent
        expected = {
            f for f in range(1, fd.last_frame + 1)
            if frames >> index.segment(f) & 1
        }
        assert {f for _, iv in runs for f in iv.members()} == expected
        # the checkers' run builder agrees with the search's decoder
        assert [iv for _, iv in runs] == maximal_runs(sorted(expected))
        for mask, iv in runs:
            assert mask == reduce(or_, (1 << index.segment(f) for f in iv.members()))


def naive_snapshot(graph: TemporalGraph, delta: int, i: int) -> dict[int, set[int]]:
    """Frame i's window snapshot, every vertex included, from the raw edges."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(graph.vertex_count)}
    for t, u, v in graph.edges:
        if i <= t <= i + delta:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


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

    @pytest.mark.parametrize("delta", [0, 1, 2])
    def test_matches_naive_per_frame_degeneracy(self, delta):
        # narrow windows, where the snapshots differ most; in many graphs a
        # later snapshot raises a positive maximum, so the peel goes on
        # from an order above 1 there
        rng = random.Random(40 + delta)
        raised_later = 0
        for _ in range(120):
            graph = random_temporal_graph(
                rng, rng.randint(2, 8), 8, rng.uniform(0.1, 0.6)
            )
            per_frame = [
                static_degeneracy(naive_snapshot(graph, delta, i))
                for i in range(1, graph.lifetime - delta + 1)
            ]
            fd = FrameDomain.for_graph(graph, delta)
            assert delta_slice_degeneracy(graph, fd) == max(per_frame)
            raised_later += any(
                0 < max(per_frame[:i]) < d for i, d in enumerate(per_frame) if i
            )
        assert raised_later >= 10

    def test_long_sparse_lifetime(self):
        # one peel per segment, not per frame: three contacts over 10^9 steps
        graph = parse_edge_list("1 a b\n2 b c\n1000000000 a c\n")
        assert delta_slice_degeneracy(graph, FrameDomain.for_graph(graph, 0)) == 1

    @pytest.mark.parametrize(
        "name, lifetime, expected",
        [
            ("clique-long", 5000, [2, 2, 3, 39]),
            ("plex-window", 400, [2, 2, 4, 20]),
            ("community-connected", 200, [7, 7, 7, 9]),
        ],
    )
    def test_benchmark_workloads(self, name, lifetime, expected):
        # at delta 0, 2, 20 and the widest window, with seed 1
        graph = parse_edge_list(WORKLOADS[name].generate(1).edge_list_text())
        assert graph.lifetime == lifetime
        got = [
            delta_slice_degeneracy(graph, FrameDomain.for_graph(graph, delta))
            for delta in (0, 2, 20, lifetime - 1)
        ]
        assert got == expected


def naive_core_frames(graph: TemporalGraph, delta: int, order: int) -> list[set[int]]:
    """Per vertex, the frames whose window snapshot's order-core holds it."""
    frames: list[set[int]] = [set() for _ in range(graph.vertex_count)]
    for i in range(1, graph.lifetime - delta + 1):
        adjacency = naive_snapshot(graph, delta, i)
        alive = set(adjacency)
        while weak := {v for v in alive if len(adjacency[v] & alive) < order}:
            alive -= weak
        for v in alive:
            frames[v].add(i)
    return frames


class TestCoreFrames:
    def test_fixture_delta_one(self, fig1_graph):
        # only frame 5's window [5, 6] holds a triangle
        index = NonNeighborhoodIndex(fig1_graph, FrameDomain.for_graph(fig1_graph, 1))
        cores = core_frames(index, 2)
        assert [frame_set(index, f) for f in cores] == [(Interval(5, 5),)] * 3
        a, b, c = core_frames(index, 1)
        assert frame_set(index, a) == (Interval(1, 5),)
        assert frame_set(index, b) == (Interval(1, 2), Interval(4, 5))
        assert frame_set(index, c) == (Interval(1, 1), Interval(3, 5))

    def test_matches_naive_per_frame_peel(self):
        # narrow windows and the widest one, whose one segment is the
        # static graph; dense graphs reach the 6-core
        rng = random.Random(17)
        checked = [0] * 7
        for _ in range(200):
            omega = rng.randint(1, 10)
            graph = random_temporal_graph(
                rng, rng.randint(2, 8), omega, rng.choice((0.1, 0.3, 0.6, 0.9))
            )
            delta = rng.choice((rng.randint(0, min(2, omega - 1)), omega - 1))
            index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, delta))
            for order in range(1, 7):
                got = [
                    set(frames_of(frame_set(index, f)))
                    for f in core_frames(index, order)
                ]
                expected = naive_core_frames(graph, delta, order)
                assert got == expected, (graph, delta, order)
                checked[order] += sum(map(len, expected))
        assert min(checked[1:]) > 300  # not vacuous at any order

    def test_raising_one_order_at_a_time_matches_a_fresh_peel(self):
        # delta_slice_degeneracy raises one state's order step by step
        rng = random.Random(23)
        for _ in range(100):
            omega = rng.randint(1, 10)
            graph = random_temporal_graph(
                rng, rng.randint(2, 8), omega, rng.uniform(0.1, 0.9)
            )
            delta = rng.randint(0, omega - 1)
            index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, delta))
            cores = _Cores(index)
            for order in range(1, 8):
                assert cores.peel(order) == core_frames(index, order)

    def test_edgeless_has_empty_cores(self):
        graph = edgeless_graph(4, 5)
        index = NonNeighborhoodIndex(graph, FrameDomain(1, 4))
        assert core_frames(index, 1) == [0, 0, 0, 0]


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 12),
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, 2**12 - 1)), max_size=40),
)
def test_bit_planes_count_like_integers(width, steps):
    # add-one and take-one steps on random segment masks; a segment taken
    # below zero wraps, leaves the count and is masked out from then on
    planes: list[int] = []
    counts = [0] * width
    live = (1 << width) - 1
    for add, mask in steps:
        mask &= live
        if add:
            _add_one(planes, mask)
        else:
            wrapped = _take_one(planes, mask)
            assert wrapped == sum(
                1 << i for i in range(width) if mask >> i & 1 and counts[i] == 0
            )
            live ^= wrapped
        for i in range(width):
            if mask >> i & 1:
                counts[i] += 1 if add else -1
        for i in range(width):
            if live >> i & 1:
                assert sum((p >> i & 1) << b for b, p in enumerate(planes)) == counts[i]


class TestPlexCountUpperBound:
    def test_worked_examples(self):
        assert plex_count_upper_bound(3, 2, 2, 7, 6) == 864
        assert plex_count_upper_bound(1, 1, 0, 0, 1) == 0
        assert plex_count_upper_bound(4, 1, 1, 3, 10) == 192

    def test_k_above_n_is_zero_without_the_power(self):
        # C(n, k) = 0, so 2^(d+k), a billion-bit int here, is never taken
        started = time.monotonic()
        assert plex_count_upper_bound(3, 10**9, 2, 7, 6) == 0
        assert time.monotonic() - started < 1

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            plex_count_upper_bound(0, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            plex_count_upper_bound(3, 0, 0, 0, 1)
