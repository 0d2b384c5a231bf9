import functools
import random
import time
import tracemalloc

import pytest

from tkplex.graph import (
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    parse_edge_list,
)
from tkplex.intervals import Interval, IntervalSet
from tkplex.oracle import enumerate_all_maximal
from tkplex.pool import Pool
from tkplex.search import (
    PlexRecord,
    SearchConfig,
    collect_maximal_plexes,
    emit_maximal,
    enumerate_maximal_plexes,
    update_candidates,
    update_pool,
)

from conftest import edgeless_graph, frame_bits, frame_set, random_temporal_graph


def iset(*pairs) -> IntervalSet:
    return IntervalSet(pairs)


@pytest.fixture
def fig1_index(fig1_graph):
    # every frame of [1,5] is a segment of its own at delta=1
    return NonNeighborhoodIndex(fig1_graph, FrameDomain.for_graph(fig1_graph, 1))


@pytest.fixture
def bits(fig1_index):
    return functools.partial(frame_bits, fig1_index)


class TestSearchConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SearchConfig(delta=0, k=0)
        with pytest.raises(ValueError):
            SearchConfig(delta=-1, k=1)

    def test_min_size(self):
        assert SearchConfig(delta=0, k=2).min_size == 1
        assert SearchConfig(delta=0, k=2, connectedness=True).min_size == 5


class TestUpdatePool:
    # first growth step on the 3-vertex fixture: C grows from {} to {a}
    def _grow_by_a(self, index, k):
        full = index.full
        root = {0: full, 1: full, 2: full}
        return update_pool(Pool(5), (0,), (0, full), root, {}, index, k)

    def test_counts_after_adding_a(self, fig1_index):
        pool, critical = self._grow_by_a(fig1_index, k=2)
        seg = fig1_index.segment
        assert all(pool.count(0, seg(t)) == 1 for t in range(1, 6))
        assert [t for t in range(1, 6) if pool.count(1, seg(t)) == 1] == [3, 4]
        assert 1 not in critical

    def test_critical_pairs_for_cliques(self, fig1_index):
        _, critical = self._grow_by_a(fig1_index, k=1)
        assert frame_set(fig1_index, critical[0]) == iset((1, 5))
        assert frame_set(fig1_index, critical[1]) == iset((3, 4))
        assert frame_set(fig1_index, critical[2]) == iset((1, 2))

    def test_input_pool_untouched(self, fig1_index):
        full = fig1_index.full
        pool = Pool(5)
        update_pool(pool, (0,), (0, full), {0: full, 1: full}, {}, fig1_index, 2)
        assert all(pool.count(0, i) == 0 for i in range(5))


class TestUpdateCandidates:
    def test_candidate_survives_below_threshold(self, fig1_index):
        full = fig1_index.full
        root = {0: full, 1: full, 2: full}
        _, critical = update_pool(Pool(5), (0,), (0, full), root, {}, fig1_index, 2)
        out = update_candidates(root, (0,), critical, (0, full), fig1_index)
        assert out[1] == full

    def test_candidate_shrinks_at_threshold(self, fig1_index):
        full = fig1_index.full
        root = {0: full, 1: full, 2: full}
        _, critical = update_pool(Pool(5), (0,), (0, full), root, {}, fig1_index, 1)
        out = update_candidates(root, (0,), critical, (0, full), fig1_index)
        assert frame_set(fig1_index, out[1]) == iset((1, 2), (5, 5))

    def test_grown_vertex_never_in_result(self, fig1_index):
        full = fig1_index.full
        root = {0: full, 1: full, 2: full}
        _, critical = update_pool(Pool(5), (0,), (0, full), root, {}, fig1_index, 2)
        out = update_candidates(root, (0,), critical, (0, full), fig1_index)
        assert 0 not in out

    def test_entries_outside_new_lifetime_drop(self, fig1_index, bits):
        source = {1: bits((1, 2))}
        out = update_candidates(source, (0,), {}, (0, bits((4, 5))), fig1_index)
        assert out == {}


class TestEmitMaximal:
    def test_emits_unblocked_interval(self, fig1_index, bits):
        got = emit_maximal((0, 1, 2), bits((4, 5)), {}, {}, fig1_index)
        assert got == [PlexRecord((0, 1, 2), Interval(4, 5))]

    def test_exact_interval_match_blocks(self, fig1_index, bits):
        got = emit_maximal((0,), bits((4, 5)), {1: bits((4, 5))}, {}, fig1_index)
        assert got == []

    def test_coverage_alone_does_not_block(self, fig1_index, bits):
        # entries are subsets of the lifetimes, so an entry can cover a
        # lifetime run only by holding it exactly; one that holds part of
        # the run, or the whole of another run, does not block it
        lifetimes = bits((1, 2), (4, 5))
        got = emit_maximal(
            (0,), lifetimes, {1: bits((1, 1), (4, 5))}, {2: bits((2, 2))}, fig1_index
        )
        assert got == [PlexRecord((0,), Interval(1, 2))]

    def test_root_call_emits_nothing(self, fig1_index):
        full = fig1_index.full
        root = {v: full for v in range(3)}
        assert emit_maximal((), full, root, {}, fig1_index) == []

    def test_min_size_filter(self, fig1_index, bits):
        got = emit_maximal((0, 1, 2), bits((4, 5)), {}, {}, fig1_index, min_size=5)
        assert got == []

    def test_emits_in_ascending_interval_order(self, fig1_index, bits):
        got = emit_maximal((0,), bits((1, 2), (4, 5)), {}, {}, fig1_index)
        assert [r.interval for r in got] == [Interval(1, 2), Interval(4, 5)]


def _as_set(records):
    return set(records)


class TestEnumerate:
    def test_fixture_contains_headline_plex(self, fig1_graph):
        records, _ = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=2))
        assert PlexRecord((0, 1, 2), Interval(4, 5)) in records

    def test_fixture_full_set_k2(self, fig1_graph):
        records, _ = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=2))
        assert _as_set(records) == {
            PlexRecord((0, 1), Interval(1, 5)),
            PlexRecord((0, 2), Interval(1, 5)),
            PlexRecord((1, 2), Interval(1, 5)),
            PlexRecord((0, 1, 2), Interval(1, 1)),
            PlexRecord((0, 1, 2), Interval(4, 5)),
        }

    @pytest.mark.parametrize("k", [1, 2])
    def test_fixture_matches_oracle(self, fig1_graph, k):
        records, _ = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=k))
        truth = enumerate_all_maximal(fig1_graph, 1, k)
        assert _as_set(records) == truth.as_set()

    def test_edgeless_pairs(self):
        graph = edgeless_graph(4, 3)
        records, _ = collect_maximal_plexes(graph, SearchConfig(delta=0, k=2))
        assert _as_set(records) == {
            PlexRecord((u, v), Interval(1, 3))
            for u in range(4)
            for v in range(u + 1, 4)
        }

    def test_each_record_emitted_once(self, fig1_graph):
        records, _ = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=2))
        assert len(records) == len(set(records))

    def test_deterministic_order(self, fig1_graph):
        config = SearchConfig(delta=1, k=2)
        first, _ = collect_maximal_plexes(fig1_graph, config)
        second, _ = collect_maximal_plexes(fig1_graph, config)
        assert first == second

    def test_stats_populated(self, fig1_graph):
        records, stats = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=2))
        assert stats.plex_count == len(records)
        assert stats.max_plex_order == 3
        assert stats.max_lifetime_length == 5
        assert stats.plex_count <= stats.recursive_calls
        assert stats.wall_time_seconds >= 0
        assert not stats.timed_out

    def test_wall_time_includes_index_build(self, fig1_graph, monkeypatch):
        class SlowIndex(NonNeighborhoodIndex):
            def __init__(self, graph, fd):
                time.sleep(0.05)
                super().__init__(graph, fd)

        monkeypatch.setattr("tkplex.search.NonNeighborhoodIndex", SlowIndex)
        _, stats = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=2))
        assert stats.wall_time_seconds >= 0.05

    def test_delta_too_large_rejected(self, fig1_graph):
        with pytest.raises(ValueError, match="too large"):
            enumerate_maximal_plexes(fig1_graph, SearchConfig(delta=6, k=2))

    def test_time_limit_marks_run(self, fig1_graph):
        config = SearchConfig(delta=1, k=2, time_limit=0.0)
        _, stats = collect_maximal_plexes(fig1_graph, config)
        assert stats.timed_out

    def test_sink_receives_every_record(self, fig1_graph):
        seen = []
        stats = enumerate_maximal_plexes(
            fig1_graph, SearchConfig(delta=1, k=1), sink=seen.append
        )
        assert len(seen) == stats.plex_count

    def test_dense_clique_takes_one_call_per_vertex(self):
        # the pivot leaves one branch per call: 17 calls, not the 2^16 of a
        # search that walks each subset of the clique
        n = 16
        graph = TemporalGraph(
            tuple(f"v{i:02d}" for i in range(n)),
            tuple((1, u, v) for u in range(n) for v in range(u + 1, n)),
            1,
        )
        records, stats = collect_maximal_plexes(graph, SearchConfig(delta=0, k=1))
        assert records == [PlexRecord(tuple(range(n)), Interval(1, 1))]
        assert stats.recursive_calls <= n + 1

    def test_large_dense_clique_within_time_limit(self):
        # the first pivot suppresses every other candidate, so the pivot
        # scan of each call stops there instead of scoring all 400 vertices
        n = 400
        graph = TemporalGraph(
            tuple(f"v{i:03d}" for i in range(n)),
            tuple((1, u, v) for u in range(n) for v in range(u + 1, n)),
            1,
        )
        records, stats = collect_maximal_plexes(
            graph, SearchConfig(delta=0, k=1, time_limit=10)
        )
        assert not stats.timed_out
        assert records == [PlexRecord(tuple(range(n)), Interval(1, 1))]
        assert stats.recursive_calls == n + 1

    def test_phase_timers_within_wall_time(self, fig1_graph):
        _, stats = collect_maximal_plexes(fig1_graph, SearchConfig(delta=1, k=2))
        assert stats.index_seconds > 0
        assert stats.search_seconds > 0
        assert stats.index_seconds + stats.search_seconds <= stats.wall_time_seconds

    def test_long_sparse_lifetime(self):
        # six contacts over a lifetime of 10^9 steps: the search works on
        # the segments between contacts, not on a billion frames
        graph = parse_edge_list(
            "1 a b\n2 b c\n500000000 a c\n500000001 a b\n"
            "999999999 b c\n1000000000 a b\n"
        )
        tracemalloc.start()
        try:
            records, _ = collect_maximal_plexes(graph, SearchConfig(delta=3, k=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lines = sorted(
            " ".join((*(graph.labels[v] for v in r.vertices),
                      str(r.interval.start), str(r.interval.end)))
            for r in records
        )
        assert lines == [
            "a b 1 999999997",
            "a b c 1 1",
            "a b c 499999998 500000000",
            "a b c 999999997 999999997",
            "a c 1 999999997",
            "b c 1 999999997",
        ]
        assert peak < 1_000_000

    @pytest.mark.parametrize("delta,k", [(0, 1), (1, 2), (2, 3)])
    def test_random_graphs_match_oracle(self, delta, k):
        rng = random.Random(500 + delta * 10 + k)
        for _ in range(15):
            graph = random_temporal_graph(rng, rng.randint(2, 5), 6, 0.3)
            records, _ = collect_maximal_plexes(
                graph, SearchConfig(delta=delta, k=k)
            )
            truth = enumerate_all_maximal(graph, delta, k)
            assert _as_set(records) == truth.as_set()
