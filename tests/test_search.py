import functools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tkplex.graph import (
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    parse_edge_list,
)
from tkplex.instrumentation import InvariantMonitor
from tkplex.intervals import Interval, IntervalSet
from tkplex.oracle import enumerate_all_maximal
from tkplex.pool import Pool
from tkplex.search import (
    PlexRecord,
    RunStats,
    SearchConfig,
    collect_maximal_plexes,
    emit_maximal,
    enumerate_maximal_plexes,
    update_candidates,
    update_pool,
)

from conftest import (
    edgeless_graph,
    frame_bits,
    frame_set,
    random_temporal_graph,
    scale_graph,
    sweep_corpus,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


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

    @pytest.mark.parametrize("limit", [-1, -0.5, float("nan")])
    def test_rejects_bad_time_limit(self, limit):
        with pytest.raises(ValueError, match="time limit"):
            SearchConfig(delta=0, k=1, time_limit=limit)

    def test_min_size(self):
        assert SearchConfig(delta=0, k=2).min_size == 1
        assert SearchConfig(delta=0, k=2, connectedness=True).min_size == 5

    def test_compared_and_shown_by_fields(self):
        config = SearchConfig(1, 2, True)
        assert config == SearchConfig(delta=1, k=2, connectedness=True)
        assert config != SearchConfig(delta=1, k=2)
        assert repr(config) == (
            "SearchConfig(delta=1, k=2, connectedness=True, time_limit=None)"
        )
        assert repr(RunStats()).startswith("RunStats(plex_count=0, ")
        assert RunStats(plex_count=3) == RunStats(plex_count=3) != RunStats()


def grow_by_a(index, k):
    """First growth step on the 3-vertex fixture: C grows from {} to {a}.

    ``update_pool`` counts the members, ``update_candidates`` the entries.
    """
    full = index.full
    root = {1: full, 2: full}
    pool, blockers = update_pool(Pool(k), (0,), (0, full), index)
    out = update_candidates(root, pool, blockers, (0, full), index)
    return pool, blockers, out


class TestUpdatePool:
    def test_counts_after_adding_a(self, fig1_index):
        pool, blockers, out = grow_by_a(fig1_index, k=2)
        seg = fig1_index.segment
        assert all(pool.count(0, seg(t)) == 1 for t in range(1, 6))
        assert [t for t in range(1, 6) if pool.count(1, seg(t)) == 1] == [3, 4]
        assert blockers == []
        assert out[1] == fig1_index.full  # no critical frames stripped

    def test_critical_pairs_for_cliques(self, fig1_index):
        pool, blockers, out = grow_by_a(fig1_index, k=1)
        # the member's critical frames come back as a blocker with its row
        [(hits, row)] = blockers
        assert frame_set(fig1_index, hits) == iset((1, 5))
        assert row is fig1_index.rows[0]
        # the blocker strips each entry where the member is a non-neighbor,
        # before the entry is counted, so those frames go uncounted
        seg = fig1_index.segment
        for w, critical in ((1, iset((3, 4))), (2, iset((1, 2)))):
            assert all(pool.count(w, seg(t)) == 0 for t in range(1, 6))
            assert not frame_set(fig1_index, out[w]).intersect(critical)

    def test_input_pool_untouched(self, fig1_index):
        full = fig1_index.full
        pool = Pool(2)
        pool2, blockers = update_pool(pool, (0,), (0, full), fig1_index)
        update_candidates({1: full}, pool2, blockers, (0, full), fig1_index)
        assert all(pool.count(w, i) == 0 for w in (0, 1) for i in range(5))


class TestUpdateCandidates:
    def test_candidate_survives_below_threshold(self, fig1_index):
        _, _, out = grow_by_a(fig1_index, k=2)
        assert out[1] == fig1_index.full

    def test_candidate_shrinks_at_threshold(self, fig1_index):
        _, _, out = grow_by_a(fig1_index, k=1)
        assert frame_set(fig1_index, out[1]) == iset((1, 2), (5, 5))

    def test_entries_outside_new_lifetime_drop(self, fig1_index, bits):
        source = {1: bits((1, 2))}
        out = update_candidates(source, Pool(2), [], (0, bits((4, 5))), fig1_index)
        assert out == {}

    def test_counts_only_inside_new_lifetime(self, fig1_index, bits):
        # a and c are non-neighbors on frames 1-2, but the new lifetime
        # starts at frame 2: no later call reads c's count on frame 1
        iv = bits((2, 5))
        pool = Pool(2)
        out = update_candidates({2: fig1_index.full}, pool, [], (0, iv), fig1_index)
        assert out == {2: iv}
        outside = fig1_index.full & ~iv
        assert outside
        for s in range(outside.bit_length()):
            if outside >> s & 1:
                assert pool.count(2, s) == 0
        assert pool.count(2, fig1_index.segment(2)) == 1


class TestBranchOnOwnSets:
    """Each call pops its branch vertex from its own candidates before the
    children are counted, so ``update_candidates`` never sees it."""

    @pytest.fixture
    def visited(self, monkeypatch):
        seen = []

        def checked(source, pool, blockers, pair, index):
            assert pair[0] not in source
            seen.append(pair[0])
            return update_candidates(source, pool, blockers, pair, index)

        monkeypatch.setattr("tkplex.search.update_candidates", checked)
        return seen

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workloads(self, visited, name):
        workload = WORKLOADS[name]
        graph = parse_edge_list(workload.generate(1).edge_list_text())
        config = SearchConfig(workload.delta, workload.k, workload.connected)
        collect_maximal_plexes(graph, config)
        assert visited

    @pytest.mark.parametrize("connectedness", [False, True])
    def test_sweep_slice(self, visited, connectedness):
        for graph in sweep_corpus()[:40]:
            for delta in range(min(3, graph.lifetime)):
                for k in (1, 2, 3):
                    config = SearchConfig(delta, k, connectedness)
                    collect_maximal_plexes(graph, config)
        assert visited


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
        assert _as_set(records) == set(truth)

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

    def test_k_above_vertex_count_builds_at_most_n_plus_one_levels(self, monkeypatch):
        graph = random_temporal_graph(random.Random(4), n=6, omega=8, density=0.4)
        n = graph.vertex_count
        levels = []

        class CountedPool(Pool):
            def __init__(self, k):
                levels.append(k)
                super().__init__(k)

        monkeypatch.setattr("tkplex.search.Pool", CountedPool)
        huge, _ = collect_maximal_plexes(graph, SearchConfig(delta=1, k=10**6))
        assert levels == [n + 1]
        assert huge == collect_maximal_plexes(graph, SearchConfig(delta=1, k=n + 1))[0]

    def test_pivot_and_connectedness_filter_together_miss_no_plex(self):
        # at plex (b,): pivot a (excluded) leaves only e, which has no edge
        # to b, and suppresses c, d and g; {b, c, d, e, g} needs e and one
        # of them
        edges = (
            (1, 0, 2), (1, 0, 4), (1, 0, 5), (1, 1, 2), (1, 1, 5), (1, 1, 6),
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 0, 1), (2, 0, 2),
            (2, 0, 3), (2, 0, 5), (2, 0, 6), (2, 1, 2), (2, 1, 3), (2, 1, 6),
            (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 3, 4), (2, 3, 6), (2, 4, 6),
            (2, 5, 6),
        )
        graph = TemporalGraph(tuple("abcdefg"), edges, 2)
        records, _ = collect_maximal_plexes(graph, SearchConfig(0, 2, True))
        truth = set(enumerate_all_maximal(graph, 0, 2))
        assert PlexRecord((1, 2, 3, 4, 6), Interval(2, 2)) in truth
        assert _as_set(records) == {r for r in truth if len(r.vertices) > 4}

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

    def test_search_depth_is_not_bounded_by_the_interpreter_stack(self):
        # the one-frame 400-clique nests 400 calls deep: far past a
        # recursion limit of 200, which a recursive search would hit
        script = (
            "import sys\n"
            "from tkplex.graph import TemporalGraph\n"
            "from tkplex.search import SearchConfig, collect_maximal_plexes\n"
            "sys.setrecursionlimit(200)\n"
            "n = 400\n"
            "edges = tuple((1, u, v) for u in range(n) for v in range(u + 1, n))\n"
            "graph = TemporalGraph(tuple(f'v{i:03d}' for i in range(n)), edges, 1)\n"
            "records, stats = collect_maximal_plexes(graph, SearchConfig(delta=0, k=1))\n"
            "print(len(records), len(records[0].vertices), stats.recursive_calls)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "400", "401"]

    def test_phase_timers_within_wall_time(self, fig1_graph):
        # with --connected (k = 1) the core peel has its own timer
        for config in (SearchConfig(delta=1, k=2),
                       SearchConfig(delta=1, k=1, connectedness=True)):
            _, stats = collect_maximal_plexes(fig1_graph, config)
            assert stats.index_seconds > 0
            assert stats.core_seconds > 0
            assert stats.search_seconds > 0
            phases = stats.index_seconds + stats.core_seconds + stats.search_seconds
            assert phases <= stats.wall_time_seconds

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
            assert _as_set(records) == set(truth)


class TestPlainRunsMatchOracle:
    """Without ``--connected``: the oracle's records, once each, monitored."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(2, 6),
        omega=st.integers(1, 10),
        k=st.integers(1, 3),
        density=st.sampled_from((0.2, 0.4, 0.6, 0.8)),
        rng=st.randoms(use_true_random=False),
        data=st.data(),
    )
    def test_matches_oracle(self, n, omega, k, density, rng, data):
        delta = data.draw(st.integers(0, omega - 1), label="delta")
        graph = random_temporal_graph(rng, n, omega, density)
        records, _ = collect_maximal_plexes(
            graph, SearchConfig(delta=delta, k=k),
            monitor=InvariantMonitor(graph, delta, k, connectedness=False),
        )
        assert len(set(records)) == len(records)
        assert set(records) == set(enumerate_all_maximal(graph, delta, k))


class TestConnectedCoreCut:
    """``--connected`` cuts root entries to each vertex's (k+1)-core frames."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(2, 8),
        omega=st.integers(1, 10),
        delta=st.integers(0, 2),
        k=st.integers(1, 3),
        density=st.sampled_from((0.3, 0.5, 0.7, 0.9)),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_oracle_records_of_order_2k_plus_1(
        self, n, omega, delta, k, density, rng
    ):
        assume(delta < omega)
        graph = random_temporal_graph(rng, n, omega, density)
        records, _ = collect_maximal_plexes(
            graph, SearchConfig(delta=delta, k=k, connectedness=True)
        )
        truth = set(enumerate_all_maximal(graph, delta, k))
        assert _as_set(records) == {r for r in truth if len(r.vertices) > 2 * k}

    def test_scale_records_equal_the_filtered_plain_run(self):
        # the S4 shape: 30 vertices, 3,000 contacts over 500 steps
        graph = scale_graph(n=30, edge_target=3000, omega=500)
        connected, _ = collect_maximal_plexes(
            graph, SearchConfig(delta=20, k=2, connectedness=True)
        )
        plain, _ = collect_maximal_plexes(graph, SearchConfig(delta=20, k=2))
        assert connected
        assert connected == [r for r in plain if len(r.vertices) >= 5]

    def test_sparse_graph_without_cores_takes_one_call(self):
        # about five contacts per 11-step window among 100 vertices: no
        # window has a 3-core, so the root has no candidates
        graph = scale_graph(n=100, edge_target=5000, omega=10_000)
        records, stats = collect_maximal_plexes(
            graph, SearchConfig(delta=10, k=2, connectedness=True)
        )
        assert records == []
        assert stats.recursive_calls == 1
