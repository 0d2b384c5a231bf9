import random

from tkplex.graph import FrameDomain, NonNeighborhoodIndex, TemporalGraph
from tkplex.heuristics import PivotChoice, connected_candidates, select_pivot
from tkplex.search import SearchConfig, collect_maximal_plexes

from conftest import frame_bits, random_temporal_graph, unpivoted


def complete_temporal_graph(n: int, omega: int) -> TemporalGraph:
    edges = tuple(
        (t, u, v)
        for t in range(1, omega + 1)
        for u in range(n)
        for v in range(u + 1, n)
    )
    return TemporalGraph(tuple("abcdefgh"[:n]), tuple(sorted(edges)), omega)


class TestSelectPivot:
    def test_complete_graph_root_collapses_fanout(self):
        graph = complete_temporal_graph(4, 3)
        fd = FrameDomain.for_graph(graph, 0)
        index = NonNeighborhoodIndex(graph, fd)
        candidates = {v: index.full for v in range(4)}
        choice = select_pivot((), index.full, candidates, {}, index)
        assert choice is not None
        assert choice.pivot == 0  # smallest index wins the tie
        assert choice.suppressed == frozenset({1, 2, 3})
        assert choice.pivot not in choice.suppressed

    def test_fixture_root_suppression(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        index = NonNeighborhoodIndex(fig1_graph, fd)
        candidates = {v: index.full for v in range(3)}
        choice = select_pivot((), index.full, candidates, {}, index)
        # every pair has non-neighbor frames, so no candidate is fully
        # adjacent to any pivot over the whole domain [1,5]
        assert choice is not None
        assert choice.suppressed == frozenset()
        assert choice.pivot not in choice.suppressed

    def test_empty_candidate_and_excluded_sets(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        index = NonNeighborhoodIndex(fig1_graph, fd)
        assert select_pivot((), index.full, {}, {}, index) is None

    def test_pivot_must_absorb_into_every_member(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        index = NonNeighborhoodIndex(fig1_graph, fd)
        # with C={a} over [3,4], b is a non-neighbor of a on all of [3,4],
        # so b is ineligible; c neighbors a throughout [3,4] and qualifies
        window = frame_bits(index, (3, 4))
        choice = select_pivot((0,), window, {1: window, 2: window}, {}, index)
        assert choice is not None
        assert choice.pivot == 2

    def test_excluded_vertices_can_pivot(self):
        graph = complete_temporal_graph(3, 2)
        fd = FrameDomain.for_graph(graph, 0)
        index = NonNeighborhoodIndex(graph, fd)
        full = index.full
        choice = select_pivot((), full, {1: full, 2: full}, {0: full}, index)
        assert choice is not None
        assert choice.pivot == 0
        assert choice.suppressed == frozenset({1, 2})

    def test_entry_short_of_the_lifetimes_never_pivots(self):
        # 0 is adjacent to everything in every frame, but its entry holds
        # only part of the lifetimes, so it cannot pivot
        graph = complete_temporal_graph(3, 3)
        index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, 0))
        full = index.full
        part = frame_bits(index, (1, 2))
        for excluded in ({}, {2: full}):
            choice = select_pivot((), full, {0: part, 1: full}, excluded, index)
            assert choice is not None
            assert choice.pivot != 0
        assert select_pivot((), full, {0: part}, {}, index) is None

    def test_later_excluded_vertex_beats_a_full_candidate_pivot(self):
        # candidate 0 suppresses the one other candidate, |candidates| - 1;
        # excluded 2 suppresses both, so the scan must not stop at 0
        graph = complete_temporal_graph(3, 1)
        index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, 0))
        full = index.full
        choice = select_pivot((), full, {0: full, 1: full}, {2: full}, index)
        assert choice == full_scan_pivot((), full, {0: full, 1: full}, {2: full}, index)
        assert choice.pivot == 2
        assert choice.suppressed == frozenset({0, 1})

    def test_matches_full_scan_on_random_inputs(self):
        rng = random.Random(11)
        stopped_early = 0
        for _ in range(600):
            graph = random_temporal_graph(
                rng, rng.randint(2, 8), rng.randint(1, 4), rng.choice([0.5, 0.8, 0.95])
            )
            index = NonNeighborhoodIndex(
                graph, FrameDomain.for_graph(graph, rng.randint(0, graph.lifetime - 1))
            )
            lifetimes = rng.randint(1, index.full)
            vertices = list(range(graph.vertex_count))
            rng.shuffle(vertices)
            members = tuple(vertices[: rng.choice([0, 0, 1, 2])])
            candidates, excluded = {}, {}
            for w in vertices[len(members):]:
                entry = lifetimes
                if rng.random() < 0.3:
                    entry = lifetimes & rng.randint(1, index.full) or lifetimes
                (candidates if rng.random() < 0.7 else excluded)[w] = entry
            want = full_scan_pivot(members, lifetimes, candidates, excluded, index)
            assert select_pivot(members, lifetimes, candidates, excluded, index) == want
            if want is not None and len(want.suppressed) >= len(candidates) - 1:
                stopped_early += 1
        assert stopped_early >= 100  # the early exit is exercised


def full_scan_pivot(members, lifetimes, candidates, excluded, index):
    """Reference: score every eligible vertex, keep the first largest set."""
    entries = {**excluded, **candidates}
    best = None
    for p in sorted(entries):
        if entries[p] != lifetimes:
            continue
        if any(lifetimes & index.rows[p].get(c, index.full) for c in members):
            continue
        suppressed = frozenset(
            w
            for w, iw in candidates.items()
            if w != p and not iw & index.rows[p].get(w, index.full)
        )
        if best is None or len(suppressed) > len(best.suppressed):
            best = PivotChoice(p, suppressed)
    return best


class TestConnectedCandidates:
    def test_fixture_both_candidates_connect(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        index = NonNeighborhoodIndex(fig1_graph, fd)
        full = index.full
        got = connected_candidates({1: full, 2: full}, (0,), full, index)
        assert set(got) == {1, 2}

    def test_empty_plex_keeps_everything(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        index = NonNeighborhoodIndex(fig1_graph, fd)
        candidates = {1: index.full}
        assert connected_candidates(candidates, (), index.full, index) == candidates

    def test_candidate_without_shared_frame_drops(self, fig1_graph):
        fd = FrameDomain.for_graph(fig1_graph, 1)
        index = NonNeighborhoodIndex(fig1_graph, fd)
        # a and c share edges only at t=4 and t=6 (frames 3-5): restricted
        # to frames [1,2], c has no connection to the plex {a}
        got = connected_candidates(
            {2: frame_bits(index, (1, 2))}, (0,), index.full, index
        )
        assert got == {}


class TestHeuristicInvariance:
    def _corpus(self):
        rng = random.Random(321)
        return [
            random_temporal_graph(rng, rng.randint(2, 5), rng.randint(2, 6), 0.35)
            for _ in range(25)
        ]

    def test_pivoting_preserves_output_and_saves_calls(self):
        for graph in self._corpus():
            for delta in (0, 1):
                if graph.lifetime - delta < 1:
                    continue
                for k in (1, 2):
                    config = SearchConfig(delta=delta, k=k)
                    with unpivoted():
                        plain, plain_stats = collect_maximal_plexes(graph, config)
                    pivoted, pivot_stats = collect_maximal_plexes(graph, config)
                    assert set(pivoted) == set(plain)
                    assert pivot_stats.recursive_calls <= plain_stats.recursive_calls

    def test_connected_mode_equals_size_filter(self):
        for graph in self._corpus():
            for delta in (0, 1):
                if graph.lifetime - delta < 1:
                    continue
                for k in (1, 2):
                    plain, _ = collect_maximal_plexes(
                        graph, SearchConfig(delta=delta, k=k)
                    )
                    connected, _ = collect_maximal_plexes(
                        graph, SearchConfig(delta=delta, k=k, connectedness=True)
                    )
                    expected = {r for r in plain if len(r.vertices) >= 2 * k + 1}
                    assert set(connected) == expected
