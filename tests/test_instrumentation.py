"""The invariant monitor catches a fault in each of its four checks.

Each test takes one real call state of the search on the three-vertex
fixture, corrupts it in one way, and expects the check that guards that
part of the state to raise.  A monitor whose ``on_call`` does nothing
fails every test but the first.
"""

import pytest

from tkplex.graph import FrameDomain, NonNeighborhoodIndex
from tkplex.instrumentation import InvariantMonitor, InvariantViolation
from tkplex.intervals import Interval
from tkplex.pool import Pool
from tkplex.search import SearchConfig, update_candidates, update_pool

from conftest import frame_set

DELTA, K = 1, 2


@pytest.fixture
def monitor(fig1_graph):
    return InvariantMonitor(fig1_graph, SearchConfig(delta=DELTA, k=K))


def call_state(graph, k):
    """The search's arguments to ``on_call`` at its call for the plex {a, b}.

    The root branches on a, then on b, with nothing excluded yet.  At
    delta 1 every frame of [1,5] is a segment of its own.
    """
    index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, DELTA))
    full = index.full
    members, lifetimes, pool = (), full, Pool(k)
    candidates = {0: full, 1: full, 2: full}
    for v in (0, 1):
        iv = candidates.pop(v)
        members += (v,)
        pool, blockers = update_pool(pool, members, (v, iv), index)
        candidates = update_candidates(candidates, pool, blockers, (v, iv), index)
        lifetimes = iv
    return members, lifetimes, candidates, {}, pool, index


@pytest.fixture
def state(fig1_graph):
    return call_state(fig1_graph, K)


def test_real_state_passes(monitor, state):
    members, lifetimes, candidates, _, pool, index = state
    assert (members, lifetimes) == ((0, 1), index.full)
    assert frame_set(index, candidates[2]) == (Interval(1, 1), Interval(4, 5))
    assert pool.count(2, index.segment(1)) == 1
    monitor.on_call(*state)


def test_pool_count_one_too_high(monitor, state):
    members, lifetimes, candidates, excluded, pool, index = state
    bad = pool.copy()
    bad.increment(2, 1 << index.segment(1))  # on frame 1, c misses a only
    with pytest.raises(InvariantViolation, match="vertex 2 frame 1 is 2, expected 1"):
        monitor.on_call(members, lifetimes, candidates, excluded, bad, index)


def test_candidate_entry_with_an_extra_segment(monitor, state):
    members, lifetimes, candidates, excluded, pool, index = state
    # c misses both a and b on frame 2, so {a, b, c} is no 2-plex there;
    # the pool's count of 2 there is right, so only the entry is wrong
    grown = {2: candidates[2] | (1 << index.segment(2))}
    with pytest.raises(InvariantViolation, match="candidate entry for vertex 2"):
        monitor.on_call(members, lifetimes, grown, excluded, pool, index)


def test_same_call_twice(monitor, state):
    monitor.on_call(*state)
    with pytest.raises(InvariantViolation, match=r"duplicate recursive call"):
        monitor.on_call(*state)


def test_lifetime_run_not_time_maximal(monitor, state):
    members, lifetimes, candidates, excluded, pool, index = state
    cut = lifetimes ^ (1 << index.segment(5))  # {a, b} is a 2-plex on [1,5]
    with pytest.raises(InvariantViolation, match=r"not a time-maximal plex on \[1,4\]"):
        monitor.on_call(members, cut, candidates, excluded, pool, index)


@pytest.mark.parametrize("reverse", [False, True], ids=["fig1", "time-reversed"])
def test_candidate_entry_outside_the_lifetimes(fig1_graph, reverse):
    # at k = 1, {a, b} is a plex on two runs of frames and {a, b, c} on one
    # frame of one of them: the last run, or in reversed time the first.
    # With that run cut from the lifetimes the rest of the state stays
    # true, but c's entry now lies outside them
    graph = fig1_graph
    if reverse:
        edges = sorted((graph.lifetime + 1 - t, u, v) for t, u, v in graph.edges)
        graph = graph._replace(edges=tuple(edges))
    members, lifetimes, candidates, excluded, pool, index = call_state(graph, 1)
    [(holding, _)] = [r for r in index.runs(lifetimes) if r[0] & candidates[2]]
    assert len(frame_set(index, lifetimes)) == 2
    monitor = InvariantMonitor(graph, SearchConfig(delta=DELTA, k=1))
    with pytest.raises(InvariantViolation, match="candidate entry for vertex 2"):
        monitor.on_call(members, lifetimes ^ holding, candidates, excluded, pool, index)
