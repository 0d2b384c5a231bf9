"""The pool's counts stop at k: no increment touches a segment already at k.

``Pool`` keeps only k levels per vertex, so a count above k cannot be
stored.  The search never asks for one: it strips an entry's frames where
a member at k is a non-neighbor before it counts the entry, and the frames
where the entry's own count reaches k after.  These tests watch every
increment of real runs and fail on the first one that would raise a count
past k.
"""

import sys
from pathlib import Path

import pytest

from tkplex.graph import parse_edge_list
from tkplex.pool import Pool
from tkplex.search import SearchConfig, collect_maximal_plexes

from conftest import sweep_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def checked_run(monkeypatch):
    """Run the search with every increment checked against k.

    Returns the number of increments checked.
    """
    increment = Pool.increment

    def run(graph, config):
        k, calls = config.k, 0

        def checked(pool, vertex, frames):
            # k raises of a copy bring each segment below k to k exactly
            # once; a segment already at k is never reported
            nonlocal calls
            probe, reached = pool.copy(), 0
            for _ in range(k):
                reached |= increment(probe, vertex, frames)
            assert reached == frames, f"vertex {vertex}: a count is already {k}"
            calls += 1
            return increment(pool, vertex, frames)

        with monkeypatch.context() as patch:
            patch.setattr(Pool, "increment", checked)
            collect_maximal_plexes(graph, config)
        return calls

    return run


def test_sweep_slice_never_counts_past_k(checked_run):
    calls = 0
    for graph in sweep_corpus(count=200)[:100]:
        for delta in (0, 1, 2):
            if graph.lifetime - delta < 1:
                continue
            for k in (1, 2, 3):
                for connected in (False, True):
                    calls += checked_run(graph, SearchConfig(delta, k, connected))
    assert calls > 10_000  # not vacuous


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_never_count_past_k(checked_run, name):
    workload = WORKLOADS[name]
    graph = parse_edge_list(workload.generate(1).edge_list_text())
    config = SearchConfig(workload.delta, workload.k, workload.connected)
    calls = checked_run(graph, config)
    assert calls > 0
    # some runs make few increments, so the same graph also runs in a second
    # config to keep the check from being vacuous: the root core cut leaves
    # a connected run few, and at k=1 the first count on a frame strips it
    if workload.connected:
        calls += checked_run(graph, SearchConfig(workload.delta, workload.k))
    if workload.k == 1:
        calls += checked_run(graph, SearchConfig(workload.delta, 2))
    assert calls > 10_000
