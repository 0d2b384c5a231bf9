"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  The randomized sweep is computed once and shared by the
criteria that consume it.
"""

import math
import random
import time
from contextlib import nullcontext
from itertools import combinations

import pytest

from tkplex.graph import (
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    delta_slice_degeneracy,
    plex_count_upper_bound,
)
from tkplex.instrumentation import InvariantMonitor, InvariantViolation
from tkplex.intervals import Interval
from tkplex.oracle import enumerate_all_maximal, static_degeneracy
from tkplex.search import (
    PlexRecord,
    SearchConfig,
    collect_maximal_plexes,
    enumerate_maximal_plexes,
)

from conftest import (
    FIG1_TEXT,
    edgeless_graph,
    frame_bits,
    scale_graph,
    static_maximal_kplexes,
    sweep_corpus,
    union_adjacency,
    unpivoted,
)
from tkplex.graph import parse_edge_list

CORPUS = sweep_corpus(count=200)
DELTAS = (0, 1, 2)
KS = (1, 2, 3)
FLAG_COMBOS = tuple(
    (pivoting, connectedness)
    for pivoting in (False, True)
    for connectedness in (False, True)
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, f"{criterion}: {detail}"


def pivot_mode(pivoting: bool):
    """The search as it is, or with its pivot patched out."""
    return nullcontext() if pivoting else unpivoted()


@pytest.fixture(scope="module")
def sweep():
    """Oracle truth plus all four instrumented runs per (graph, delta, k)."""
    cases = []
    for graph in CORPUS:
        for delta in DELTAS:
            if graph.lifetime - delta < 1:
                continue
            truth_by_k = {}
            for k in KS:
                truth_by_k[k] = set(enumerate_all_maximal(graph, delta, k))
            fd = FrameDomain.for_graph(graph, delta)
            degeneracy = delta_slice_degeneracy(graph, fd)
            for k in KS:
                runs = {}
                violations = []
                for pivoting, connectedness in FLAG_COMBOS:
                    config = SearchConfig(
                        delta=delta, k=k, connectedness=connectedness
                    )
                    monitor = InvariantMonitor(graph, delta, k, connectedness)
                    with pivot_mode(pivoting):
                        try:
                            records, stats = collect_maximal_plexes(
                                graph, config, monitor=monitor
                            )
                        except InvariantViolation as exc:
                            violations.append(
                                f"{graph.labels} delta={delta} k={k} "
                                f"flags={(pivoting, connectedness)}: {exc}"
                            )
                            # criteria 2 and 4 still compare the output
                            records, stats = collect_maximal_plexes(graph, config)
                    runs[(pivoting, connectedness)] = (set(records), stats)
                cases.append(
                    {
                        "graph": graph,
                        "delta": delta,
                        "k": k,
                        "truth": truth_by_k[k],
                        "runs": runs,
                        "violations": violations,
                        "degeneracy": degeneracy,
                    }
                )
    return cases


def _describe(case) -> str:
    return (
        f"graph n={case['graph'].vertex_count} m={case['graph'].edge_count} "
        f"omega={case['graph'].lifetime} delta={case['delta']} k={case['k']}"
    )


def test_criterion_1_figure1_exactness():
    graph = parse_edge_list(FIG1_TEXT)
    started = time.monotonic()
    records2, _ = collect_maximal_plexes(graph, SearchConfig(delta=1, k=2))
    records1, _ = collect_maximal_plexes(graph, SearchConfig(delta=1, k=1))
    elapsed = time.monotonic() - started
    headline = PlexRecord((0, 1, 2), Interval(4, 5))
    ok = (
        headline in records2
        and set(records2) == set(enumerate_all_maximal(graph, 1, 2))
        and set(records1) == set(enumerate_all_maximal(graph, 1, 1))
        and elapsed < 1.0
    )
    report(
        "criterion 1: three-vertex fixture output is exact for k=1 and k=2",
        ok,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_2_oracle_equivalence_sweep(sweep):
    failures = []
    for case in sweep:
        k = case["k"]
        filtered = {r for r in case["truth"] if len(r.vertices) >= 2 * k + 1}
        for flags, (records, _) in case["runs"].items():
            expected = filtered if flags[1] else case["truth"]
            if records != expected:
                failures.append(f"{_describe(case)} flags={flags}")
    report(
        f"criterion 2: enumerator equals brute force on {len(sweep)} sweep "
        "cases under all flag combinations",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_3_invariants_and_call_bound(sweep):
    failures = [v for case in sweep for v in case["violations"]]
    for case in sweep:
        graph = case["graph"]
        if case["k"] > graph.vertex_count:
            # the counting argument behind the bound needs k <= |V|
            continue
        _, stats = case["runs"][(False, False)]
        bound = plex_count_upper_bound(
            graph.vertex_count, case["k"], case["degeneracy"],
            graph.edge_count, graph.lifetime,
        )
        if stats.recursive_calls > bound:
            failures.append(
                f"{_describe(case)}: {stats.recursive_calls} calls > bound {bound}"
            )
    report(
        "criterion 3: per-call invariants hold and call counts stay within "
        "the combinatorial bound",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_4_heuristic_relations(sweep):
    failures = []
    for case in sweep:
        k = case["k"]
        filtered = {r for r in case["truth"] if len(r.vertices) >= 2 * k + 1}
        for connectedness in (False, True):
            plain, plain_stats = case["runs"][(False, connectedness)]
            pivoted, pivot_stats = case["runs"][(True, connectedness)]
            if pivoted != plain:
                failures.append(f"{_describe(case)}: pivoting changed the output")
            if pivot_stats.recursive_calls > plain_stats.recursive_calls:
                failures.append(f"{_describe(case)}: pivoting added calls")
        for pivoting in (False, True):
            connected, _ = case["runs"][(pivoting, True)]
            if connected != filtered:
                failures.append(
                    f"{_describe(case)}: connected mode is not the size filter"
                )
    report(
        "criterion 4: pivoting saves calls without changing output; "
        "connected mode equals the size-filtered output",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_5_edgeless_closed_form():
    failures = []
    omega = 4
    for n in range(2, 7):
        graph = edgeless_graph(n, omega)
        for k in range(1, min(3, n) + 1):
            for delta in (0, 1):
                records, _ = collect_maximal_plexes(
                    graph, SearchConfig(delta=delta, k=k)
                )
                expected = {
                    PlexRecord(group, Interval(1, omega - delta))
                    for group in combinations(range(n), k)
                }
                if set(records) != expected or len(records) != math.comb(n, k):
                    failures.append(f"n={n} k={k} delta={delta}")
    report(
        "criterion 5: edgeless graphs yield exactly the C(n,k) vertex "
        "subsets over the full frame domain",
        not failures,
        "; ".join(failures),
    )


def test_criterion_6_static_reduction():
    failures = []
    for graph in CORPUS:
        delta = graph.lifetime - 1
        for k in KS:
            records, _ = collect_maximal_plexes(
                graph, SearchConfig(delta=delta, k=k)
            )
            expected = {
                tuple(sorted(group)) for group in static_maximal_kplexes(graph, k)
            }
            got = {r.vertices for r in records}
            if got != expected or any(r.interval != Interval(1, 1) for r in records):
                failures.append(
                    f"n={graph.vertex_count} m={graph.edge_count} k={k}"
                )
    report(
        "criterion 6: the single-frame case reproduces the maximal static "
        "k-plexes of the union graph",
        not failures,
        "; ".join(failures[:5]),
    )


def test_criterion_7_interval_algebra_conformance():
    # a contact at every step with delta = 0 makes every frame its own
    # segment, so every frame set is a segment bitset of the search: union
    # is |, intersection & and difference x ^ (x & y)
    contacts = tuple((t, 0, 1) for t in range(1, 31))
    graph = TemporalGraph(("a", "b"), contacts, 30)
    index = NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, 0))
    assert index.full.bit_length() == 30  # one segment per frame

    def decode(frames: int) -> frozenset[int]:
        return frozenset(index.frame_set(frames).members())

    a = frame_bits(index, (1, 2), (5, 8))
    b = frame_bits(index, (1, 4), (5, 6))
    c = frame_bits(index, (1, 4), (5, 8))
    d = frame_bits(index, (1, 2), (5, 6))
    # the union merges across the adjacent endpoints 4 and 5, per the
    # maximal-interval definition all operations share
    examples_ok = (
        str(index.frame_set(a | b)) == "{[1,8]}"
        and str(index.frame_set(a & b)) == "{[1,2],[5,6]}"
        and str(index.frame_set(c ^ (c & d))) == "{[3,4],[7,8]}"
    )
    rng = random.Random(7)
    mismatches = 0
    started = time.monotonic()
    for _ in range(10_000):
        xs = frozenset(rng.randint(1, 30) for _ in range(rng.randint(0, 20)))
        ys = frozenset(rng.randint(1, 30) for _ in range(rng.randint(0, 20)))
        x = sum(1 << index.segment(f) for f in xs)
        y = sum(1 << index.segment(f) for f in ys)
        if (
            decode(x | y) != xs | ys
            or decode(x & y) != xs & ys
            or decode(x ^ (x & y)) != xs - ys
        ):
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = examples_ok and mismatches == 0 and elapsed < 10.0
    report(
        "criterion 7: the search's frame-set algebra matches the worked "
        "examples and 10,000 integer-set oracle trials",
        ok,
        f"examples_ok={examples_ok} mismatches={mismatches} "
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_8_degeneracy():
    graph = parse_edge_list(FIG1_TEXT)
    fixture_ok = (
        delta_slice_degeneracy(graph, FrameDomain.for_graph(graph, 1)) == 2
    )
    failures = []
    for g in CORPUS:
        delta = g.lifetime - 1
        sliced = delta_slice_degeneracy(g, FrameDomain.for_graph(g, delta))
        static = static_degeneracy(union_adjacency(g))
        if sliced != static:
            failures.append(f"n={g.vertex_count} m={g.edge_count}")
    report(
        "criterion 8: slice degeneracy is 2 on the fixture and collapses "
        "to static degeneracy at the widest window",
        fixture_ok and not failures,
        f"fixture_ok={fixture_ok}; " + "; ".join(failures[:5]),
    )


def test_criterion_9_scale_smoke():
    graph = scale_graph()
    started = time.monotonic()
    counts = {}
    for pivoting in (False, True):
        with pivot_mode(pivoting):
            stats = enumerate_maximal_plexes(graph, SearchConfig(delta=0, k=1))
        counts[pivoting] = stats.plex_count
    elapsed = time.monotonic() - started
    ok = counts[False] == counts[True] and elapsed < 300.0
    report(
        "criterion 9: 100-vertex, 50,000-edge instance finishes in "
        "under five minutes with pivot-independent counts",
        ok,
        f"counts={counts} elapsed={elapsed:.1f}s",
    )
