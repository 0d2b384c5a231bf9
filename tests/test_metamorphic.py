"""Metamorphic relations of the search, on graphs past the oracle's size.

Each relation transforms the input in a way whose effect on the output is
known, and compares two runs of the search: no brute-force oracle is
needed, so the graphs can have up to 12 vertices and a lifetime of 40.

- Time reversal, t -> omega + 1 - t, maps a record's frames [a, b] to
  [L + 1 - b, L + 1 - a], with L = omega - delta the last frame.
- Permuting the vertex indices permutes the records' vertices.
- Scaling the timestamps by s and shifting them, then running
  `tkplex enumerate --resolution s`, gives the same output lines.
- Repeating every contact line, some copies with their endpoints swapped,
  shuffled among comment and blank lines, gives the same output lines.
- Inserting s empty time steps after a frame p whose window holds no
  contact maps every record bound x to x if x <= p and to x + s otherwise.
"""

import random

import pytest

from tkplex.cli import main
from tkplex.graph import TemporalGraph
from tkplex.intervals import Interval
from tkplex.search import SearchConfig, collect_maximal_plexes

from conftest import render_edge_list

GRAPHS = 20
DELTAS = (0, 1, 3)
KS = (1, 2, 3)


def metamorphic_graph(rng: random.Random) -> TemporalGraph:
    """6-12 vertices, lifetime 10-40, contacts at 1 and at the lifetime,
    and every vertex in some contact (so parsing keeps all of them)."""
    n = rng.randint(6, 12)
    omega = rng.randint(10, 40)
    density = rng.choice([0.03, 0.06, 0.1])
    edges = {
        (t, u, v)
        for t in range(1, omega + 1)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }
    edges |= {(1, 0, 1), (omega, 0, 1)}
    for u in range(2, n):
        edges.add((rng.randint(1, omega), *sorted((u, rng.randrange(u)))))
    labels = tuple(f"v{i:02d}" for i in range(n))
    return TemporalGraph(labels, tuple(sorted(edges)), omega)


def run(graph: TemporalGraph, delta: int, k: int, connected: bool) -> list:
    records, stats = collect_maximal_plexes(
        graph, SearchConfig(delta=delta, k=k, connectedness=connected)
    )
    assert not stats.timed_out
    assert len(records) == len(set(records))
    return records


def as_set(records) -> set[tuple[tuple[int, ...], Interval]]:
    return {(r.vertices, r.interval) for r in records}


CASES = [
    (g, delta, k, connected)
    for g in range(GRAPHS)
    for delta in DELTAS
    for k in KS
    for connected in (False, True)
]


@pytest.fixture(scope="module")
def corpus():
    """The graphs and each case's output, shared by the three relations."""
    rng = random.Random(20261018)
    graphs = [metamorphic_graph(rng) for _ in range(GRAPHS)]
    outputs = {case: run(graphs[case[0]], *case[1:]) for case in CASES}
    assert sum(map(len, outputs.values())) > 10 * len(CASES)  # not vacuous
    return graphs, outputs


def test_time_reversal_mirrors_intervals(corpus):
    graphs, outputs = corpus
    for g, delta, k, connected in CASES:
        graph = graphs[g]
        omega = graph.lifetime
        reversed_graph = TemporalGraph(
            graph.labels,
            tuple(sorted((omega + 1 - t, u, v) for t, u, v in graph.edges)),
            omega,
        )
        last = omega - delta
        expected = {
            (vertices, Interval(last + 1 - iv.end, last + 1 - iv.start))
            for vertices, iv in as_set(outputs[g, delta, k, connected])
        }
        got = as_set(run(reversed_graph, delta, k, connected))
        assert got == expected, (g, delta, k, connected)


def test_label_permutation_permutes_vertices(corpus):
    graphs, outputs = corpus
    rng = random.Random(7)
    for g, delta, k, connected in CASES:
        graph = graphs[g]
        perm = list(range(graph.vertex_count))
        rng.shuffle(perm)
        permuted = TemporalGraph(
            graph.labels,
            tuple(sorted((t, *sorted((perm[u], perm[v]))) for t, u, v in graph.edges)),
            graph.lifetime,
        )
        expected = {
            (tuple(sorted(perm[v] for v in vertices)), iv)
            for vertices, iv in as_set(outputs[g, delta, k, connected])
        }
        got = as_set(run(permuted, delta, k, connected))
        assert got == expected, (g, delta, k, connected)


def enumerate_lines(edges, out, capsys, delta, k, connected, *options) -> list[str]:
    """The output lines of `tkplex enumerate` on the edge-list file ``edges``."""
    code = main(
        ["enumerate", str(edges), *options,
         "--delta", str(delta), "--k", str(k), "--output", str(out)]
        + ["--connected"] * connected
    )
    capsys.readouterr()
    assert code == 0
    return out.read_text().splitlines()


def record_lines(graph: TemporalGraph, records) -> list[str]:
    return [
        " ".join((*(graph.labels[v] for v in r.vertices),
                  str(r.interval.start), str(r.interval.end)))
        for r in records
    ]


def test_scaled_and_shifted_timestamps_normalize_back(corpus, tmp_path, capsys):
    # through `tkplex enumerate --resolution`: parsing shifts the first
    # contact to 1 and the resolution divides the scale out again
    graphs, outputs = corpus
    rng = random.Random(11)
    edges, out = tmp_path / "edges.txt", tmp_path / "out.txt"
    for case in CASES:
        graph = graphs[case[0]]
        scale, shift = rng.randint(2, 7), rng.randint(0, 10**6)
        edges.write_text(render_edge_list(TemporalGraph(
            graph.labels,
            tuple((scale * t + shift, u, v) for t, u, v in graph.edges),
            scale * graph.lifetime + shift,
        )))
        got = enumerate_lines(edges, out, capsys, *case[1:], "--resolution", str(scale))
        assert got == record_lines(graph, outputs[case]), case


def test_duplicated_contacts_leave_the_output_unchanged(corpus, tmp_path, capsys):
    # through `tkplex enumerate`: parsing collapses a repeated contact into
    # one, whichever way round its endpoints are written
    graphs, outputs = corpus
    rng = random.Random(13)
    edges, out = tmp_path / "edges.txt", tmp_path / "out.txt"
    for case in CASES:
        graph = graphs[case[0]]
        lines = render_edge_list(graph).splitlines()
        lines += [
            " ".join((t, b, a) if rng.random() < 0.5 else (t, a, b))
            for t, a, b in map(str.split, lines)
        ]
        lines += ["# a comment", "", "  "] * rng.randint(1, 3)
        rng.shuffle(lines)
        edges.write_text("\n".join(lines) + "\n")
        got = enumerate_lines(edges, out, capsys, *case[1:])
        assert got == record_lines(graph, outputs[case]), case


def test_empty_steps_after_an_empty_frame_shift_later_bounds(corpus):
    # the inserted frames repeat frame p, whose window [p, p + delta] holds
    # no contact, so they fall into frame p's segment
    graphs, _ = corpus
    rng = random.Random(13)
    records = 0
    for g, delta, k, connected in CASES:
        graph = graphs[g]
        p = rng.randint(2, graph.lifetime - delta - 1)
        s = rng.randint(1, 5)
        cleared = [(t, u, v) for t, u, v in graph.edges if not p <= t <= p + delta]
        before = TemporalGraph(graph.labels, tuple(cleared), graph.lifetime)
        after = TemporalGraph(
            graph.labels,
            tuple((t + s * (t > p), u, v) for t, u, v in cleared),
            graph.lifetime + s,
        )

        def moved(x: int) -> int:
            return x if x <= p else x + s

        expected = {
            (vertices, Interval(moved(iv.start), moved(iv.end)))
            for vertices, iv in as_set(run(before, delta, k, connected))
        }
        got = as_set(run(after, delta, k, connected))
        assert got == expected, (g, delta, k, connected, p, s)
        records += len(got)
    assert records > 10 * len(CASES)  # not vacuous
