"""The per-layer metrics of a traced `tkplex enumerate` run.

The benchmark's tracer (perfbench/layers.py) wraps library functions by
name.  It quietly drops the metrics of a target that is gone or whose
arguments no longer fit, and the benchmark's own test only checks that the
reported names are known ones.  These tests pin the full set, so a change
that loses a metric fails here.  They also pin the output and the counts of
the benchmark's workloads, which do not depend on the machine: a change in
them is a change in behaviour, not in speed.
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, uniform_contacts  # noqa: E402

from tkplex import cli  # noqa: E402
from tkplex.graph import parse_edge_list  # noqa: E402
from tkplex.pool import Pool  # noqa: E402
from tkplex.search import SearchConfig, collect_maximal_plexes  # noqa: E402

DELTA = 2
# run.py adds these two itself, from outside the tracer
ADDED_BY_RUN = {"cli.output_bytes", "trace.overhead_ratio"}


def nonneighbor_interval_count(text: str, delta: int) -> int:
    """Maximal non-neighbor frame intervals of every pair with a contact."""
    graph = parse_edge_list(text)
    last = graph.lifetime - delta
    times: dict[tuple[int, int], list[int]] = {}
    for t, u, v in graph.edges:
        times.setdefault((u, v), []).append(t)
    total = 0
    for ts in times.values():
        apart = [not any(i <= t <= i + delta for t in ts) for i in range(1, last + 1)]
        total += sum(
            1 for i, gap in enumerate(apart) if gap and (i == 0 or not apart[i - 1])
        )
    return total


@pytest.mark.parametrize("extra", [[], ["--connected"]])
def test_traced_run_reports_every_layer_metric(tmp_path, capsys, extra):
    text = uniform_contacts(random.Random(3), n=10, m=150, omega=40).edge_list_text()
    edges = tmp_path / "edges.txt"
    edges.write_text(text)
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(
            ["enumerate", str(edges), "--delta", str(DELTA), "--k", "1", *extra,
             "--output", str(tmp_path / "out.txt")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.broken == set()
    metrics = tracer.metrics()
    assert set(metrics) == set(LAYER_METRICS) - ADDED_BY_RUN
    assert metrics["graph.index_intervals"] == nonneighbor_interval_count(text, DELTA)
    assert metrics["search.plexes"] > 0
    # the search keeps its frame sets as bitsets, off the interval algebra
    for op in ("intersect", "minus", "canonicalize"):
        assert metrics[f"intervals.{op}_calls"] == 0


# (recursive_calls, plex_count, Pool.increment calls, sha256 of the output
# file) per seed; the search counts an entry only inside its cut to the new
# lifetime, after the blockers, on the frames a later call can read
WORKLOAD_PINS = {
    "clique-long": {
        1: (822, 6036, 821,
            "836d487e6ee667e9bb22bbe69310f6a062769b429c55acc884881e565ec8b3c1"),
        2: (821, 6025, 820,
            "8a767db6b6b75c0cecd10838d5c0cbd131359d5d560515adc3eedfd9c59af8ad"),
        3: (819, 6036, 818,
            "1932c951719c5a79af58daff5c41e25944e7ccd39b098d51fbfc853c0287fdb7"),
    },
    "plex-window": {
        1: (3601, 5910, 18798,
            "42ddcceeafdca8fe095f7bb2f80eca5e59f94d6ea1b3cf83756d5c8629228146"),
        2: (3450, 5742, 18058,
            "bce6fdfa42980a88c52e997e4b93050551e33680ad9041476e8e1ae190fa31e4"),
        3: (3734, 6027, 19165,
            "fb8e4343b7c14e33da070c2057ff5c311fe4c9c0de9a477a12d0ae3427ab34f2"),
    },
    "community-connected": {
        1: (170, 4, 1858,
            "cddc2238505a94bb31b0cfeeb54d6b89c49fe072a297c6edc21f4b8645c53986"),
        2: (61, 4, 60,
            "1f65e1858958f773e9ba74e5140217eca4569187a8b628090959612ae2f305d8"),
        3: (150, 4, 941,
            "0bd91261513af5a550f80ca17078e131c351d51dc65581df0775f6a6ffd74a26"),
    },
}


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in sorted(WORKLOAD_PINS) for seed in WORKLOAD_PINS[name]],
)
def test_workload_output_and_counts_are_pinned(tmp_path, monkeypatch, name, seed):
    workload = WORKLOADS[name]
    edges, out, stats_path = (tmp_path / f for f in ("edges.txt", "out.txt", "stats.txt"))
    edges.write_text(workload.generate(seed).edge_list_text())
    increment, increments = Pool.increment, 0

    def counted(pool, vertex, frames):
        nonlocal increments
        increments += 1
        return increment(pool, vertex, frames)

    monkeypatch.setattr(Pool, "increment", counted)
    code = cli.main(
        ["enumerate", str(edges), *workload.enumerate_args(),
         "--output", str(out), "--stats", str(stats_path)]
    )
    assert code == 0
    stats = dict(line.split("=", 1) for line in stats_path.read_text().splitlines())
    calls, plexes, pool_increments, digest = WORKLOAD_PINS[name][seed]
    assert int(stats["recursive_calls"]) == calls
    assert int(stats["plex_count"]) == plexes
    assert increments == pool_increments
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_stats_summarize_the_records(name):
    # the search updates these once per call, from the call's records
    workload = WORKLOADS[name]
    graph = parse_edge_list(workload.generate(1).edge_list_text())
    config = SearchConfig(workload.delta, workload.k, workload.connected)
    records, stats = collect_maximal_plexes(graph, config)
    assert records
    assert stats.plex_count == len(records)
    assert stats.max_plex_order == max(len(r.vertices) for r in records)
    assert stats.max_lifetime_length == max(r.interval.length() for r in records)
