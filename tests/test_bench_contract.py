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


# (recursive_calls, plex_count, sha256 of the output file) at seed 1
WORKLOAD_PINS = {
    "clique-long": (
        822, 6036,
        "836d487e6ee667e9bb22bbe69310f6a062769b429c55acc884881e565ec8b3c1",
    ),
    "plex-window": (
        3601, 5910,
        "42ddcceeafdca8fe095f7bb2f80eca5e59f94d6ea1b3cf83756d5c8629228146",
    ),
    "community-connected": (
        1357, 4,
        "cddc2238505a94bb31b0cfeeb54d6b89c49fe072a297c6edc21f4b8645c53986",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_PINS))
def test_workload_output_and_counts_are_pinned(tmp_path, name):
    workload = WORKLOADS[name]
    edges, out, stats_path = (tmp_path / f for f in ("edges.txt", "out.txt", "stats.txt"))
    edges.write_text(workload.generate(1).edge_list_text())
    code = cli.main(
        ["enumerate", str(edges), *workload.enumerate_args(),
         "--output", str(out), "--stats", str(stats_path)]
    )
    assert code == 0
    stats = dict(line.split("=", 1) for line in stats_path.read_text().splitlines())
    calls, plexes, digest = WORKLOAD_PINS[name]
    assert int(stats["recursive_calls"]) == calls
    assert int(stats["plex_count"]) == plexes
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
