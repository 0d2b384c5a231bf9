"""The per-layer metrics of a traced `tkplex enumerate` run.

The benchmark's tracer (perfbench/layers.py) wraps library functions by
name.  It quietly drops the metrics of a target that is gone or whose
arguments no longer fit, and the benchmark's own test only checks that the
reported names are known ones.  These tests pin the full set, so a change
that loses a metric fails here.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import LAYER_METRICS, Tracer  # noqa: E402
from workloads import uniform_contacts  # noqa: E402

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
