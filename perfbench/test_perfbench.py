"""Tests of the benchmark itself: checker, generators and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import parse_records, run_checks  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, planted_communities, uniform_contacts  # noqa: E402
from tkplex.cli import main as cli_main  # noqa: E402


def enumerate_text(tmp_path: Path, edges_text: str, args: list[str]) -> str:
    edges = tmp_path / "edges.txt"
    out = tmp_path / "out.txt"
    edges.write_text(edges_text)
    assert cli_main(["enumerate", str(edges), *args, "--output", str(out)]) == 0
    return out.read_text()


def render(records) -> str:
    return "".join(f"{' '.join(sorted(g))} {lo} {hi}\n" for g, lo, hi in records)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small uniform instance and its enumerator output (delta=3, k=2)."""
    instance = uniform_contacts(random.Random(7), n=10, m=150, omega=60)
    text = instance.edge_list_text()
    out = enumerate_text(tmp_path_factory.mktemp("small"), text, ["--delta", "3", "--k", "2"])
    return text, parse_records(out)


def checked(text: str, records, **kw) -> dict:
    return run_checks(text, render(records), delta=3, k=2, **kw)


def test_checker_accepts_enumerator_output(small):
    text, records = small
    result = checked(text, records)
    assert result["ok"], result
    assert result["completeness_cases"] > 0


def test_checker_flags_a_dropped_record(small):
    text, records = small
    sample = range(0, len(records), 5)
    flagged = sum(
        not checked(text, records[:i] + records[i + 1:])["ok"] for i in sample
    )
    # a drop shows only where a greedy witness reaches the record
    assert flagged >= 0.6 * len(sample), (flagged, len(sample))


@pytest.mark.parametrize("shift", [(-1, 0), (1, 0), (0, -1), (0, 1)])
def test_checker_flags_interval_moved_by_one_frame(small, shift):
    text, records = small
    last = max(hi for _, _, hi in records)
    bad = 0
    for i in range(0, len(records), 5):
        group, lo, hi = records[i]
        lo2, hi2 = lo + shift[0], hi + shift[1]
        if not 1 <= lo2 <= hi2 <= last:
            continue
        mutated = records[:i] + [(group, lo2, hi2)] + records[i + 1:]
        assert not checked(text, mutated)["ok"], (group, lo, hi, shift)
        bad += 1
    assert bad > 0


def test_checker_flags_vertex_added_or_removed(small):
    text, records = small
    vertices = sorted({v for g, _, _ in records for v in g})
    tried = 0
    for i in range(0, len(records), 10):
        group, lo, hi = records[i]
        rest = records[:i] + records[i + 1:]
        outsider = next(v for v in vertices if v not in group)
        assert not checked(text, rest + [(group + (outsider,), lo, hi)])["ok"]
        if len(group) > 1:
            assert not checked(text, rest + [(group[1:], lo, hi)])["ok"]
        tried += 1
    assert tried > 0


def test_checker_flags_duplicates_and_small_connected_records(small):
    text, records = small
    assert not checked(text, records + records[:1])["ok"]
    assert not run_checks(text, render(records), 3, 2, connected=True)["ok"]


def test_checker_group_completeness(tmp_path):
    instance = planted_communities(
        random.Random(3), n=24, groups=2, size=6, span=10,
        density=0.8, background=60, omega=60,
    )
    text = instance.edge_list_text()
    out = enumerate_text(tmp_path, text, ["--delta", "2", "--k", "2", "--connected"])
    records = parse_records(out)
    groups = instance.groups_text()
    result = run_checks(text, out, 2, 2, connected=True, groups_text=groups)
    assert result["ok"] and result["completeness_cases"] > 0, result
    holders = [r for r in records if set(groups.split()[:6]) <= set(r[0])]
    assert holders
    dropped = [r for r in records if r not in holders]
    assert not run_checks(text, render(dropped), 2, 2, connected=True, groups_text=groups)["ok"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_gives_identical_bytes_across_processes(name):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from workloads import WORKLOADS;"
        f"i = WORKLOADS[{name!r}].generate(5);"
        "sys.stdout.write(i.edge_list_text() + i.groups_text())"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code, str(HERE)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1
    other = WORKLOADS[name].generate(6)
    assert other.edge_list_text() + other.groups_text() != outputs.pop().decode()


def test_tracer_keeps_counts_and_restores_originals(tmp_path):
    import tkplex.search as search

    text = uniform_contacts(random.Random(1), n=8, m=60, omega=30).edge_list_text()
    plain = enumerate_text(tmp_path, text, ["--delta", "1", "--k", "2"])
    original = search.update_pool
    tracer = Tracer()
    tracer.install()
    try:
        traced = enumerate_text(tmp_path, text, ["--delta", "1", "--k", "2"])
    finally:
        tracer.uninstall()
    assert search.update_pool is original
    assert traced == plain
    metrics = tracer.metrics()
    assert metrics["search.plexes"] == len(parse_records(plain))
    assert metrics["search.update_pool_calls"] == metrics["search.calls"] - 1
    assert set(metrics) <= set(LAYER_METRICS)


def test_tracer_skips_a_missing_target(monkeypatch):
    import tkplex.pairset as pairset

    monkeypatch.delattr(pairset, "merge_pair")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "pairset.merge" not in tracer.installed
    assert "pairset.merge_calls" not in tracer.metrics()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert spec["paths"] == [HERE.name]
