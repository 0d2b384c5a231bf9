#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of `tkplex enumerate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The workload's input is generated from the seed and written as an edge-list
file.  With ``--trace 0`` the run times `tkplex enumerate` as a subprocess
(file in, record file out) again and again for ``--seconds`` and reports
the fastest wall time and records per second, the median peak RSS of the
enumerate process and the fastest in-process set-up time (parse, frame
domain, non-neighbor index).
With ``--trace 1`` it runs ``tkplex.cli.main`` in process, untraced and
then with per-layer wrappers installed (see layers.py), for ``--seconds``.
Every output is checked: the first one by the independent checker
(check.py), later ones by byte comparison with the first.  ``all`` runs
every workload in both modes and prints one table.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with every
sample goes to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

from check import run_checks  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENUMERATE_TIMEOUT_S = 60
MIN_TIMED_ROUNDS = 3
SETUP_REPS_PER_ROUND = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "plexes_per_s": "records/s",
    "peak_rss_mb": "MB",
}


class Operations:
    """Attempted and failed operations of one run, with failure notes.

    ``wrong`` counts failed checks: outputs that were produced but are not
    correct, as opposed to runs that crashed or timed out.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str, check: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += check
            self.notes.append(what)
        return ok


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def read_stats(path: Path) -> dict[str, str]:
    stats = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        stats[key] = value
    return stats


# Runs `python -m tkplex.cli ARGS` and, at exit, writes the process's own
# VmHWM.  The rusage of a child is no good here: Linux carries the parent's
# peak RSS across fork and exec into the child's ru_maxrss.
PEAK_RSS_PROBE = """\
import atexit, runpy, sys
target = sys.argv.pop(1)
def peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(target, "w") as out:
        out.write(kb)
atexit.register(peak)
runpy.run_module("tkplex.cli", run_name="__main__", alter_sys=True)
"""


def run_enumerate(argv: list[str], work: Path) -> dict:
    """One `tkplex enumerate` subprocess: exit code, wall time, peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    peak = work / "peak_kb.txt"
    peak.unlink(missing_ok=True)
    with open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PEAK_RSS_PROBE, str(peak), *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            code = proc.wait(timeout=ENUMERATE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
        wall = time.perf_counter() - start
    ok = code == 0 and peak.is_file()
    return {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mb": int(peak.read_text()) / 1024 if ok else None,
    }


def measure_setup(edges: Path, delta: int) -> float:
    """Parse, frame domain and non-neighbor index: the work before the search."""
    from tkplex.graph import FrameDomain, NonNeighborhoodIndex, parse_edge_list

    start = time.perf_counter()
    graph = parse_edge_list(edges.read_text())
    NonNeighborhoodIndex(graph, FrameDomain.for_graph(graph, delta))
    return time.perf_counter() - start


def check_first_output(workload, instance, work: Path, ops: Operations) -> dict:
    summary = run_checks(
        (work / "edges.txt").read_text(),
        (work / "out.txt").read_text(),
        workload.delta,
        workload.k,
        connected=workload.connected,
        groups_text=instance.groups_text() if instance.groups else None,
    )
    ops.record(summary["ok"], f"checker: {summary['first_problems'][:3]}", check=True)
    return summary


def run_untraced(workload, instance, work: Path, seconds: float, ops: Operations) -> dict:
    edges, out, stats_path = work / "edges.txt", work / "out.txt", work / "stats.txt"
    argv = ["enumerate", str(edges), *workload.enumerate_args(),
            "--output", str(out), "--stats", str(stats_path)]
    setups = [measure_setup(edges, workload.delta)]  # also warms the imports

    # round 0 warms the file cache and bytecode and is checked in full
    first = run_enumerate(argv, work)
    check = reference = reference_stats = None
    if ops.record(first["exit"] == 0, f"enumerate exit {first['exit']}"):
        reference = out.read_bytes()
        reference_stats = read_stats(stats_path)
        check = check_first_output(workload, instance, work, ops)
    else:
        ops.record(False, "checker skipped: enumerate failed")

    samples = []
    started = time.perf_counter()
    while len(samples) < MIN_TIMED_ROUNDS or time.perf_counter() - started < seconds:
        sample = run_enumerate(argv, work)
        samples.append(sample)
        ok = ops.record(sample["exit"] == 0, f"enumerate exit {sample['exit']}")
        same = ok and reference is not None and out.read_bytes() == reference
        ops.record(same, "output differs from the checked first output",
                   check=ok and reference is not None)
        if same:
            sample["records"] = int(reference_stats["plex_count"])
            sample["plexes_per_s"] = sample["records"] / sample["wall_s"]
        setups += [measure_setup(edges, workload.delta) for _ in range(SETUP_REPS_PER_ROUND)]
        if ops.failed:
            break

    # Times are the fastest of the run.  On the reference VM, CPU speed drifts
    # by up to 60% in phases of 10-30 s.  Over ten seeds, the run medians
    # spread by 14-23% and the fastest samples by 9-11% (see README.md).
    good = [s for s in samples if "plexes_per_s" in s]
    metrics, medians = {}, {}
    if good:
        metrics = {
            "wall_s": min(s["wall_s"] for s in good),
            "setup_s": min(setups[1:]),
            "plexes_per_s": max(s["plexes_per_s"] for s in good),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in good),
        }
        medians = {
            "wall_s": median(s["wall_s"] for s in good),
            "setup_s": median(setups[1:]),
            "plexes_per_s": median(s["plexes_per_s"] for s in good),
        }
    return {
        "metrics": metrics,
        "medians": medians,
        "units": END_TO_END_UNITS,
        "samples": samples,
        "setup_samples_s": setups[1:],
        "check": check,
        "enumerate_stats": reference_stats,
    }


def _main_in_process(argv: list[str]) -> tuple[int, float]:
    from tkplex import cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start


def run_traced(workload, instance, work: Path, seconds: float, ops: Operations) -> dict:
    edges, out, stats_path = work / "edges.txt", work / "out.txt", work / "stats.txt"
    reference_argv = ["enumerate", str(edges), *workload.enumerate_args(),
                      "--output", str(out), "--stats", str(stats_path)]
    first = run_enumerate(reference_argv, work)
    if not ops.record(first["exit"] == 0, f"enumerate exit {first['exit']}"):
        ops.record(False, "checker skipped: enumerate failed")
        return {"metrics": {}, "check": None}
    reference = out.read_bytes()
    stats = read_stats(stats_path)
    check = check_first_output(workload, instance, work, ops)

    argv = ["enumerate", str(edges), *workload.enumerate_args(), "--output", str(out)]
    plain_walls, traced_walls, rounds, branches = [], [], [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        code, wall = _main_in_process(argv)
        ok = ops.record(code == 0 and out.read_bytes() == reference,
                        f"untraced in-process run: exit {code} or output differs",
                        check=code == 0)
        plain_walls.append(wall)

        tracer = Tracer()
        tracer.install()
        try:
            code, wall = _main_in_process(argv)
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        counts_match = (
            layer.get("search.calls", int(stats["recursive_calls"]))
            == int(stats["recursive_calls"])
            and layer.get("search.plexes", int(stats["plex_count"]))
            == int(stats["plex_count"])
        )
        ok = ops.record(
            code == 0 and out.read_bytes() == reference and counts_match,
            f"traced run: exit {code}, output differs or counts differ from the "
            f"untraced run ({layer.get('search.calls')} calls, "
            f"{layer.get('search.plexes')} plexes)",
            check=code == 0,
        ) and ok
        traced_walls.append(wall)
        rounds.append(layer)
        branches = tracer.branch_costs()
        if not ok:
            break

    metrics = {key: median(r[key] for r in rounds) for key in rounds[0]}
    metrics["cli.output_bytes"] = len(reference)
    metrics["trace.overhead_ratio"] = median(traced_walls) / median(plain_walls)
    return {
        "metrics": metrics,
        "units": {key: LAYER_METRICS[key][0] for key in metrics},
        "untraced_wall_s": plain_walls,
        "traced_wall_s": traced_walls,
        "rounds": rounds,
        "branch_costs": branches,
        "check": check,
        "enumerate_stats": stats,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    instance = workload.generate(seed)
    ops = Operations()
    work = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "edges.txt").write_text(instance.edge_list_text())
        runner = run_traced if trace else run_untraced
        detail = runner(workload, instance, work, seconds, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "params": {**workload.params, "delta": workload.delta, "k": workload.k,
                   "connected": workload.connected},
        "edges": len(instance.edges),
        "correct": ops.wrong == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.notes,
        **detail,
    }


def write_results(results: list[dict], label: str) -> Path:
    record = {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "runs": results,
    }
    path = OUT_DIR / "results" / f"{label}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def summary_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tkplex" / "cli.py").is_file():
        print(f"error: no tkplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        jobs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    results = [run_workload(name, args.seed, args.seconds, trace) for name, trace in jobs]
    label = f"{args.workload}-seed{args.seed}"
    path = write_results(results, label if len(jobs) > 1 else f"{label}-trace{args.trace}")

    metrics, units = {}, {}
    for result in results:
        prefix = f"{result['workload']}/" if len(jobs) > 1 else ""
        for key, value in result["metrics"].items():
            metrics[prefix + key] = value
            units[prefix + key] = result["units"][key]
    width = max((len(k) for k in metrics), default=0)
    for key, value in metrics.items():
        print(f"{key:<{width}}  {value:.6g} {units[key]}")
    for result in results:
        for note in result["failures"]:
            print(f"FAILED {result['workload']}: {note}")
    print(f"results: {path.relative_to(ROOT)}")
    print(summary_line(
        all(r["correct"] for r in results),
        sum(r["attempted"] for r in results),
        sum(r["failed"] for r in results),
        metrics,
        units,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
