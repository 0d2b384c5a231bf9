#!/usr/bin/env python3
"""Independent checker for `tkplex enumerate` output files.

It reads the edge list itself and shares no code with the enumerator.
Frame i (1 <= i <= lifetime - delta) is the window [i, i + delta] of
shifted time steps; two vertices are neighbors in frame i when they have a
contact inside the window.  A set C is a k-plex in a frame when every
member has at most k non-neighbors in C, itself included.

Every record ``labels... start end`` must be:
  * a k-plex in every frame of [start, end];
  * not a k-plex at start-1 or end+1 (time-maximal);
  * not extendable by any single outside vertex over [start, end]
    (vertex-maximal);
  * of order >= 2k+1 when the run used --connected;
  * unique in the file.

Completeness uses the fact that every plex (C, frame i) lies inside some
record (C', I') with C <= C' and i in I':
  * every contact pair at every frame its timestamp covers (a pair in
    contact is a plex for any k) is grown, without looking at the output,
    into a specific maximal plex, which must be a record (see
    check_greedy_witnesses);
  * ``--groups FILE``: every listed vertex group at every frame where the
    group is a k-plex lies inside some record.

Usage:
    python3 perfbench/check.py EDGES RECORDS --delta D --k K
        [--connected] [--groups FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import bisect_left, bisect_right
from collections import Counter


class TemporalInput:
    """Edge list with timestamps shifted so the smallest is 1."""

    def __init__(self, text: str, delta: int):
        raw = []
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            t, a, b = int(fields[0]), fields[1], fields[2]
            raw.append((t, a, b) if a < b else (t, b, a))
        shift = min(t for t, _, _ in raw) - 1
        self.contacts = sorted({(t - shift, a, b) for t, a, b in raw})
        self.vertices = sorted({x for _, a, b in self.contacts for x in (a, b)})
        self.delta = delta
        self.last_frame = self.contacts[-1][0] - delta
        if self.last_frame < 1:
            raise ValueError("delta too large for the lifetime")
        # per pair: sorted, merged frame intervals in which the pair are neighbors
        spans: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for t, a, b in self.contacts:
            lo, hi = max(1, t - delta), min(self.last_frame, t)
            runs = spans.setdefault((a, b), [])
            if runs and lo <= runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
            else:
                runs.append((lo, hi))
        self.neighbor_runs = spans
        self.run_starts = {p: [lo for lo, _ in runs] for p, runs in spans.items()}
        self._frame_adj: dict[int, dict[str, set[str]]] = {}
        self._times = [t for t, _, _ in self.contacts]

    def _runs(self, u: str, v: str) -> tuple[list[tuple[int, int]], list[int]]:
        key = (u, v) if u < v else (v, u)
        return self.neighbor_runs.get(key, []), self.run_starts.get(key, [])

    def nonneighbor_gaps(self, u: str, v: str, lo: int, hi: int) -> list[tuple[int, int]]:
        """Frame intervals inside [lo, hi] where u and v are not neighbors."""
        runs, starts = self._runs(u, v)
        gaps = []
        cursor = lo
        for a, b in runs[max(0, bisect_right(starts, lo) - 1):]:
            if a > hi:
                break
            if a > cursor:
                gaps.append((cursor, a - 1))
            cursor = max(cursor, b + 1)
        if cursor <= hi:
            gaps.append((cursor, hi))
        return gaps

    def frame_neighbors(self, frame: int) -> dict[str, set[str]]:
        adj = self._frame_adj.get(frame)
        if adj is None:
            adj = {}
            lo = bisect_left(self._times, frame)
            hi = bisect_right(self._times, frame + self.delta)
            for _, a, b in self.contacts[lo:hi]:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            self._frame_adj[frame] = adj
        return adj

    def plex_at(self, group: tuple[str, ...], frame: int, k: int) -> bool:
        adj = self.frame_neighbors(frame)
        members = set(group)
        return all(
            len(members - adj.get(v, set())) <= k for v in group
        )

    def plex_over(self, group: tuple[str, ...], lo: int, hi: int, k: int) -> bool:
        """True when ``group`` is a k-plex in every frame of [lo, hi]."""
        for v in group:
            events = []
            for u in group:
                if u != v:
                    for a, b in self.nonneighbor_gaps(u, v, lo, hi):
                        events.append((a, 1))
                        events.append((b + 1, -1))
            if len(events) // 2 < k:
                continue
            depth = 0
            for _, step in sorted(events):
                depth += step
                if depth > k - 1:  # v itself is the k-th non-neighbor
                    return False
        return True


def parse_records(text: str) -> list[tuple[tuple[str, ...], int, int]]:
    records = []
    for line in text.splitlines():
        fields = line.split()
        if fields:
            records.append((tuple(fields[:-2]), int(fields[-2]), int(fields[-1])))
    return records


def check_records(
    graph: TemporalInput,
    records: list[tuple[tuple[str, ...], int, int]],
    k: int,
    connected: bool = False,
) -> list[str]:
    """Soundness, maximality and uniqueness problems, one string each."""
    problems = []
    known = set(graph.vertices)
    for record, copies in Counter(records).items():
        if copies > 1:
            problems.append(f"duplicate x{copies}: {record}")
    for group, lo, hi in dict.fromkeys(records):
        name = f"{' '.join(group)} {lo} {hi}"
        if not group or len(set(group)) != len(group) or not set(group) <= known:
            problems.append(f"bad vertex set: {name}")
            continue
        if not 1 <= lo <= hi <= graph.last_frame:
            problems.append(f"bad interval: {name}")
            continue
        if connected and len(group) < 2 * k + 1:
            problems.append(f"order below 2k+1 under --connected: {name}")
        if not graph.plex_over(group, lo, hi, k):
            problems.append(f"not a {k}-plex throughout: {name}")
            continue
        if lo > 1 and graph.plex_at(group, lo - 1, k):
            problems.append(f"extends to frame {lo - 1}: {name}")
        if hi < graph.last_frame and graph.plex_at(group, hi + 1, k):
            problems.append(f"extends to frame {hi + 1}: {name}")
        # an outside vertex w needs at least |C| - (k-1) neighbors in C at frame lo
        adj = graph.frame_neighbors(lo)
        reach = Counter(w for v in group for w in adj.get(v, ()))
        need = len(group) - (k - 1)
        members = set(group)
        outside = known - members if need <= 0 else {
            w for w, hits in reach.items() if hits >= need and w not in members
        }
        for w in sorted(outside):
            grown = tuple(sorted(members | {w}))
            if graph.plex_at(grown, lo, k) and graph.plex_over(grown, lo, hi, k):
                problems.append(f"extended by {w}: {name}")
                break
    return problems


def widen(graph: TemporalInput, group: tuple[str, ...], frame: int, k: int) -> tuple[int, int]:
    """The largest frame interval around ``frame`` where ``group`` is a k-plex."""
    lo = hi = frame
    while lo > 1 and graph.plex_at(group, lo - 1, k):
        lo -= 1
    while hi < graph.last_frame and graph.plex_at(group, hi + 1, k):
        hi += 1
    return lo, hi


def check_greedy_witnesses(
    graph: TemporalInput, records, k: int, min_order: int
) -> tuple[int, list[str]]:
    """Maximal plexes built from each contact, without the output, are present.

    From a contact pair at a frame it covers, add every vertex that keeps
    the set a k-plex in that frame, in one pass over the vertices.  Four
    fixed orders are used: by label up and down, and both rotated by half.
    A vertex turned away stays so, since the set only grows.  Then widen the
    frame to the largest interval where the set stays a plex.  The set
    cannot be extended in the seed frame, so it cannot be extended over the
    interval: the result is a maximal plex and must be a record when its
    order is at least ``min_order``.
    """
    present = set(records)
    found: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    problems = []
    cases = 0
    half = len(graph.vertices) // 2
    rotated = graph.vertices[half:] + graph.vertices[:half]
    for order in (graph.vertices, graph.vertices[::-1], rotated, rotated[::-1]):
        for t, a, b in graph.contacts:
            for frame in range(max(1, t - graph.delta), min(graph.last_frame, t) + 1):
                adj = graph.frame_neighbors(frame)
                misses = {a: 0, b: 0}  # non-neighbors inside the set, self excluded
                for w in order:
                    if w in misses:
                        continue
                    near = adj.get(w, ())
                    strangers = [v for v in misses if v not in near]
                    if len(strangers) < k and all(misses[v] < k - 1 for v in strangers):
                        for v in strangers:
                            misses[v] += 1
                        misses[w] = len(strangers)
                group = tuple(sorted(misses))
                spans = found.setdefault(group, [])
                if any(lo <= frame <= hi for lo, hi in spans):
                    continue
                lo, hi = widen(graph, group, frame, k)
                spans.append((lo, hi))
                cases += 1
                if len(group) >= min_order and (group, lo, hi) not in present:
                    problems.append(f"missing: {' '.join(group)} {lo} {hi}")
    return cases, problems


def check_group_completeness(
    graph: TemporalInput, records, groups: list[tuple[str, ...]], k: int
) -> tuple[int, list[str]]:
    """Every group at every frame where it is a k-plex lies in a record."""
    problems = []
    cases = 0
    for group in groups:
        members = set(group)
        holders = [(lo, hi) for g, lo, hi in records if members <= set(g)]
        for frame in range(1, graph.last_frame + 1):
            if not graph.plex_at(group, frame, k):
                continue
            cases += 1
            if not any(lo <= frame <= hi for lo, hi in holders):
                problems.append(f"missing: group {' '.join(group)} at frame {frame}")
    return cases, problems


def run_checks(
    edges_text: str,
    records_text: str,
    delta: int,
    k: int,
    connected: bool = False,
    groups_text: str | None = None,
) -> dict:
    """All checks on one output; ``ok`` needs no problem and > 0 cases."""
    graph = TemporalInput(edges_text, delta)
    records = parse_records(records_text)
    problems = check_records(graph, records, k, connected)
    cases, missing = check_greedy_witnesses(
        graph, records, k, 2 * k + 1 if connected else 1)
    problems += missing
    if groups_text is not None:
        groups = [tuple(sorted(line.split())) for line in groups_text.splitlines() if line.strip()]
        found, missing = check_group_completeness(graph, records, groups, k)
        cases += found
        problems += missing
    return {
        "ok": not problems and cases > 0,
        "records": len(records),
        "completeness_cases": cases,
        "problems": len(problems),
        "first_problems": problems[:10],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("edges")
    parser.add_argument("records")
    parser.add_argument("--delta", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--connected", action="store_true")
    parser.add_argument("--groups")
    args = parser.parse_args(argv)
    with open(args.edges) as f:
        edges_text = f.read()
    with open(args.records) as f:
        records_text = f.read()
    groups_text = None
    if args.groups:
        with open(args.groups) as f:
            groups_text = f.read()
    result = run_checks(
        edges_text, records_text, args.delta, args.k,
        args.connected, groups_text,
    )
    print(json.dumps(result, indent=2))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
