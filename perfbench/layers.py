"""Per-layer timers and counters installed around tkplex from outside.

``Tracer.install`` replaces public functions and methods of the
``tkplex`` modules with timing wrappers and ``uninstall`` puts the
originals back.  A module-level function is replaced under every name
that refers to it in any loaded ``tkplex`` module, so call sites that
imported it by name are traced too.  A target that no longer exists is
skipped, and the metrics that depend on it are left out of the report.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


# per-layer metric -> (unit, better); BENCHMARK.json lists the same
LAYER_METRICS = {
    "graph.parse_s": ("s", "lower"),
    "graph.index_s": ("s", "lower"),
    "graph.index_intervals": ("count", "lower"),
    "search.s": ("s", "lower"),
    "search.update_pool_s": ("s", "lower"),
    "search.update_candidates_s": ("s", "lower"),
    "search.emit_s": ("s", "lower"),
    "search.self_s": ("s", "lower"),
    "search.calls": ("count", "lower"),
    "search.plexes": ("count", "higher"),
    "search.update_pool_calls": ("count", "lower"),
    "search.update_candidates_calls": ("count", "lower"),
    "search.records_per_call": ("ratio", "higher"),
    "search.branch_max_share": ("ratio", "lower"),
    "pool.increment_s": ("s", "lower"),
    "pool.increment_calls": ("count", "lower"),
    "pool.critical_hit_share": ("ratio", "higher"),
    "intervals.intersect_s": ("s", "lower"),
    "intervals.minus_s": ("s", "lower"),
    "intervals.canonicalize_s": ("s", "lower"),
    "intervals.intersect_calls": ("count", "lower"),
    "intervals.minus_calls": ("count", "lower"),
    "intervals.canonicalize_calls": ("count", "lower"),
    "intervals.operand_len_mean": ("intervals", "lower"),
    "intervals.nonempty_share": ("ratio", "higher"),
    "pairset.merge_s": ("s", "lower"),
    "pairset.merge_calls": ("count", "lower"),
    "heuristics.connected_s": ("s", "lower"),
    "heuristics.connected_calls": ("count", "lower"),
    "heuristics.connected_kept_share": ("ratio", "lower"),
    "cli.output_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.branches: list[list] = []  # [vertex, start, end]
        self.installed: set[str] = set()
        self.broken: set[str] = set()  # targets whose hook no longer fits
        self._restore: list[tuple[object, str, object]] = []

    def _add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- hooks: (args, result) after a call, args before it ---------------

    def _after_index(self, args, result) -> None:
        pairs = getattr(args[0], "_pairs", None)
        if isinstance(pairs, dict):
            self._add("index_intervals", sum(len(s) for s in pairs.values()))

    def _before_update_pool(self, args) -> None:
        members = args[1]
        if len(members) == 1:  # a new top-level branch starts
            now = perf_counter()
            if self.branches:
                self.branches[-1][2] = now
            self.branches.append([members[0], now, None])

    def _after_search(self, args, result) -> None:
        if self.branches and self.branches[-1][2] is None:
            self.branches[-1][2] = perf_counter()
        self._add("plexes", result.plex_count)
        self._add("search_calls", result.recursive_calls)

    def _after_increment(self, args, result) -> None:
        if result:
            self._add("critical_hits")

    def _after_set_op(self, args, result) -> None:
        self._add("operands", 2)
        self._add("operand_len", len(args[0]) + len(args[1]))
        if result:
            self._add("nonempty")

    def _after_connected(self, args, result) -> None:
        self._add("connected_offered", len(args[0]))
        self._add("connected_kept", len(result))

    # -- installation -----------------------------------------------------

    def _hook(self, name, hook, *args) -> None:
        # a signature or type change in the program drops the target's
        # metrics instead of failing the run
        if name in self.broken:
            return
        try:
            hook(*args)
        except (AttributeError, IndexError, TypeError):
            self.broken.add(name)

    def _wrap(self, name, fn, before=None, after=None):
        seconds, calls = self.seconds, self.calls
        seconds[name] = 0.0
        calls[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(name, before, args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1
            if after is not None:
                self._hook(name, after, args, result)
            return result

        return traced

    def targets(self):
        """(module, owner, attribute, metric name, before, after)."""
        return [
            ("tkplex.graph", None, "parse_edge_list", "graph.parse", None, None),
            ("tkplex.graph", "NonNeighborhoodIndex", "__init__", "graph.index",
             None, self._after_index),
            ("tkplex.search", None, "enumerate_maximal_plexes", "search",
             None, self._after_search),
            ("tkplex.search", None, "update_pool", "search.update_pool",
             self._before_update_pool, None),
            ("tkplex.search", None, "update_candidates", "search.update_candidates",
             None, None),
            ("tkplex.search", None, "emit_maximal", "search.emit", None, None),
            ("tkplex.pool", "Pool", "increment", "pool.increment",
             None, self._after_increment),
            ("tkplex.intervals", "IntervalSet", "intersect", "intervals.intersect",
             None, self._after_set_op),
            ("tkplex.intervals", "IntervalSet", "minus", "intervals.minus",
             None, self._after_set_op),
            ("tkplex.intervals", "IntervalSet", "__init__", "intervals.canonicalize",
             None, None),
            ("tkplex.pairset", None, "merge_pair", "pairset.merge", None, None),
            ("tkplex.heuristics", None, "connected_candidates", "heuristics.connected",
             None, self._after_connected),
            ("tkplex.cli", None, "_record_line", "cli.output", None, None),
        ]

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tkplex" or n.startswith("tkplex."))]
        for module_name, owner_name, attr, name, before, after in self.targets():
            module = sys.modules.get(module_name)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original, before, after)
            for holder in [owner] if owner_name is not None else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)
            self.installed.add(name)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics for the installed targets (see README.md)."""
        s, c, n = self.seconds, self.calls, self.counts
        have = self.installed - self.broken
        out: dict[str, float] = {}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        if "graph.parse" in have:
            out["graph.parse_s"] = s["graph.parse"]
        if "graph.index" in have:
            out["graph.index_s"] = s["graph.index"]
            if "index_intervals" in n:
                out["graph.index_intervals"] = n["index_intervals"]
        if "search" in have:
            out["search.s"] = s["search"]
            out["search.calls"] = n.get("search_calls", 0)
            out["search.plexes"] = n.get("plexes", 0)
            out["search.records_per_call"] = ratio(out["search.plexes"], out["search.calls"])
            children = ("search.update_pool", "search.update_candidates", "search.emit",
                        "heuristics.connected", "graph.index", "cli.output")
            out["search.self_s"] = s["search"] - sum(s.get(x, 0.0) for x in children)
        for key in ("update_pool", "update_candidates", "emit"):
            if f"search.{key}" in have:
                out[f"search.{key}_s"] = s[f"search.{key}"]
        for key in ("update_pool", "update_candidates"):
            if f"search.{key}" in have:
                out[f"search.{key}_calls"] = c[f"search.{key}"]
        if "search" in have and "search.update_pool" in have:
            out["search.branch_max_share"] = ratio(
                max((end - start for _, start, end in self.branches), default=0.0),
                s["search"],
            )
        if "pool.increment" in have:
            out["pool.increment_s"] = s["pool.increment"]
            out["pool.increment_calls"] = c["pool.increment"]
            out["pool.critical_hit_share"] = ratio(
                n.get("critical_hits", 0), c["pool.increment"])
        for key in ("intersect", "minus", "canonicalize"):
            if f"intervals.{key}" in have:
                out[f"intervals.{key}_s"] = s[f"intervals.{key}"]
                out[f"intervals.{key}_calls"] = c[f"intervals.{key}"]
        if {"intervals.intersect", "intervals.minus"} & have:
            ops = c.get("intervals.intersect", 0) + c.get("intervals.minus", 0)
            out["intervals.operand_len_mean"] = ratio(
                n.get("operand_len", 0), n.get("operands", 0))
            out["intervals.nonempty_share"] = ratio(n.get("nonempty", 0), ops)
        if "pairset.merge" in have:
            out["pairset.merge_s"] = s["pairset.merge"]
            out["pairset.merge_calls"] = c["pairset.merge"]
        if "heuristics.connected" in have:
            out["heuristics.connected_s"] = s["heuristics.connected"]
            out["heuristics.connected_calls"] = c["heuristics.connected"]
            out["heuristics.connected_kept_share"] = ratio(
                n.get("connected_kept", 0), n.get("connected_offered", 0))
        if "cli.output" in have:
            out["cli.output_s"] = s["cli.output"]
        return out

    def branch_costs(self) -> list[dict]:
        """Wall seconds of each top-level branch, in search order."""
        return [
            {"vertex": v, "seconds": end - start}
            for v, start, end in self.branches
            if end is not None
        ]
