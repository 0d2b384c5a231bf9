"""Command-line front end: enumeration runs, degeneracy analysis, and
brute-force cross-checks of result files."""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import TextIO

from .graph import (
    EdgeListParseError,
    FrameDomain,
    TemporalGraph,
    delta_slice_degeneracy,
    normalize_timestamps,
    parse_edge_list,
    plex_count_upper_bound,
)
from .search import PlexRecord, SearchConfig, enumerate_maximal_plexes

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_PARSE = 3
EXIT_TIMEOUT = 4
EXIT_MISMATCH = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def _load_graph(args: argparse.Namespace) -> TemporalGraph:
    if args.resolution < 1:
        raise _CliError("--resolution must be a positive integer", EXIT_PARAMETER)
    text = _read_text(args.input)
    try:
        columns = tuple(int(c) for c in args.columns.split(","))
    except ValueError:
        columns = ()
    if len(columns) != 3 or min(columns) < 0:
        raise _CliError("--columns needs three non-negative indices", EXIT_PARAMETER)
    try:
        graph = parse_edge_list(
            text,
            column_spec=columns,
            on_self_loop="skip" if args.skip_self_loops else "error",
        )
        if args.resolution != 1:
            graph = normalize_timestamps(graph, args.resolution)
    except EdgeListParseError as exc:
        raise _CliError(str(exc), EXIT_PARSE) from exc
    return graph


def scaled_delta(exponent: int, lifetime: int, edge_count: int) -> int:
    """Dataset-independent delta: reference value 5^e scaled by lifetime/5m.

    Exact integers, rounded half to even: a huge exponent cannot overflow.
    """
    num = lifetime * 5 ** max(exponent - 1, 0)
    den = edge_count * 5 ** max(1 - exponent, 0)
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q % 2 == 1))


def _delta_from_exponent(exponent: int, graph: TemporalGraph) -> int:
    delta = scaled_delta(exponent, graph.lifetime, graph.edge_count)
    if delta >= graph.lifetime:  # FrameDomain's message would print every digit
        message = f"--delta-exp {exponent}: delta too large for lifetime"
        raise _CliError(f"{message} {graph.lifetime}", EXIT_PARAMETER)
    return delta


def _resolve_delta(args: argparse.Namespace, graph: TemporalGraph) -> int:
    if args.delta is not None:  # raw value wins over the scaled form
        return args.delta
    if args.delta_exp is not None:
        return _delta_from_exponent(args.delta_exp, graph)
    raise _CliError("one of --delta or --delta-exp is required", EXIT_PARAMETER)


def _record_line(record: PlexRecord, labels: tuple[str, ...]) -> str:
    names = sorted(labels[v] for v in record.vertices)
    return " ".join((*names, str(record.interval.start), str(record.interval.end)))


def _open_for_writing(path: str | None, files: ExitStack) -> TextIO | None:
    if not path:
        return None
    try:
        return files.enter_context(open(path, "w"))
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_PARAMETER) from exc


def cmd_enumerate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    graph = _load_graph(args)
    parse_seconds = time.monotonic() - started
    delta = _resolve_delta(args, graph)
    try:
        config = SearchConfig(
            delta=delta,
            k=args.k,
            connectedness=args.connected,
            time_limit=args.time_limit,
        )
        FrameDomain.for_graph(graph, delta)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_PARAMETER) from exc

    with ExitStack() as files:
        # both files are opened before the search, so a bad path fails at once
        out_handle = _open_for_writing(args.output, files) or sys.stdout
        stats_handle = _open_for_writing(args.stats, files)

        def sink(record: PlexRecord) -> None:
            out_handle.write(_record_line(record, graph.labels) + "\n")

        stats = enumerate_maximal_plexes(graph, config, sink)

        report = {
            "dataset": Path(args.input).name,
            "n": graph.vertex_count,
            "m": graph.edge_count,
            "omega": graph.lifetime,
            "delta": delta,
            "k": args.k,
            "connected": args.connected,
            "plex_count": stats.plex_count,
            "max_plex_order": stats.max_plex_order,
            "max_lifetime_length": stats.max_lifetime_length,
            "recursive_calls": stats.recursive_calls,
            "wall_seconds": round(stats.wall_time_seconds, 3),
            "parse_seconds": round(parse_seconds, 3),
            "index_seconds": round(stats.index_seconds, 3),
            "search_seconds": round(stats.search_seconds, 3),
            "timed_out": stats.timed_out,
        }
        if args.with_degeneracy:
            d = delta_slice_degeneracy(graph, FrameDomain.for_graph(graph, delta))
            report["slice_degeneracy"] = d
            report["call_upper_bound"] = plex_count_upper_bound(
                graph.vertex_count, args.k, d, graph.edge_count, graph.lifetime
            )
        width = max(len(key) for key in report)
        for key, value in report.items():
            print(f"{key:<{width}}  {value}")
        if stats_handle is not None:
            stats_handle.write(
                "".join(f"{key}={value}\n" for key, value in report.items())
            )
    return EXIT_TIMEOUT if stats.timed_out else EXIT_OK


def cmd_degeneracy(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    deltas = list(args.delta or [])
    for exponent in args.delta_exp or []:
        deltas.append(_delta_from_exponent(exponent, graph))
    # the widest window holds every edge: its one snapshot is the static graph
    widest = FrameDomain.for_graph(graph, graph.lifetime - 1)
    print(f"static_degeneracy={delta_slice_degeneracy(graph, widest)}")
    for delta in deltas:
        try:
            fd = FrameDomain.for_graph(graph, delta)
        except ValueError as exc:
            raise _CliError(str(exc), EXIT_PARAMETER) from exc
        print(f"delta={delta} slice_degeneracy={delta_slice_degeneracy(graph, fd)}")
    return EXIT_OK


def _parse_record_file(path: str) -> set[tuple[tuple[str, ...], int, int]]:
    lines = _read_text(path).splitlines()
    records = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 3:
            raise _CliError(
                f"{path}:{line_no}: expected 'labels... start end'", EXIT_PARSE
            )
        try:
            start, end = int(fields[-2]), int(fields[-1])
        except ValueError as exc:
            raise _CliError(f"{path}:{line_no}: bad interval bounds", EXIT_PARSE) from exc
        records.add((tuple(sorted(fields[:-2])), start, end))
    return records


def cmd_oracle(args: argparse.Namespace) -> int:
    # the brute-force oracle is independent evidence: only this command loads it
    from .oracle import enumerate_all_maximal

    graph = _load_graph(args)
    try:
        truth = enumerate_all_maximal(graph, args.delta, args.k)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_PARAMETER) from exc
    expected = {
        (tuple(sorted(graph.labels[v] for v in rec.vertices)),
         rec.interval.start, rec.interval.end)
        for rec in truth.plexes
        if len(rec.vertices) >= args.min_size
    }
    got = _parse_record_file(args.records)
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    for rec in missing:
        print(f"missing: {' '.join(rec[0])} {rec[1]} {rec[2]}")
    for rec in extra:
        print(f"extra:   {' '.join(rec[0])} {rec[1]} {rec[2]}")
    if missing or extra:
        print(f"mismatch: {len(missing)} missing, {len(extra)} extra")
        return EXIT_MISMATCH
    print(f"ok: {len(expected)} records match")
    return EXIT_OK


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="edge-list file (timestamp vertex vertex)")
    parser.add_argument("--resolution", type=int, default=1,
                        help="time granularity divisor applied after shifting")
    parser.add_argument("--columns", default="0,1,2",
                        help="timestamp,vertex,vertex column indices")
    parser.add_argument("--skip-self-loops", action="store_true",
                        help="drop self-loop edges instead of failing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkplex",
        description="Enumerate maximal k-plexes in temporal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="run the full enumeration")
    _add_input_options(enum)
    enum.add_argument("--delta", type=int, help="window width (raw frames)")
    enum.add_argument("--delta-exp", type=int,
                      help="scaled window: 5^e * lifetime / (5m), rounded")
    enum.add_argument("--k", type=int, required=True,
                      help="allowed non-neighbors per vertex (incl. itself)")
    enum.add_argument("--connected", action="store_true",
                      help="only plexes of order >= 2k+1, pruning aggressively")
    enum.add_argument("--time-limit", type=float, default=None,
                      help="wall-clock budget in seconds")
    enum.add_argument("--output", help="write one plex per line to this file")
    enum.add_argument("--stats", help="write key=value run statistics here")
    enum.add_argument("--with-degeneracy", action="store_true",
                      help="also report slice degeneracy and the call bound")
    enum.set_defaults(func=cmd_enumerate)

    degen = sub.add_parser("degeneracy", help="static and slice degeneracy")
    _add_input_options(degen)
    degen.add_argument("--delta", type=int, action="append",
                       help="window width; repeatable")
    degen.add_argument("--delta-exp", type=int, action="append",
                       help="scaled window exponent; repeatable")
    degen.set_defaults(func=cmd_degeneracy)

    check = sub.add_parser("oracle", help="diff a result file against brute force")
    _add_input_options(check)
    check.add_argument("--delta", type=int, required=True)
    check.add_argument("--k", type=int, required=True)
    check.add_argument("--records", required=True,
                       help="enumerator output file to verify")
    check.add_argument("--min-size", type=int, default=1,
                       help="compare against plexes of at least this order")
    check.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
