"""Enumeration of maximal k-plexes in temporal graphs."""

from .graph import (
    EdgeListParseError,
    FrameDomain,
    NonNeighborhoodIndex,
    TemporalGraph,
    delta_slice_degeneracy,
    parse_edge_list,
    plex_count_upper_bound,
)
from .intervals import Interval
from .search import (
    PlexRecord,
    RunStats,
    SearchConfig,
    collect_maximal_plexes,
    enumerate_maximal_plexes,
)

__all__ = [
    "EdgeListParseError",
    "FrameDomain",
    "Interval",
    "NonNeighborhoodIndex",
    "PlexRecord",
    "RunStats",
    "SearchConfig",
    "TemporalGraph",
    "collect_maximal_plexes",
    "delta_slice_degeneracy",
    "enumerate_maximal_plexes",
    "parse_edge_list",
    "plex_count_upper_bound",
]

__version__ = "0.1.0"
