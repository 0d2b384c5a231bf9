"""Seeded input generators for the benchmark workloads.

Each workload is a generator plus the enumeration parameters.  The same
(workload, seed) pair always renders the same edge-list bytes; the
program under test only ever sees the rendered file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Instance:
    """A rendered input: edge lines plus, for planted inputs, the groups."""

    edges: tuple[tuple[int, int, int], ...]
    labels: tuple[str, ...]
    groups: tuple[tuple[int, ...], ...] = ()

    def edge_list_text(self) -> str:
        return "".join(
            f"{t} {self.labels[u]} {self.labels[v]}\n" for t, u, v in self.edges
        )

    def groups_text(self) -> str:
        return "".join(
            " ".join(self.labels[v] for v in group) + "\n" for group in self.groups
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    params: dict = field(hash=False)
    delta: int = 0
    k: int = 1
    connected: bool = False

    def enumerate_args(self) -> list[str]:
        args = ["--delta", str(self.delta), "--k", str(self.k)]
        if self.connected:
            args.append("--connected")
        return args

    def generate(self, seed: int) -> Instance:
        # the workload's position salts the seed so workloads never share inputs
        rng = random.Random(seed * 1009 + WORKLOAD_ORDER.index(self.name))
        return GENERATORS[self.generator](rng, **self.params)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"v{i:03d}" for i in range(n))


def uniform_contacts(rng: random.Random, n: int, m: int, omega: int) -> Instance:
    """m distinct contacts with uniform time and endpoints over [1, omega].

    The shape of the repository's scale-test graphs: the pinned edges at
    both ends fix the lifetime, so every seed has the same frame domain.
    """
    edges = {(1, 0, 1), (omega, 0, 1)}
    while len(edges) < m:
        t = rng.randint(1, omega)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((t, min(u, v), max(u, v)))
    return Instance(tuple(sorted(edges)), _labels(n))


def planted_communities(
    rng: random.Random,
    n: int,
    groups: int,
    size: int,
    span: int,
    density: float,
    background: int,
    omega: int,
) -> Instance:
    """Dense groups, each active over a short span, on a sparse background.

    Each group is a disjoint random vertex set; on every step of its span
    each member pair is in contact with probability ``density``.  The
    background adds ``background`` further uniform contacts.
    """
    order = list(range(n))
    rng.shuffle(order)
    planted = []
    edges = {(1, 0, 1), (omega, 0, 1)}
    for g in range(groups):
        members = tuple(sorted(order[g * size:(g + 1) * size]))
        planted.append(members)
        start = rng.randint(1, omega - span + 1)
        for t in range(start, start + span):
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if rng.random() < density:
                        edges.add((t, u, v))
    target = len(edges) + background
    while len(edges) < target:
        t = rng.randint(1, omega)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((t, min(u, v), max(u, v)))
    return Instance(tuple(sorted(edges)), _labels(n), tuple(planted))


GENERATORS = {
    "uniform_contacts": uniform_contacts,
    "planted_communities": planted_communities,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clique-long",
            why="widest frame domain with short scattered gaps: update_pool, "
            "Pool.increment, emission and output dominate",
            generator="uniform_contacts",
            params={"n": 40, "m": 6000, "omega": 5000},
            delta=0,
            k=1,
        ),
        Workload(
            name="plex-window",
            why="narrow frame domain with long intervals, deep recursion and "
            "non-empty critical sets: update_pool and update_candidates share the time",
            generator="uniform_contacts",
            params={"n": 24, "m": 1000, "omega": 400},
            delta=20,
            k=2,
        ),
        Workload(
            name="community-connected",
            why="only workload running the connectedness filter; update_candidates "
            "dominates and few records bypass emission and output",
            generator="planted_communities",
            params={
                "n": 80, "groups": 4, "size": 8, "span": 20,
                "density": 1.0, "background": 500, "omega": 200,
            },
            delta=2,
            k=2,
            connected=True,
        ),
    )
}

WORKLOAD_ORDER = tuple(WORKLOADS)
