import random

import pytest

from tkplex import pairset
from tkplex.intervals import EMPTY_SET, IntervalSet
from tkplex.pool import Pool


def iset(*pairs) -> IntervalSet:
    return IntervalSet(pairs)


class TestMergePair:
    def test_insert_new_vertex(self):
        got = pairset.merge_pair(0, iset((1, 2)), {1: iset((1, 1))})
        assert got == {0: iset((1, 2)), 1: iset((1, 1))}

    def test_union_with_existing_entry(self):
        got = pairset.merge_pair(0, iset((3, 3)), {0: iset((1, 2))})
        assert got == {0: iset((1, 3))}

    def test_empty_contribution_is_noop(self):
        pairs = {1: iset((1, 1))}
        assert pairset.merge_pair(0, EMPTY_SET, pairs) == pairs

    def test_does_not_mutate_input(self):
        pairs = {0: iset((1, 2))}
        pairset.merge_pair(0, iset((5, 6)), pairs)
        assert pairs == {0: iset((1, 2))}


class TestPool:
    def test_starts_all_zero(self):
        pool = Pool(5)
        assert all(pool.count(3, i) == 0 for i in range(1, 6))
        assert pool.runs(3) == [(1, 5, 0)]

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            Pool(0)

    def test_single_increment(self):
        pool = Pool(5)
        hits = pool.increment(0, iset((2, 4)), critical_at=1)
        assert hits == iset((2, 4))
        assert pool.runs(0) == [(1, 1, 0), (2, 4, 1), (5, 5, 0)]

    def test_critical_only_at_threshold(self):
        pool = Pool(5)
        assert pool.increment(0, iset((1, 5)), critical_at=2) == EMPTY_SET
        assert pool.increment(0, iset((2, 3)), critical_at=2) == iset((2, 3))
        assert pool.runs(0) == [(1, 1, 1), (2, 3, 2), (4, 5, 1)]

    def test_copy_isolated_from_later_increments(self):
        pool = Pool(4)
        pool.increment(0, iset((1, 2)), critical_at=99)
        snapshot = pool.copy()
        pool.increment(0, iset((1, 4)), critical_at=99)
        assert snapshot.count(0, 1) == 1
        assert pool.count(0, 1) == 2

    def test_runs_partition_and_alternate(self):
        rng = random.Random(99)
        pool = Pool(12)
        counts = {v: [0] * 13 for v in range(3)}
        for _ in range(60):
            v = rng.randrange(3)
            lo = rng.randint(1, 12)
            hi = rng.randint(lo, 12)
            threshold = rng.randint(1, 5)
            hits = pool.increment(v, iset((lo, hi)), critical_at=threshold)
            assert hits == IntervalSet(hits.intervals)
            for i in range(lo, hi + 1):
                counts[v][i] += 1
            expected_hits = [
                i for i in range(lo, hi + 1) if counts[v][i] == threshold
            ]
            assert sorted(
                i for iv in hits for i in range(iv.start, iv.end + 1)
            ) == expected_hits
            for u in range(3):
                runs = pool.runs(u)
                assert runs[0][0] == 1 and runs[-1][1] == 12
                assert all(
                    r1[1] + 1 == r2[0] and r1[2] != r2[2]
                    for r1, r2 in zip(runs, runs[1:])
                )
                assert all(
                    pool.count(u, i) == counts[u][i] for i in range(1, 13)
                )
