import random

from tkplex import pairset
from tkplex.pool import Pool

# frame sets are segment bitsets: bit i stands for segment i


def counts(pool: Pool, vertex: int, segments: int) -> list[int]:
    return [pool.count(vertex, i) for i in range(segments)]


class TestMergePair:
    def test_insert_new_vertex(self):
        got = pairset.merge_pair(0, 0b011, {1: 0b001})
        assert got == {0: 0b011, 1: 0b001}

    def test_union_with_existing_entry(self):
        got = pairset.merge_pair(0, 0b100, {0: 0b011})
        assert got == {0: 0b111}

    def test_empty_contribution_is_noop(self):
        pairs = {1: 0b001}
        assert pairset.merge_pair(0, 0, pairs) == pairs

    def test_does_not_mutate_input(self):
        pairs = {0: 0b11}
        pairset.merge_pair(0, 0b110000, pairs)
        assert pairs == {0: 0b11}


class TestPool:
    def test_starts_all_zero(self):
        pool = Pool(2)
        assert counts(pool, 3, 5) == [0, 0, 0, 0, 0]

    def test_single_increment(self):
        pool = Pool(1)
        hits = pool.increment(0, 0b01110)
        assert hits == 0b01110
        assert counts(pool, 0, 5) == [0, 1, 1, 1, 0]

    def test_critical_only_at_threshold(self):
        pool = Pool(2)
        assert pool.increment(0, 0b11111) == 0
        assert pool.increment(0, 0b00110) == 0b00110
        assert counts(pool, 0, 5) == [1, 2, 2, 1, 1]

    def test_segments_already_at_k_are_not_reported_again(self):
        # tests/test_pool_invariant.py raises a copy k times and relies on this
        pool = Pool(2)
        pool.increment(0, 0b00111)
        assert pool.increment(0, 0b00011) == 0b00011
        assert pool.increment(0, 0b01111) == 0b00100
        assert counts(pool, 0, 5) == [2, 2, 2, 1, 0]

    def test_copy_isolated_from_later_increments(self):
        pool = Pool(3)
        pool.increment(0, 0b0011)
        snapshot = pool.copy()
        pool.increment(0, 0b1111)
        assert snapshot.count(0, 0) == 1
        assert pool.count(0, 0) == 2

    def test_runs_partition_and_alternate(self):
        # increments below k: the hits and every count match a plain tally
        rng = random.Random(99)
        for k in (1, 2, 3, 5):
            pool = Pool(k)
            expected = {v: [0] * 12 for v in range(3)}
            for _ in range(60):
                v = rng.randrange(3)
                lo = rng.randint(0, 11)
                hi = rng.randint(lo, 11)
                below = [i for i in range(lo, hi + 1) if expected[v][i] < k]
                hits = pool.increment(v, sum(1 << i for i in below))
                for i in below:
                    expected[v][i] += 1
                assert hits == sum(1 << i for i in below if expected[v][i] == k)
                for u in range(3):
                    assert counts(pool, u, 12) == expected[u]
