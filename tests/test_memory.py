"""Unit tests for replica placement and the per-site variable store."""

import pytest

from repro.memory.replication import (
    RoundRobinPlacement,
    paper_replication_factor,
)
from repro.memory.store import BOTTOM, SiteStore, WriteId


class TestPaperReplicationFactor:
    @pytest.mark.parametrize(
        "n,expected", [(5, 2), (10, 3), (20, 6), (30, 9), (40, 12)]
    )
    def test_paper_values(self, n, expected):
        # the factor implied by the paper's Table IV message counts
        assert paper_replication_factor(n) == expected

    def test_at_least_one(self):
        assert paper_replication_factor(1) == 1
        assert paper_replication_factor(2) == 1

    def test_never_exceeds_n(self):
        for n in range(1, 50):
            assert 1 <= paper_replication_factor(n) <= n

    def test_invalid(self):
        with pytest.raises(ValueError):
            paper_replication_factor(0)


class TestRoundRobinPlacement:
    def test_replica_count(self):
        pl = RoundRobinPlacement(10, 30, 3)
        for v in range(30):
            assert len(pl.replicas(v)) == 3

    def test_replicas_are_consecutive_ring_slots(self):
        pl = RoundRobinPlacement(5, 10, 2)
        assert set(pl.replicas(0)) == {0, 1}
        assert set(pl.replicas(4)) == {4, 0}  # wraps

    def test_even_load(self):
        pl = RoundRobinPlacement(10, 100, 3)
        counts = [len(pl.vars_at(s)) for s in range(10)]
        assert sum(counts) == 300
        assert max(counts) - min(counts) == 0  # q multiple of n: perfectly even

    def test_nearly_even_load_when_q_not_multiple(self):
        pl = RoundRobinPlacement(7, 100, 3)
        counts = [len(pl.vars_at(s)) for s in range(7)]
        assert sum(counts) == 300
        # the q mod n = 2 trailing variables land on p-site windows
        assert max(counts) - min(counts) <= 3

    def test_vars_at_inverts_replicas(self):
        pl = RoundRobinPlacement(6, 20, 2)
        for s in range(6):
            for v in pl.vars_at(s):
                assert s in pl.replicas(v)
        for v in range(20):
            for s in pl.replicas(v):
                assert v in pl.vars_at(s)

    def test_is_replicated_at(self):
        pl = RoundRobinPlacement(5, 10, 2)
        assert pl.is_replicated_at(0, 0)
        assert pl.is_replicated_at(0, 1)
        assert not pl.is_replicated_at(0, 3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement(0, 10, 1)
        with pytest.raises(ValueError):
            RoundRobinPlacement(5, 0, 1)
        with pytest.raises(ValueError):
            RoundRobinPlacement(5, 10, 0)
        with pytest.raises(ValueError):
            RoundRobinPlacement(5, 10, 6)


class TestFetchRouting:
    def test_reader_holding_replica_fetches_itself(self):
        pl = RoundRobinPlacement(5, 10, 2)
        assert pl.fetch_site(0, 0) == 0

    def test_fetch_site_is_a_replica(self):
        pl = RoundRobinPlacement(8, 40, 3)
        for v in range(40):
            for reader in range(8):
                assert pl.fetch_site(v, reader) in pl.replicas(v)

    def test_fetch_site_deterministic(self):
        pl = RoundRobinPlacement(8, 40, 3)
        assert pl.fetch_site(5, 2) == pl.fetch_site(5, 2)

    def test_ring_distance_choice(self):
        pl = RoundRobinPlacement(6, 6, 2)
        # var 2 lives at {2, 3}; reader 4 is 4 hops from 2 (clockwise 4->2
        # = (2-4) % 6 = 4) and 5 hops from 3; chooses 2
        assert pl.fetch_site(2, 4) == 2


class TestFullReplication:
    def test_p_equals_n_is_full(self):
        pl = RoundRobinPlacement(4, 10, 4)
        assert pl.is_full
        for v in range(10):
            assert set(pl.replicas(v)) == {0, 1, 2, 3}

    def test_partial_is_not_full(self):
        assert not RoundRobinPlacement(5, 10, 2).is_full


class TestSiteStore:
    def test_initial_value_is_bottom(self):
        store = SiteStore(0, [1, 2, 3])
        slot = store.read(2)
        assert slot.value is BOTTOM
        assert slot.write_id is None

    def test_apply_then_read(self):
        store = SiteStore(0, [1])
        wid = WriteId(3, 7)
        store.apply(1, "v", wid, 12.5)
        slot = store.read(1)
        assert slot.value == "v"
        assert slot.write_id == wid
        assert slot.applied_at == 12.5

    def test_non_replicated_read_raises(self):
        store = SiteStore(4, [1])
        with pytest.raises(KeyError, match="site 4"):
            store.read(2)

    def test_non_replicated_apply_raises(self):
        store = SiteStore(0, [1])
        with pytest.raises(KeyError):
            store.apply(9, "v", WriteId(0, 1), 0.0)

    def test_contains_and_len(self):
        store = SiteStore(0, [3, 5])
        assert 3 in store and 5 in store and 4 not in store
        assert len(store) == 2
        assert store.variables == (3, 5)


class TestWriteId:
    def test_ordering_per_writer(self):
        assert WriteId(0, 1) < WriteId(0, 2) < WriteId(1, 1)

    def test_hashable_and_tuple(self):
        assert WriteId(2, 5).as_tuple() == (2, 5)
        assert len({WriteId(1, 1), WriteId(1, 1), WriteId(1, 2)}) == 2
