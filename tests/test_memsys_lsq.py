"""Unit tests for the load/store queue."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.memsys.lsq import LoadStoreQueue


class TestLSQBasics:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            LoadStoreQueue(capacity=0)

    def test_insert_and_full(self):
        lsq = LoadStoreQueue(capacity=2)
        lsq.insert(0, is_store=False)
        lsq.insert(1, is_store=True)
        assert lsq.full
        with pytest.raises(SimulationError):
            lsq.insert(2, is_store=False)

    def test_program_order_enforced(self):
        lsq = LoadStoreQueue()
        lsq.insert(5, is_store=False)
        with pytest.raises(SimulationError):
            lsq.insert(3, is_store=True)

    def test_release_and_occupancy(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.insert(1, is_store=False)
        assert lsq.occupancy() == 2
        lsq.release(0)
        assert lsq.occupancy() == 1
        lsq.release(12345)   # unknown seq is a no-op
        assert lsq.occupancy() == 1


class TestOrderingRules:
    def test_load_blocked_by_unknown_store_address(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.insert(1, is_store=False)
        assert not lsq.load_may_issue(1)
        lsq.set_address(0, 0x100)
        assert lsq.load_may_issue(1)

    def test_load_not_blocked_by_younger_store(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=False)
        lsq.insert(1, is_store=True)
        assert lsq.load_may_issue(0)

    def test_set_address_unknown_entry(self):
        lsq = LoadStoreQueue()
        with pytest.raises(SimulationError):
            lsq.set_address(7, 0x100)


class TestForwarding:
    def test_forwarding_from_matching_store(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=False)
        assert lsq.forwarding_store(1, 0x200) == 0
        assert lsq.forwarded_loads == 1

    def test_no_forwarding_from_different_address(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=False)
        assert lsq.forwarding_store(1, 0x300) is None

    def test_youngest_older_store_wins(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=True)
        lsq.set_address(1, 0x200)
        lsq.insert(2, is_store=False)
        assert lsq.forwarding_store(2, 0x200) == 1

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=False)
        lsq.insert(1, is_store=True)
        lsq.set_address(1, 0x200)
        assert lsq.forwarding_store(0, 0x200) is None


class TestFlush:
    def test_flush_after_drops_younger_entries(self):
        lsq = LoadStoreQueue()
        for seq in range(4):
            lsq.insert(seq, is_store=seq % 2 == 0)
        lsq.flush_after(1)
        assert lsq.occupancy() == 2
        lsq.clear()
        assert lsq.occupancy() == 0


class _LinearScanLSQ:
    """Reference model: the ordering checks as plain walks from the oldest
    entry, with no index to keep in step."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # seq -> [is_store, address or None], program order
        self.forwarded_loads = 0
        self.blocked_loads = 0

    def insert(self, seq, is_store):
        self.entries[seq] = [is_store, None]

    def set_address(self, seq, address):
        self.entries[seq][1] = address

    def load_may_issue(self, seq):
        for other_seq, (is_store, address) in self.entries.items():
            if other_seq >= seq:
                break
            if is_store and address is None:
                self.blocked_loads += 1
                return False
        return True

    def forwarding_store(self, seq, address):
        best = None
        for other_seq, (is_store, other_address) in self.entries.items():
            if other_seq >= seq:
                break
            if is_store and other_address == address:
                best = other_seq
        if best is not None:
            self.forwarded_loads += 1
        return best

    def release(self, seq):
        self.entries.pop(seq, None)

    def flush_after(self, seq):
        for other_seq in [s for s in self.entries if s > seq]:
            del self.entries[other_seq]


class TestIndexesMatchLinearScan:
    """The O(1) ordering indexes answer exactly as a linear scan does."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_operation_sequences(self, seed):
        import random

        rng = random.Random(seed)
        capacity = rng.choice([4, 8, 16])
        lsq = LoadStoreQueue(capacity=capacity)
        reference = _LinearScanLSQ(capacity)
        addresses = [0x100 + 8 * index for index in range(rng.choice([2, 4, 8]))]
        next_seq = 0
        flushed = 0
        for _ in range(600):
            live = list(reference.entries)
            op = rng.random()
            if op < 0.30 and len(live) < capacity:
                next_seq += rng.randint(1, 3)
                is_store = rng.random() < 0.5
                lsq.insert(next_seq, is_store)
                reference.insert(next_seq, is_store)
            elif op < 0.50 and live:
                # Some stores never get here: they stay unaddressed until
                # released or flushed.
                seq = rng.choice(live)
                address = rng.choice(addresses)
                lsq.set_address(seq, address)
                reference.set_address(seq, address)
            elif op < 0.65:
                seq = rng.choice(live) if live and rng.random() < 0.8 else next_seq + 1
                assert lsq.load_may_issue(seq) == reference.load_may_issue(seq)
            elif op < 0.82:
                seq = rng.choice(live) if live and rng.random() < 0.8 else next_seq + 1
                address = rng.choice(addresses)
                assert (lsq.forwarding_store(seq, address)
                        == reference.forwarding_store(seq, address))
            elif op < 0.95 and live:
                seq = live[0] if rng.random() < 0.7 else rng.choice(live)
                lsq.release(seq)
                reference.release(seq)
            elif live:
                seq = rng.choice(live) - rng.randint(0, 1)
                lsq.flush_after(seq)
                reference.flush_after(seq)
                flushed += 1
                for address in addresses:
                    probe = next_seq + 1
                    assert (lsq.forwarding_store(probe, address)
                            == reference.forwarding_store(probe, address))
            assert lsq.occupancy() == len(reference.entries)
            assert lsq.blocked_loads == reference.blocked_loads
            assert lsq.forwarded_loads == reference.forwarded_loads
        assert flushed > 0
        assert lsq.forwarded_loads > 0 and lsq.blocked_loads > 0

    def test_readdressed_store_moves_between_addresses(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.set_address(0, 0x100)
        lsq.set_address(0, 0x100)  # same address again: indexed once
        lsq.set_address(0, 0x200)
        lsq.insert(1, is_store=False)
        assert lsq.forwarding_store(1, 0x100) is None
        assert lsq.forwarding_store(1, 0x200) == 0
        lsq.release(0)
        assert lsq.forwarding_store(1, 0x200) is None

    def test_clear_empties_the_indexes(self):
        lsq = LoadStoreQueue()
        lsq.insert(0, is_store=True)
        lsq.insert(1, is_store=True)
        lsq.set_address(1, 0x100)
        lsq.clear()
        lsq.insert(2, is_store=False)
        assert lsq.load_may_issue(2)
        assert lsq.forwarding_store(2, 0x100) is None
