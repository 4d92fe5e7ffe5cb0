"""Unit tests for the routing table and bin store."""

import pytest

from repro.megaphone.bins import BinStore
from repro.megaphone.control import BinnedConfiguration, ControlInst
from repro.megaphone.routing import RoutingTable


def table_for(num_bins=4, workers=2):
    return RoutingTable(BinnedConfiguration.round_robin(num_bins, workers))


def test_initial_lookup_matches_configuration():
    table = table_for()
    assert table.worker_for(0, 0) == 0
    assert table.worker_for(1, 10**9) == 1
    assert table.current_owner(2) == 0


def test_update_applies_from_its_time_onwards():
    table = table_for()
    table.integrate(16, [ControlInst(bin=0, worker=1)])
    assert table.worker_for(0, 15) == 0
    assert table.worker_for(0, 16) == 1
    assert table.worker_for(0, 100) == 1
    assert table.current_owner(0) == 1


def test_multiple_updates_for_one_bin():
    table = table_for()
    table.integrate(10, [ControlInst(bin=0, worker=1)])
    table.integrate(20, [ControlInst(bin=0, worker=0)])
    assert table.worker_for(0, 5) == 0
    assert table.worker_for(0, 12) == 1
    assert table.worker_for(0, 25) == 0


def test_same_time_update_last_write_wins():
    table = table_for()
    table.integrate(10, [ControlInst(bin=0, worker=1)])
    table.integrate(10, [ControlInst(bin=0, worker=0)])
    assert table.worker_for(0, 10) == 0


def test_out_of_order_integration_rejected():
    table = table_for()
    table.integrate(20, [ControlInst(bin=0, worker=1)])
    with pytest.raises(ValueError):
        table.integrate(10, [ControlInst(bin=0, worker=0)])


def test_compact_preserves_semantics_at_or_after_base():
    table = table_for()
    table.integrate(10, [ControlInst(bin=0, worker=1)])
    table.integrate(20, [ControlInst(bin=0, worker=0)])
    table.compact(15)
    assert table.worker_for(0, 15) == 1
    assert table.worker_for(0, 25) == 0


def test_snapshot_reflects_latest():
    table = table_for()
    table.integrate(5, [ControlInst(bin=3, worker=0)])
    snap = table.snapshot()
    assert snap.worker_of(3) == 0
    assert snap.worker_of(1) == 1


def test_bin_store_lifecycle():
    store = BinStore(num_bins=4, state_factory=dict, bytes_per_key=8.0)
    bin_ = store.create(2)
    assert store.has(2)
    assert store.resident_bins() == [2]
    bin_.state["a"] = 1
    bin_.state["b"] = 2
    assert store.state_size(2) == pytest.approx(16.0)
    taken = store.take(2)
    assert not store.has(2)
    store.install(taken)
    assert store.has(2)
    assert store.total_keys() == 2


def test_bin_store_duplicate_create_rejected():
    store = BinStore(num_bins=4, state_factory=dict)
    store.create(0)
    with pytest.raises(ValueError):
        store.create(0)
    taken = store.extract(0, remove=False)
    with pytest.raises(ValueError):
        store.install(taken)


def test_bin_store_pending_counts_toward_size():
    store = BinStore(num_bins=2, state_factory=dict, bytes_per_key=10.0)
    bin_ = store.create(0)
    bin_.pending.push(5, (0, ("k", 1)))
    assert store.state_size(0) == pytest.approx(10.0)
    bin_.state["k"] = 1
    assert store.state_size(0) == pytest.approx(20.0)


def test_bin_store_custom_size_fn():
    store = BinStore(
        num_bins=2, state_factory=list, state_size_fn=lambda s: 1000.0
    )
    store.create(1)
    assert store.state_size(1) == 1000.0
    assert store.total_state_size() == 1000.0
