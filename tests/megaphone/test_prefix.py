"""Tests for prefix-tree binning (paper §4.4's discussed alternative)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.megaphone.control import splitmix64
from repro.megaphone.prefix import (
    Prefix,
    PrefixRouter,
    SplittableBinStore,
    plan_split_migration,
)


def test_prefix_validation():
    with pytest.raises(ValueError):
        Prefix(bits=2, length=1)  # bits don't fit
    with pytest.raises(ValueError):
        Prefix(bits=0, length=65)
    assert str(Prefix(0b101, 3)) == "101"
    assert str(Prefix(0, 0)) == "*"


def test_prefix_containment_and_children():
    root = Prefix(0, 0)
    left, right = root.children()
    assert left == Prefix(0, 1)
    assert right == Prefix(1, 1)
    assert root.contains(left) and root.contains(right)
    assert not left.contains(right)
    assert left.parent() == root
    with pytest.raises(ValueError):
        root.parent()


def test_prefix_contains_hash():
    p = Prefix(0b1, 1)  # top bit set
    assert p.contains_hash(1 << 63)
    assert not p.contains_hash(0)


def test_router_initial_partition():
    router = PrefixRouter(num_workers=3, initial_depth=2)
    assert len(router.leaves()) == 4
    assert router.is_partition()
    assert {router.worker_of(p) for p in router.leaves()} <= {0, 1, 2}


def test_router_lookup_and_assign():
    router = PrefixRouter(num_workers=2, initial_depth=1)
    leaf = router.leaf_for_hash(1 << 63)
    assert leaf == Prefix(1, 1)
    router.assign(leaf, 0)
    assert router.worker_of(leaf) == 0
    with pytest.raises(KeyError):
        router.assign(Prefix(0, 3), 0)
    with pytest.raises(ValueError):
        router.assign(leaf, 9)


def test_router_split_and_merge_roundtrip():
    router = PrefixRouter(num_workers=2, initial_depth=1)
    leaf = Prefix(0, 1)
    left, right = router.split(leaf)
    assert router.is_partition()
    assert router.worker_of(left) == router.worker_of(right)
    merged = router.merge(leaf)
    assert merged == leaf
    assert router.is_partition()


def test_router_merge_rejects_cross_worker():
    router = PrefixRouter(num_workers=2, initial_depth=1)
    left, right = router.split(Prefix(0, 1))
    router.assign(right, (router.worker_of(left) + 1) % 2)
    with pytest.raises(ValueError):
        router.merge(Prefix(0, 1))


def test_router_longest_prefix_wins():
    router = PrefixRouter(num_workers=4, initial_depth=1)
    left, right = router.split(Prefix(0, 1))
    router.assign(left, 3)
    # A hash under `left` routes to the finer leaf's worker.
    h = 0  # top bits 00...
    assert router.leaf_for_hash(h) == left
    assert router.route_key(0) in range(4)


@given(st.integers(0, 2**64 - 1), st.integers(1, 4))
def test_property_every_hash_has_exactly_one_leaf(key_hash, depth):
    router = PrefixRouter(num_workers=2, initial_depth=depth)
    covering = [p for p in router.leaves() if p.contains_hash(key_hash)]
    assert len(covering) == 1


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60))
def test_property_split_partitions_state(keys):
    store = SplittableBinStore(key_hash_fn=lambda k: splitmix64(k))
    root = Prefix(0, 0)
    state = store.create(root)
    for k in keys:
        state[k] = k * 2
    left, right = store.split(root)
    left_state, right_state = store.get(left), store.get(right)
    assert len(left_state) + len(right_state) == len(set(keys))
    for k in left_state:
        assert left.contains_hash(splitmix64(k))
    for k in right_state:
        assert right.contains_hash(splitmix64(k))
    # Merge restores exactly the original content.
    store.merge(root)
    assert store.get(root) == {k: k * 2 for k in set(keys)}


def test_store_take_install_cycle():
    store = SplittableBinStore(key_hash_fn=splitmix64)
    p = Prefix(0, 1)
    store.create(p)["a"] = 1
    state = store.take(p)
    assert not store.has(p)
    store.install(p, state)
    assert store.get(p) == {"a": 1}
    with pytest.raises(ValueError):
        store.install(p, {})


def test_plan_split_migration_respects_threshold():
    router = PrefixRouter(num_workers=2, initial_depth=1)
    sizes = {Prefix(0, 1): 1000.0, Prefix(1, 1): 10.0}
    actions = plan_split_migration(
        router,
        store_sizes=lambda p: sizes[p],
        hot_threshold=300.0,
        target_worker_fn=lambda p: p.bits & 1,
    )
    splits = [a for a in actions if a[0] == "split"]
    moves = [a for a in actions if a[0] == "move"]
    # The hot leaf (1000 > 300) splits twice: 1000 -> 500 -> 250.
    assert len(splits) == 3  # parent + two children
    # Every move carries at most the threshold's worth of modeled state.
    assert all(m[2] in (0, 1) for m in moves)
    # The cold leaf moves unsplit.
    assert ("move", Prefix(1, 1), 1) in moves
