"""Property tests for WAL recovery: truncation always yields a valid prefix.

The crash-consistency claim, stated as a property: however the log is cut —
at any byte offset, torn, or bit-flipped — recovery parses a checksum-valid
*prefix* of the original frame sequence and rebuilds exactly the state that
prefix implies.  No cut can make replay invent, reorder, or corrupt state.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.state.wal import (
    K_CKPT,
    K_CREATE,
    K_DELETE,
    K_DROP,
    K_PUT,
    K_TXN,
    WorkerWal,
    replay_frames,
)

# One logical operation: (op, bin, key, value) with small domains so ops
# collide on bins/keys (creates, overwrites, deletes, drops and group
# commits all interleave).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "put", "delete", "drop", "group"]),
        st.integers(0, 3),
        st.integers(0, 5),
        st.integers(-100, 100),
    ),
    min_size=1,
    max_size=60,
)


def _build_log(ops, sync_at=None, segment_bytes=256):
    """Fold an op list into a WorkerWal the way WalBackend frames it.

    ``sync_at`` places the fsync horizon after that many ops (default: all
    of them).  A ``group`` op commits one transaction: a ``TXN`` frame
    checkpointing every live bin up to ``bin`` to ``{key: value}``.
    """
    wal = WorkerWal(0, segment_bytes=segment_bytes)
    live = set()
    for epoch, (op, bin_id, key, value) in enumerate(ops):
        if op == "create":
            if bin_id not in live:
                live.add(bin_id)
                wal.append(K_CREATE, (bin_id, epoch))
        elif op == "drop":
            if bin_id in live:
                live.discard(bin_id)
                wal.append(K_DROP, (bin_id, epoch))
        elif op == "group":
            ckpts = tuple(
                (K_CKPT, (b, epoch, {key: value})) for b in sorted(live) if b <= bin_id
            )
            if ckpts:
                wal.append(K_TXN, (epoch, ckpts))
        elif bin_id in live:
            if op == "put":
                wal.append(K_PUT, (bin_id, epoch, key, value))
            else:
                wal.append(K_DELETE, (bin_id, epoch, key))
        if sync_at is not None and epoch + 1 == sync_at:
            wal.sync()
    if sync_at is None:
        wal.sync()
    return wal


def _fold(frames):
    """Independent reference fold of a frame sequence (dict bins only)."""
    records = []
    for kind, record in frames:
        if kind == K_TXN:
            records.extend(record[1])
        else:
            records.append((kind, record))
    bins = {}
    for kind, record in records:
        bin_id = record[0]
        if kind == K_CKPT:
            bins[bin_id] = dict(record[2])
        elif kind == K_CREATE:
            bins[bin_id] = {}
        elif kind == K_DROP:
            bins.pop(bin_id, None)
        elif kind == K_PUT and bin_id in bins:
            bins[bin_id][record[2]] = record[3]
        elif kind == K_DELETE and bin_id in bins:
            bins[bin_id].pop(record[2], None)
    return bins


def _replayed_state(frames):
    bins, _ = replay_frames(frames, dict)
    return {b: dict(e.state) for b, e in bins.items()}


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, cut=st.floats(0.0, 1.0))
def test_any_byte_truncation_recovers_a_valid_prefix(ops, cut):
    full_frames, full_recovery = _build_log(ops).scan()
    assert full_recovery.clean

    wal = _build_log(ops)
    offset = int(cut * wal.total_bytes())
    wal._truncate_to(offset)
    frames, recovery = wal.scan()

    # Whatever survived parses as an exact prefix of the original sequence,
    # and replay rebuilds exactly the state that prefix implies.
    assert frames == full_frames[: len(frames)]
    assert _replayed_state(frames) == _fold(frames)
    # A cut through the middle of a frame is detected, never absorbed.
    if recovery.truncated_bytes:
        assert recovery.torn_frame
    # The scan repaired the log: a second scan is clean and idempotent.
    again, second = wal.scan()
    assert again == frames
    assert second.clean


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, seed=st.integers(0, 2**16), flips=st.integers(1, 4))
# A flip in the first header's kind byte turns K_CREATE into K_INSTALL,
# which the checksum must catch (it covers the header, not just the body).
@example(
    ops=[("create", 0, 0, 0), ("create", 1, 0, 0), ("create", 2, 0, 0)],
    seed=10595,
    flips=2,
)
def test_bit_flips_never_corrupt_the_replayed_prefix(ops, seed, flips):
    full_frames, _ = _build_log(ops).scan()

    wal = _build_log(ops)
    wal.apply_crash(bit_flips=flips, rng=random.Random(seed))
    frames, recovery = wal.scan()

    # CRC catches damage: replay never yields a non-prefix, and if any
    # frame was lost the damage is reported, not silently absorbed.
    assert frames == full_frames[: len(frames)]
    if len(frames) < len(full_frames):
        assert not recovery.clean
    assert _replayed_state(frames) == _fold(frames)


@settings(max_examples=40, deadline=None)
@given(
    ops=_OPS,
    sync_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    torn=st.booleans(),
    lose_tail=st.booleans(),
)
def test_crash_fault_combinations_preserve_the_synced_prefix(
    ops, sync_fraction, seed, torn, lose_tail
):
    sync_at = int(sync_fraction * len(ops))
    synced_frames, _ = _build_log(ops[:sync_at]).scan()

    wal = _build_log(ops, sync_at=sync_at)
    wal.apply_crash(
        lose_unsynced_tail=lose_tail,
        torn_write=torn,
        rng=random.Random(seed),
    )
    frames, recovery = wal.scan()

    # Everything behind the fsync horizon survives any crash verbatim.
    assert frames[: len(synced_frames)] == synced_frames
    assert _replayed_state(frames) == _fold(frames)
    if recovery.truncated_bytes:
        assert recovery.torn_frame or recovery.corrupt_frame
